(* Tests of the SPICE substrate: deck model, parser, elaboration into
   RC trees, and printing round-trips. *)

let check_close ?(eps = 1e-9) msg a b = Alcotest.(check (float eps)) msg a b
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse_ok s =
  match Spice.Parser.parse_string s with
  | Ok deck -> deck
  | Error e -> Alcotest.failf "unexpected parse error: %s" (Spice.Parser.error_to_string e)

let parse_err s =
  match Spice.Parser.parse_string s with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

let elab_ok deck =
  match Spice.Elaborate.to_tree deck with
  | Ok tree -> tree
  | Error e -> Alcotest.failf "unexpected elab error: %s" (Spice.Elaborate.error_to_string e)

let elab_err deck =
  match Spice.Elaborate.to_tree deck with
  | Ok _ -> Alcotest.fail "expected an elaboration error"
  | Error e -> e

let fig7_text =
  "VIN in 0\n\
   R1 in a 15\n\
   C1 a 0 2\n\
   R2 a b 8\n\
   C2 b 0 7\n\
   U1 a e 3 4\n\
   C3 e 0 9\n\
   .output e\n\
   .end\n"

let parser_tests =
  [
    Alcotest.test_case "cards of each kind" `Quick (fun () ->
        let deck = parse_ok "V1 in 0\nR1 in a 10\nC1 a 0 1p\nU1 a b 100 2p\n.end" in
        check_int "cards" 4 (List.length deck.Spice.Deck.cards));
    Alcotest.test_case "element names strip the type letter" `Quick (fun () ->
        let deck = parse_ok "Vdrv in 0\nRload in a 1\nC7 a 0 1" in
        match deck.Spice.Deck.cards with
        | [ s; r; c ] ->
            check_string "v" "drv" (Spice.Deck.card_name s);
            check_string "r" "load" (Spice.Deck.card_name r);
            check_string "c" "7" (Spice.Deck.card_name c)
        | _ -> Alcotest.fail "wrong card count");
    Alcotest.test_case "si suffixes in values" `Quick (fun () ->
        let deck = parse_ok "V1 in 0\nR1 in a 1.5k\nC1 a 0 10p" in
        match deck.Spice.Deck.cards with
        | [ _; Spice.Deck.Resistor { value; _ }; Spice.Deck.Capacitor { value = c; _ } ] ->
            check_close "r" 1500. value;
            check_close ~eps:1e-18 "c" 1e-11 c
        | _ -> Alcotest.fail "unexpected cards");
    Alcotest.test_case "comments and blank lines skipped" `Quick (fun () ->
        let deck = parse_ok "* a comment\n\nV1 in 0\n* another\nR1 in a 1\n" in
        check_int "cards" 2 (List.length deck.Spice.Deck.cards));
    Alcotest.test_case "trailing comments stripped" `Quick (fun () ->
        let deck = parse_ok "V1 in 0\nR1 in a 1 ; the driver\n" in
        check_int "cards" 2 (List.length deck.Spice.Deck.cards));
    Alcotest.test_case "continuation lines join" `Quick (fun () ->
        let deck = parse_ok "V1 in 0\nU1 a\n+ b 100\n+ 2\n" in
        match deck.Spice.Deck.cards with
        | [ _; Spice.Deck.Line { resistance; capacitance; _ } ] ->
            check_close "r" 100. resistance;
            check_close "c" 2. capacitance
        | _ -> Alcotest.fail "continuation not joined");
    Alcotest.test_case "title directive" `Quick (fun () ->
        let deck = parse_ok ".title my network\nV1 in 0\n" in
        check_string "title" "my network" deck.Spice.Deck.title);
    Alcotest.test_case "first non-card line is the title" `Quick (fun () ->
        let deck = parse_ok "my favourite rc tree\nV1 in 0\n" in
        check_string "title" "my favourite rc tree" deck.Spice.Deck.title);
    Alcotest.test_case "outputs accumulate" `Quick (fun () ->
        let deck = parse_ok "V1 in 0\n.output a b\n.output c\n" in
        Alcotest.(check (list string)) "outputs" [ "a"; "b"; "c" ] deck.Spice.Deck.outputs);
    Alcotest.test_case "content after .end rejected" `Quick (fun () ->
        let e = parse_err "V1 in 0\n.end\nR1 in a 1\n" in
        check_int "line" 3 e.Spice.Parser.line);
    Alcotest.test_case "bad value reports the line" `Quick (fun () ->
        let e = parse_err "V1 in 0\nR1 in a abc\n" in
        check_int "line" 2 e.Spice.Parser.line);
    Alcotest.test_case "wrong arity rejected" `Quick (fun () ->
        ignore (parse_err "V1 in 0\nR1 in 10\n"));
    Alcotest.test_case "unknown directive rejected" `Quick (fun () ->
        ignore (parse_err "V1 in 0\n.nonsense\n"));
    Alcotest.test_case "unknown card letter rejected" `Quick (fun () ->
        ignore (parse_err "V1 in 0\nQ1 a b c\n"));
    Alcotest.test_case "orphan continuation rejected" `Quick (fun () ->
        ignore (parse_err "+ R1 in a 1\n"));
    Alcotest.test_case "empty deck parses" `Quick (fun () ->
        let deck = parse_ok "" in
        check_int "cards" 0 (List.length deck.Spice.Deck.cards));
    Alcotest.test_case "negative values rejected at their token" `Quick (fun () ->
        let e = parse_err "V1 in 0\nR1 in a -5\n" in
        check_string "resistor" "line 2, column 9: negative resistance value \"-5\""
          (Spice.Parser.error_to_string e);
        let e = parse_err "V1 in 0\nR1 in a 5\nC1 a 0 1p\nC2 a 0 -1p\n" in
        check_string "parallel capacitor" "line 4, column 8: negative capacitance value \"-1p\""
          (Spice.Parser.error_to_string e);
        let e = parse_err "V1 in 0\nU1 in a 5 -1p\n" in
        check_string "line" "line 2, column 11: negative capacitance value \"-1p\""
          (Spice.Parser.error_to_string e);
        (* negative zero is zero *)
        ignore (parse_ok "V1 in 0\nR1 in a -0\n"));
    Alcotest.test_case "a token's position is its own, also on continuations" `Quick (fun () ->
        let e = parse_err "V1 in 0\n  U1 in a\n+ 5\n+\t  -1p\n" in
        check_int "line" 4 e.Spice.Parser.line;
        check_int "column" 5 e.Spice.Parser.column;
        let e = parse_err "V1 in 0\n\tX1 a b 1\n" in
        check_int "line" 2 e.Spice.Parser.line;
        check_int "column" 2 e.Spice.Parser.column);
    Alcotest.test_case "title joins its continuations; comments and CR are trimmed" `Quick
      (fun () ->
        let deck =
          parse_ok "  my rc tree ; note\n+ second  part\r\nV1 in 0\r\nR1 in a 1k $ x\r\n"
        in
        check_string "title" "my rc tree  second  part" deck.Spice.Deck.title;
        match deck.Spice.Deck.cards with
        | [ _; Spice.Deck.Resistor { value; n2; _ } ] ->
            check_close "r" 1000. value;
            check_string "node" "a" n2
        | _ -> Alcotest.fail "unexpected cards");
    Alcotest.test_case "parse_lines = parse_string" `Quick (fun () ->
        let lines = [ "V1 in 0"; "R1 in a 1"; "C1 a 0 1"; ".output a" ] in
        let text = String.concat "\n" lines in
        match (Spice.Parser.parse_lines lines, Spice.Parser.parse_string text) with
        | Ok a, Ok b -> check_bool "equal" true (Spice.Deck.equal a b)
        | _ -> Alcotest.fail "parse failed");
  ]

let elaborate_tests =
  [
    Alcotest.test_case "fig7 deck gives the paper times" `Quick (fun () ->
        let tree = elab_ok (parse_ok fig7_text) in
        let out = Rctree.Tree.output_named tree "e" in
        let ts = Rctree.Moments.times tree ~output:out in
        check_close "tp" 419. ts.Rctree.Times.t_p;
        check_close "td" 363. ts.Rctree.Times.t_d;
        check_close "tr" (6033. /. 18.) ts.Rctree.Times.t_r);
    Alcotest.test_case "edges may be written in either direction" `Quick (fun () ->
        let tree = elab_ok (parse_ok "V1 in 0\nR1 a in 10\nC1 a 0 1\n.output a\n") in
        let out = Rctree.Tree.output_named tree "a" in
        check_close "td" 10. (Rctree.Moments.elmore tree ~output:out));
    Alcotest.test_case "gnd alias accepted" `Quick (fun () ->
        let tree = elab_ok (parse_ok "V1 in GND\nR1 in a 10\nC1 a gnd 1\n.output a\n") in
        check_int "nodes" 2 (Rctree.Tree.node_count tree));
    Alcotest.test_case "default outputs are the leaves" `Quick (fun () ->
        let tree = elab_ok (parse_ok "V1 in 0\nR1 in a 1\nC1 a 0 1\nR2 a b 1\nC2 b 0 1\n") in
        (* only b is a leaf *)
        match Rctree.Tree.outputs tree with
        | [ (label, _) ] -> check_string "leaf" "b" label
        | other -> Alcotest.failf "expected 1 output, got %d" (List.length other));
    Alcotest.test_case "parallel capacitors add" `Quick (fun () ->
        let tree = elab_ok (parse_ok "V1 in 0\nR1 in a 1\nC1 a 0 1\nC2 a 0 2\n.output a\n") in
        let a = Option.get (Rctree.Tree.find_node tree "a") in
        check_close "c" 3. (Rctree.Tree.capacitance tree a));
    Alcotest.test_case "no source detected" `Quick (fun () ->
        check_bool "err" true (elab_err (parse_ok "R1 in a 1\nC1 a 0 1\n") = Spice.Elaborate.No_source));
    Alcotest.test_case "multiple sources detected" `Quick (fun () ->
        match elab_err (parse_ok "V1 in 0\nV2 other 0\nR1 in a 1\nC1 a 0 1\n") with
        | Spice.Elaborate.Multiple_sources names -> check_int "two" 2 (List.length names)
        | _ -> Alcotest.fail "wrong error");
    Alcotest.test_case "floating source detected" `Quick (fun () ->
        check_bool "err" true
          (elab_err (parse_ok "V1 in out\nR1 in a 1\nC1 a 0 1\n")
          = Spice.Elaborate.Source_not_grounded "1"));
    Alcotest.test_case "grounded resistor detected" `Quick (fun () ->
        check_bool "err" true
          (elab_err (parse_ok "V1 in 0\nR1 in 0 10\n") = Spice.Elaborate.Element_to_ground "1"));
    Alcotest.test_case "floating capacitor detected" `Quick (fun () ->
        check_bool "err" true
          (elab_err (parse_ok "V1 in 0\nR1 in a 1\nC1 a b 1\n")
          = Spice.Elaborate.Capacitor_not_grounded "1"));
    Alcotest.test_case "cycle detected" `Quick (fun () ->
        match elab_err (parse_ok "V1 in 0\nR1 in a 1\nR2 a b 1\nR3 b in 1\nC1 b 0 1\n") with
        | Spice.Elaborate.Cycle _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Spice.Elaborate.error_to_string e));
    Alcotest.test_case "disconnected island detected" `Quick (fun () ->
        match elab_err (parse_ok "V1 in 0\nR1 in a 1\nC1 a 0 1\nR9 x y 1\nC9 y 0 1\n") with
        | Spice.Elaborate.Disconnected nodes ->
            Alcotest.(check (list string)) "nodes" [ "x"; "y" ] nodes
        | e -> Alcotest.failf "wrong error: %s" (Spice.Elaborate.error_to_string e));
    Alcotest.test_case "unknown output detected" `Quick (fun () ->
        check_bool "err" true
          (elab_err (parse_ok "V1 in 0\nR1 in a 1\nC1 a 0 1\n.output zz\n")
          = Spice.Elaborate.Unknown_output "zz"));
    Alcotest.test_case "to_tree_exn raises with message" `Quick (fun () ->
        match Spice.Elaborate.to_tree_exn (parse_ok "R1 in a 1\n") with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument msg -> check_bool "has message" true (String.length msg > 0));
    Alcotest.test_case "negative or non-finite values in code-built decks" `Quick (fun () ->
        let source = Spice.Deck.Source { name = "in"; n1 = "in"; n2 = "0" } in
        let deck cards = Spice.Deck.make (source :: cards) in
        let r name value = Spice.Deck.Resistor { name; n1 = "in"; n2 = "a"; value } in
        let c name value = Spice.Deck.Capacitor { name; n1 = "a"; n2 = "0"; value } in
        let check what cards name =
          match Spice.Elaborate.to_tree (deck cards) with
          | Error (Spice.Elaborate.Bad_value n) -> check_string what name n
          | Error e -> Alcotest.failf "%s: wrong error %s" what (Spice.Elaborate.error_to_string e)
          | Ok _ -> Alcotest.failf "%s: accepted" what
        in
        check "negative resistor" [ r "1" (-5.) ] "1";
        check "nan capacitor" [ r "1" 5.; c "2" Float.nan ] "2";
        check "capacitors summing to zero" [ r "1" 5.; c "1" 1e-12; c "2" (-1e-12) ] "2";
        let line =
          Spice.Deck.Line { name = "9"; n1 = "in"; n2 = "a"; resistance = 1.; capacitance = infinity }
        in
        check "infinite line" [ line ] "9";
        check_bool "message" true
          (String.length (Spice.Elaborate.error_to_string (Spice.Elaborate.Bad_value "1")) > 0));
    Alcotest.test_case "source and shape errors outrank value errors" `Quick (fun () ->
        let neg = Spice.Deck.Resistor { name = "1"; n1 = "in"; n2 = "a"; value = -1. } in
        check_bool "no source" true
          (elab_err (Spice.Deck.make [ neg ]) = Spice.Elaborate.No_source);
        let grounded = Spice.Deck.Resistor { name = "2"; n1 = "a"; n2 = "0"; value = 1. } in
        let src = Spice.Deck.Source { name = "s"; n1 = "in"; n2 = "0" } in
        check_bool "first card wins" true
          (elab_err (Spice.Deck.make [ src; grounded; neg ])
          = Spice.Elaborate.Element_to_ground "2"));
  ]

let occurrences hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i acc =
    if i + nl > hl then acc else go (i + 1) (if String.sub hay i nl = needle then acc + 1 else acc)
  in
  go 0 0

let write path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

(* a fresh directory, removed with its files afterwards *)
let with_dir f =
  let dir = Filename.temp_file "spice" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let include_tests =
  [
    Alcotest.test_case "include splices cards and outputs" `Quick (fun () ->
        let dir = Filename.temp_file "spice" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        write (Filename.concat dir "branch.sp") "R2 a b 8\nC2 b 0 7\n.output b\n";
        write (Filename.concat dir "main.sp")
          "VIN in 0\nR1 in a 15\nC1 a 0 2\n.include branch.sp\nU1 a e 3 4\nC3 e 0 9\n.output e\n";
        (match Spice.Parser.parse_file (Filename.concat dir "main.sp") with
        | Error e -> Alcotest.failf "parse: %s" (Spice.Parser.error_to_string e)
        | Ok deck ->
            check_int "cards" 7 (List.length deck.Spice.Deck.cards);
            Alcotest.(check (list string)) "outputs" [ "b"; "e" ] deck.Spice.Deck.outputs;
            let tree = elab_ok deck in
            let out = Rctree.Tree.output_named tree "e" in
            check_close "td" 363. (Rctree.Moments.elmore tree ~output:out));
        Sys.remove (Filename.concat dir "branch.sp");
        Sys.remove (Filename.concat dir "main.sp");
        Unix.rmdir dir);
    Alcotest.test_case "missing include reported with the path" `Quick (fun () ->
        let path = Filename.temp_file "spice" ".sp" in
        write path "VIN in 0\n.include nonexistent.sp\n";
        (match Spice.Parser.parse_file path with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error e ->
            check_int "line" 2 e.Spice.Parser.line;
            check_bool "names file" true
              (let msg = e.Spice.Parser.message in
               let rec has i =
                 i + 11 <= String.length msg && (String.sub msg i 11 = "nonexistent" || has (i + 1))
               in
               has 0));
        Sys.remove path);
    Alcotest.test_case "include depth capped" `Quick (fun () ->
        let path = Filename.temp_file "spice" ".sp" in
        write path (Printf.sprintf ".include %s\n" (Filename.basename path));
        (match Spice.Parser.parse_file ~max_include_depth:4 path with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error _ -> ());
        Sys.remove path);
    Alcotest.test_case "include rejected without a base directory" `Quick (fun () ->
        match Spice.Parser.parse_string "VIN in 0\n.include x.sp\n" with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error e -> check_int "line" 2 e.Spice.Parser.line);
    Alcotest.test_case "bad value pinpoints line and column" `Quick (fun () ->
        let e = parse_err "VIN in 0\nR1 in a bogus\n" in
        check_int "line" 2 e.Spice.Parser.line;
        check_int "column" 9 e.Spice.Parser.column;
        check_bool "rendered" true
          (e.Spice.Parser.message <> ""
          && String.length (Spice.Parser.error_to_string e) > 0));
    Alcotest.test_case "unknown card pinpoints the head token" `Quick (fun () ->
        let e = parse_err "VIN in 0\nX1 a b 1\n" in
        check_int "line" 2 e.Spice.Parser.line;
        check_int "column" 1 e.Spice.Parser.column);
    Alcotest.test_case "card-shape errors carry column 0 or the head" `Quick (fun () ->
        let e = parse_err "VIN in 0\nR1 in a\n" in
        check_int "line" 2 e.Spice.Parser.line;
        check_int "column" 1 e.Spice.Parser.column);
    Alcotest.test_case "self-include reported once as a cycle" `Quick (fun () ->
        let path = Filename.temp_file "spice" ".sp" in
        let base = Filename.basename path in
        write path (Printf.sprintf "VIN in 0\n.include %s\n" base);
        (match Spice.Parser.parse_file path with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error e ->
            check_int "line" 2 e.Spice.Parser.line;
            check_int "column" 10 e.Spice.Parser.column;
            let msg = Spice.Parser.error_to_string e in
            check_bool "cycle" true (occurrences msg ".include cycle" = 1);
            check_bool "no nesting" true (occurrences msg "in included file" = 0);
            check_bool "chain" true (occurrences msg (base ^ " -> " ^ base) = 1));
        Sys.remove path);
    Alcotest.test_case "two-file include cycle names the chain" `Quick (fun () ->
        with_dir (fun dir ->
            write (Filename.concat dir "a.sp") "VIN in 0\n.include b.sp\n";
            write (Filename.concat dir "b.sp") "R1 in a 1\n.include ./a.sp\n";
            match Spice.Parser.parse_file (Filename.concat dir "a.sp") with
            | Ok _ -> Alcotest.fail "expected an error"
            | Error e ->
                let msg = Spice.Parser.error_to_string e in
                check_int "line" 2 e.Spice.Parser.line;
                check_bool "nested once" true (occurrences msg "in included file" = 1);
                check_bool "chain" true (occurrences msg "a.sp -> b.sp -> ./a.sp" = 1)));
    Alcotest.test_case "long include chains still hit the depth cap" `Quick (fun () ->
        with_dir (fun dir ->
            for k = 0 to 5 do
              write
                (Filename.concat dir (Printf.sprintf "f%d.sp" k))
                (Printf.sprintf "R%d n%d n%d 1\n.include f%d.sp\n" k k (k + 1) (k + 1))
            done;
            write (Filename.concat dir "f6.sp") "C1 n6 0 1\n";
            (match Spice.Parser.parse_file ~max_include_depth:4 (Filename.concat dir "f0.sp") with
            | Ok _ -> Alcotest.fail "expected the depth cap"
            | Error e ->
                let msg = Spice.Parser.error_to_string e in
                check_bool "too deep" true (occurrences msg "nested too deeply" = 1);
                check_bool "no cycle" true (occurrences msg "cycle" = 0));
            match Spice.Parser.parse_file (Filename.concat dir "f0.sp") with
            | Ok deck -> check_int "all cards" 7 (List.length deck.Spice.Deck.cards)
            | Error e -> Alcotest.failf "default depth: %s" (Spice.Parser.error_to_string e)));
    Alcotest.test_case "a file included twice side by side is no cycle" `Quick (fun () ->
        with_dir (fun dir ->
            write (Filename.concat dir "cap.sp") "C1 a 0 1\n";
            write (Filename.concat dir "main.sp")
              "VIN in 0\nR1 in a 1\n.include cap.sp\n.include cap.sp\n";
            match Spice.Parser.parse_file (Filename.concat dir "main.sp") with
            | Ok deck -> check_int "cards" 4 (List.length deck.Spice.Deck.cards)
            | Error e -> Alcotest.failf "parse: %s" (Spice.Parser.error_to_string e)));
  ]

let printer_tests =
  [
    Alcotest.test_case "round-trip preserves moments" `Quick (fun () ->
        let tree = elab_ok (parse_ok fig7_text) in
        let text = Spice.Printer.to_string tree in
        let tree2 = elab_ok (parse_ok text) in
        let out = Rctree.Tree.output_named tree2 "e" in
        let ts = Rctree.Moments.times tree2 ~output:out in
        check_close "tp" 419. ts.Rctree.Times.t_p;
        check_close "td" 363. ts.Rctree.Times.t_d);
    Alcotest.test_case "deck_of_tree emits all elements" `Quick (fun () ->
        let tree = elab_ok (parse_ok fig7_text) in
        let deck = Spice.Printer.deck_of_tree tree in
        (* 1 source + 2 R + 1 U + 3 C *)
        check_int "cards" 7 (List.length deck.Spice.Deck.cards));
    Alcotest.test_case "outputs preserved" `Quick (fun () ->
        let tree = elab_ok (parse_ok fig7_text) in
        let deck = Spice.Printer.deck_of_tree tree in
        Alcotest.(check (list string)) "outputs" [ "e" ] deck.Spice.Deck.outputs);
    Alcotest.test_case "deck pp parses back to equal cards" `Quick (fun () ->
        let deck = Spice.Printer.deck_of_tree (elab_ok (parse_ok fig7_text)) in
        let text = Format.asprintf "%a@." Spice.Deck.pp deck in
        let deck2 = parse_ok text in
        check_bool "equal" true (Spice.Deck.equal deck deck2));
    Alcotest.test_case "write_file and parse_file" `Quick (fun () ->
        let tree = elab_ok (parse_ok fig7_text) in
        let path = Filename.temp_file "rctree" ".sp" in
        Spice.Printer.write_file path tree;
        (match Spice.Parser.parse_file path with
        | Ok deck -> check_bool "elaborates" true (Result.is_ok (Spice.Elaborate.to_tree deck))
        | Error e -> Alcotest.failf "parse_file: %s" (Spice.Parser.error_to_string e));
        Sys.remove path);
  ]

(* --- the front end against the reference front end (test/ref_frontend.ml) *)

let bits = Int64.bits_of_float

let same_element a b =
  match (a, b) with
  | None, None -> true
  | Some (Rctree.Element.Resistor x), Some (Rctree.Element.Resistor y)
  | Some (Rctree.Element.Capacitor x), Some (Rctree.Element.Capacitor y) ->
      bits x = bits y
  | Some (Rctree.Element.Line a), Some (Rctree.Element.Line b) ->
      bits a.resistance = bits b.resistance && bits a.capacitance = bits b.capacitance
  | _ -> false

(* ids, parents, child order, names, bit-equal elements and caps, outputs *)
let same_tree a b =
  let open Rctree.Tree in
  name a = name b
  && node_count a = node_count b
  && outputs a = outputs b
  && List.for_all
       (fun id ->
         parent a id = parent b id
         && children a id = children b id
         && node_name a id = node_name b id
         && same_element (element a id) (element b id)
         && bits (capacitance a id) = bits (capacitance b id))
       (List.init (node_count a) Fun.id)

(* a printed tree with its cards shuffled, edge terminals swapped, legal
   noise added and, one time in three, one mutation applied *)
let gen_deck_text =
  QCheck.Gen.(
    let* tree =
      oneof
        [
          Check.Gen.gen_tree;
          map
            (fun seed ->
              (Check.Gen.case ~max_nodes:40 (Random.State.make [| seed |])).Check.Case.tree)
            int;
        ]
    in
    let* seed = int in
    let st = Random.State.make [| seed |] in
    let deck = Spice.Printer.deck_of_tree tree in
    let cards = Array.of_list deck.Spice.Deck.cards in
    for i = Array.length cards - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let c = cards.(i) in
      cards.(i) <- cards.(j);
      cards.(j) <- c
    done;
    let swap (c : Spice.Deck.card) =
      if Random.State.bool st then c
      else
        match c with
        | Resistor r -> Resistor { r with n1 = r.n2; n2 = r.n1 }
        | Capacitor r -> Capacitor { r with n1 = r.n2; n2 = r.n1 }
        | Line r -> Line { r with n1 = r.n2; n2 = r.n1 }
        | Source r -> Source { r with n1 = r.n2; n2 = r.n1 }
    in
    let deck = { deck with cards = Array.to_list (Array.map swap cards) } in
    let text = Format.asprintf "%a@." Spice.Deck.pp deck in
    let mutation =
      if Random.State.int st 3 > 0 then None
      else
        let all = Check.Gen.mutations in
        Some (List.nth all (Random.State.int st (List.length all)))
    in
    let text = match mutation with None -> text | Some m -> Check.Gen.mutate_deck st m text in
    return (mutation, Check.Gen.decorate_deck st text))

let arb_deck_text =
  QCheck.make gen_deck_text ~print:(fun (m, text) ->
      let header m = "* mutation: " ^ Check.Gen.mutation_name m ^ "\n" in
      Option.fold ~none:"" ~some:header m ^ text)

let same_elaboration deck =
  match (Spice.Elaborate.to_tree deck, Ref_frontend.Elaborate.to_tree deck) with
  | Ok a, Ok b -> same_tree a b
  | Error e, Error e' -> e = e'
  | Ok _, Error e ->
      QCheck.Test.fail_reportf "reference rejects (%s)" (Spice.Elaborate.error_to_string e)
  | Error e, Ok _ ->
      QCheck.Test.fail_reportf "front end rejects (%s)" (Spice.Elaborate.error_to_string e)

let reference_props =
  [
    QCheck.Test.make ~count:600 ~name:"front end = reference on printed, shuffled, mutated decks"
      arb_deck_text (fun (mutation, text) ->
        match (Spice.Parser.parse_string text, Ref_frontend.Parser.parse_string text) with
        | mine, Ok d' when mutation = Some Check.Gen.Negative_value ->
            (* the reference parser lets a negative value through, so its
               deck must fail elaboration the same way in both; the parser
               rejects the value at its token, or takes the line for the
               title when it is the first one (as it does any bad card) *)
            same_elaboration d'
            && Result.is_error (Spice.Elaborate.to_tree d')
            && (match mine with
               | Error e -> String.starts_with ~prefix:"negative " e.Spice.Parser.message
               | Ok d -> d.Spice.Deck.title <> d'.Spice.Deck.title)
        | Ok d, Ok d' -> Spice.Deck.equal d d' && same_elaboration d
        | Error e, Error e' -> e.Spice.Parser.line = e'.line && e.message = e'.message
        | Error e, Ok _ ->
            QCheck.Test.fail_reportf "front end rejects: %s" (Spice.Parser.error_to_string e)
        | Ok _, Error e ->
            QCheck.Test.fail_reportf "reference rejects: %s" (Spice.Parser.error_to_string e));
  ]

let reference_tests =
  [
    Alcotest.test_case "zero-resistance lines fold into their parent as before" `Quick (fun () ->
        let deck =
          parse_ok
            "VIN in 0\nR1 in a 1\nU1 a b 0 2\nC1 b 0 3\nR2 b c 4\nU2 c d 0 5\nR3 d e 6\n\
             C2 e 0 7\nC3 a 0 1\n"
        in
        match (Spice.Elaborate.to_tree deck, Ref_frontend.Elaborate.to_tree deck) with
        | Ok a, Ok b ->
            check_int "merged nodes" 4 (Rctree.Tree.node_count a);
            check_bool "identical" true (same_tree a b)
        | _ -> Alcotest.fail "elaboration failed");
  ]

let () =
  Alcotest.run "spice"
    [
      ("parser", parser_tests);
      ("elaborate", elaborate_tests);
      ("include", include_tests);
      ("printer", printer_tests);
      ("reference", reference_tests @ List.map QCheck_alcotest.to_alcotest reference_props);
    ]
