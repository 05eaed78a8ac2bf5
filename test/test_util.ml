(* Tests of the shared table rendering used by the bench harness. *)

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* the list-of-rows renderer that the byte-buffer table replaced, kept
   as the reference for its output *)
let reference_render columns rows =
  let all = columns :: rows in
  let widths =
    List.mapi
      (fun j _ -> List.fold_left (fun acc row -> max acc (String.length (List.nth row j))) 0 all)
      columns
  in
  let numeric cell =
    cell <> ""
    && String.for_all (function '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true | _ -> false) cell
  in
  let line row =
    String.concat "  "
      (List.map2
         (fun w cell -> if numeric cell then Printf.sprintf "%*s" w cell else Printf.sprintf "%-*s" w cell)
         widths row)
  in
  let rule = String.concat "--" (List.map (fun w -> String.make w '-') widths) in
  String.concat "" (List.map (fun l -> l ^ "\n") ((line columns :: rule :: List.map line rows)))

let reference_csv columns rows =
  let cell c =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') c then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' c) ^ "\""
    else c
  in
  String.concat "\n" (List.map (fun row -> String.concat "," (List.map cell row)) (columns :: rows))
  ^ "\n"

let arb_table =
  let open QCheck.Gen in
  let cell = oneofl [ ""; "0"; "42"; "-1.5e-3"; "+7"; "e"; "abc"; "n12"; "wide text cell"; "x,y"; "q\"t"; "12.5ns" ] in
  QCheck.make
    (let* ncols = int_range 1 5 in
     let* columns = list_repeat ncols cell in
     let* rows = list_size (int_range 0 30) (list_repeat ncols cell) in
     return (columns, rows))
    ~print:(fun (columns, rows) ->
      String.concat "\n" (List.map (String.concat " | ") (columns :: rows)))

let table_tests =
  let open Reprolib.Table in
  [
    Alcotest.test_case "header and rule" `Quick (fun () ->
        let t = create ~columns:[ "a"; "b" ] in
        add_row t [ "1"; "2" ];
        let s = render t in
        check_bool "header" true (contains s "a");
        check_bool "rule" true (contains s "--"));
    Alcotest.test_case "columns sized to widest cell" `Quick (fun () ->
        let t = create ~columns:[ "x" ] in
        add_row t [ "wide-cell" ];
        let lines = String.split_on_char '\n' (render t) in
        (match lines with
        | header :: _ -> check_bool "padded" true (String.length header >= 9)
        | [] -> Alcotest.fail "no output"));
    Alcotest.test_case "numeric cells right-aligned" `Quick (fun () ->
        let t = create ~columns:[ "name"; "value" ] in
        add_row t [ "aa"; "5" ];
        let s = render t in
        check_bool "right aligned" true (contains s "    5"));
    Alcotest.test_case "text cells left-aligned" `Quick (fun () ->
        let t = create ~columns:[ "name4" ] in
        add_row t [ "ab" ];
        let lines = String.split_on_char '\n' (render t) in
        check_string "padded right" "ab   " (List.nth lines 2));
    Alcotest.test_case "row order preserved" `Quick (fun () ->
        let t = create ~columns:[ "v" ] in
        add_row t [ "first" ];
        add_row t [ "second" ];
        let s = render t in
        let first = String.index s 'f' and second = String.index s 's' in
        check_bool "order" true (first < second));
    Alcotest.test_case "add_float_row formats" `Quick (fun () ->
        let t = create ~columns:[ "label"; "x"; "y" ] in
        add_float_row t "row" [ 1.5; 2.25 ];
        check_bool "value" true (contains (render t) "2.25"));
    Alcotest.test_case "width mismatch raises" `Quick (fun () ->
        let t = create ~columns:[ "a"; "b" ] in
        check_invalid "row" (fun () -> add_row t [ "only-one" ]));
    Alcotest.test_case "empty columns raises" `Quick (fun () ->
        check_invalid "cols" (fun () -> create ~columns:[]));
    Alcotest.test_case "csv output" `Quick (fun () ->
        let t = create ~columns:[ "a"; "b" ] in
        add_row t [ "1"; "2" ];
        check_string "csv" "a,b\n1,2\n" (render_csv t));
    Alcotest.test_case "csv quoting" `Quick (fun () ->
        let t = create ~columns:[ "a" ] in
        add_row t [ "x,y" ];
        check_bool "quoted" true (contains (render_csv t) "\"x,y\""));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"render and render_csv match the list reference"
         arb_table (fun (columns, rows) ->
           let t = create ~columns in
           List.iter (add_row t) rows;
           render t = reference_render columns rows && render_csv t = reference_csv columns rows));
  ]

let () = Alcotest.run "util" [ ("table", table_tests) ]
