(* End-to-end tests of the rcdelay command-line interface, run
   in-process with stdout captured to a file. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* run the CLI with stdout and stderr redirected to temporary files;
   return (code, stdout, stderr) *)
let run_split args =
  let argv = Array.of_list ("rcdelay" :: args) in
  let out_path = Filename.temp_file "cli" ".out" and err_path = Filename.temp_file "cli" ".err" in
  let out_fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let err_fd = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  flush stderr;
  let saved_out = Unix.dup Unix.stdout and saved_err = Unix.dup Unix.stderr in
  Unix.dup2 out_fd Unix.stdout;
  Unix.dup2 err_fd Unix.stderr;
  let restore () =
    flush stdout;
    flush stderr;
    Unix.dup2 saved_out Unix.stdout;
    Unix.dup2 saved_err Unix.stderr;
    List.iter Unix.close [ saved_out; saved_err; out_fd; err_fd ]
  in
  let code = try Cli.run argv with e -> restore (); raise e in
  restore ();
  let slurp path =
    let text = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    text
  in
  let out = slurp out_path in
  (code, out, slurp err_path)

(* the same, with stderr after stdout in one string *)
let run args =
  let code, out, err = run_split args in
  (code, out ^ err)

let with_fig7_deck f =
  let path = Filename.temp_file "fig7" ".sp" in
  let oc = open_out path in
  output_string oc
    "VIN in 0\nR1 in a 15\nC1 a 0 2\nR2 a b 8\nC2 b 0 7\nU1 a e 3 4\nC3 e 0 9\n.output e\n.end\n";
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_netlist f =
  let path = Filename.temp_file "slice" ".net" in
  let oc = open_out path in
  output_string oc
    "cell buf4 u1\ncell inv1 u2\ninput in1 loads=u1/a\nnet n1 driver=u1/y wire=line:1k,0.1p \
     loads=u2/a\nnet out driver=u2/y loads=\noutput out\n";
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* a what-if edits file: comment, blank and padded lines among the
   queries *)
let with_edits_file text f =
  let path = Filename.temp_file "queries" ".edits" in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let sweep_edits =
  "# what-if queries on fig7\n\nreplace leaf:2 6 8\n   # an indented comment\n\
  \  scale-c leaf:0 2 ; buffer root 5 1  \n\t\ngraft root 1 2\nprune leaf:1\n"

(* --edit specs come first, then the file's queries *)
let sweep_args deck edits =
  [ "sweep"; deck; "-e"; "scale-r root 2"; "-e"; "replace leaf:0 10 1"; "--edits-file"; edits ]

(* stdout of the sweep above, as printed before the CLI answered each
   query as it was read *)
let sweep_table_golden =
  String.concat "\n"
    [
      "output e, threshold 0.5";
      "edits                               t_min   t_max   T_De";
      "--------------------------------------------------------";
      "(base)                              184.2s  314.1s  363s";
      "scale-r root 2                      368.5s  628.3s  726s";
      "replace leaf:0 10 1                 114.1s  240.3s  258s";
      "replace leaf:2 6 8                  245.9s  424.1s  483s";
      "scale-c leaf:0 2 ; buffer root 5 1  259.2s  399.9s  478s";
      "graft root 1 2                      198.7s  358.8s  400s";
      "prune leaf:1                        166.8s  288s    333s";
      "";
    ]

let sweep_json_golden deck =
  "{\"deck\":\"" ^ deck
  ^ "\",\"output\":\"e\",\"threshold\":0.5,\"base\":{\"t_p\":419,\"t_d\":363,\"t_r\":335.16666666666669,\"t_min\":184.23410997487431,\"t_max\":314.14887409754715},\"queries\":["
  ^ String.concat ","
      [
        "{\"edits\":\"scale-r root 2\",\"t_p\":838,\"t_d\":726,\"t_r\":670.33333333333337,\"t_min\":368.46821994974863,\"t_max\":628.2977481950943}";
        "{\"edits\":\"replace leaf:0 10 1\",\"t_p\":314,\"t_d\":258,\"t_r\":229.71794871794873,\"t_min\":114.10407054351998,\"t_max\":240.25017806807043}";
        "{\"edits\":\"replace leaf:2 6 8\",\"t_p\":549,\"t_d\":483,\"t_r\":435.16666666666669,\"t_min\":245.89762339125002,\"t_max\":424.0542339272734}";
        "{\"edits\":\"scale-c leaf:0 2 ; buffer root 5 1\",\"t_p\":534,\"t_d\":478,\"t_r\":445.13043478260869,\"t_min\":259.22708324112051,\"t_max\":399.85091278209558}";
        "{\"edits\":\"graft root 1 2\",\"t_p\":456,\"t_d\":400,\"t_r\":353.56140350877195,\"t_min\":198.74355364119853,\"t_max\":358.76482316924285}";
        "{\"edits\":\"prune leaf:1\",\"t_p\":389,\"t_d\":333,\"t_r\":310.16666666666669,\"t_min\":166.77981973362262,\"t_max\":288.00265050596909}";
      ]
  ^ "]}\n"

(* a library's "Module.fn:" prefix leaking into a message *)
let leaks_internals msg =
  List.exists (contains msg) [ "Incremental"; "Twoport."; "Times.make"; "Expr."; "exception" ]

let tests =
  [
    Alcotest.test_case "fig10 prints the paper tables" `Quick (fun () ->
        let code, out = run [ "fig10" ] in
        check_int "exit" 0 code;
        check_bool "tmax row" true (contains out "68.167");
        check_bool "vmax row" true (contains out "0.18138"));
    Alcotest.test_case "times on a deck" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "times"; deck ] in
            check_int "exit" 0 code;
            check_bool "t_p" true (contains out "419");
            check_bool "t_d" true (contains out "363")));
    Alcotest.test_case "bounds with thresholds" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "bounds"; deck; "-v"; "0.5" ] in
            check_int "exit" 0 code;
            check_bool "tmin" true (contains out "184.2");
            check_bool "tmax" true (contains out "314.1")));
    Alcotest.test_case "voltage at times" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "voltage"; deck; "-t"; "100" ] in
            check_int "exit" 0 code;
            check_bool "vmin" true (contains out "0.16644")));
    Alcotest.test_case "certify exit codes" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let pass, out_pass = run [ "certify"; deck; "-v"; "0.5"; "--deadline"; "320" ] in
            check_int "pass" 0 pass;
            check_bool "verdict" true (contains out_pass "pass");
            let fail, out_fail = run [ "certify"; deck; "-v"; "0.5"; "--deadline"; "100" ] in
            check_int "fail" 1 fail;
            check_bool "verdict" true (contains out_fail "fail")));
    Alcotest.test_case "simulate emits csv" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "simulate"; deck; "--t-end"; "600"; "--samples"; "4" ] in
            check_int "exit" 0 code;
            check_bool "header" true (contains out "t,e");
            check_int "rows" 5 (List.length (String.split_on_char '\n' (String.trim out)))));
    Alcotest.test_case "pla sweep" `Quick (fun () ->
        let code, out = run [ "pla"; "--minterms"; "2,100" ] in
        check_int "exit" 0 code;
        check_bool "100 row" true (contains out "100"));
    Alcotest.test_case "ramp widens the window" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "ramp"; deck; "--rise"; "200"; "-v"; "0.5" ] in
            check_int "exit" 0 code;
            check_bool "both windows" true (contains out "step window" && contains out "289.2")));
    Alcotest.test_case "moments and model" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "moments"; deck ] in
            check_int "exit" 0 code;
            check_bool "m1" true (contains out "363");
            check_bool "model" true (contains out "pole")));
    Alcotest.test_case "ac bandwidth" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "ac"; deck; "--points"; "3" ] in
            check_int "exit" 0 code;
            check_bool "f3db" true (contains out "f_3dB")));
    Alcotest.test_case "sta on a netlist file" `Quick (fun () ->
        with_netlist (fun net ->
            let code, out = run [ "sta"; net; "--period"; "10e-9" ] in
            check_int "exit" 0 code;
            check_bool "report" true (contains out "Penfield-Rubinstein");
            check_bool "pass" true (contains out "PASS")));
    Alcotest.test_case "sta elmore mode" `Quick (fun () ->
        with_netlist (fun net ->
            let code, out = run [ "sta"; net; "--elmore" ] in
            check_int "exit" 0 code;
            check_bool "mode" true (contains out "Elmore")));
    Alcotest.test_case "adder demo" `Quick (fun () ->
        let code, out = run [ "adder"; "--bits"; "4"; "--period"; "30e-9" ] in
        check_int "exit" 0 code;
        check_bool "gates" true (contains out "36 nand2");
        check_bool "period" true (contains out "minimum certified period"));
    Alcotest.test_case "sta hold check" `Quick (fun () ->
        with_netlist (fun net ->
            let code, out = run [ "sta"; net; "--hold"; "1e-12" ] in
            check_int "exit" 0 code;
            check_bool "hold" true (contains out "hold check")));
    Alcotest.test_case "bad deck reports and exits 2" `Quick (fun () ->
        let path = Filename.temp_file "bad" ".sp" in
        let oc = open_out path in
        output_string oc "R1 in a 1\nC1 a 0 1\n";
        close_out oc;
        let code, out = run [ "times"; path ] in
        Sys.remove path;
        check_int "exit" 2 code;
        check_bool "message" true (contains out "source"));
    Alcotest.test_case "unparsable deck exits 2 with position" `Quick (fun () ->
        let path = Filename.temp_file "bad" ".sp" in
        let oc = open_out path in
        output_string oc "* title\nVIN in 0\nR1 in a bogus\n.output a\n.end\n";
        close_out oc;
        let code, out = run [ "bounds"; path ] in
        Sys.remove path;
        check_int "exit" 2 code;
        check_bool "line" true (contains out "line 3");
        check_bool "column" true (contains out "column"));
    Alcotest.test_case "jobs flag accepted, output unchanged" `Quick (fun () ->
        (* only selfcheck takes --jobs; its summary counts are the same at
           any domain count (the timings are not) *)
        let selfcheck jobs =
          let code, out = run [ "selfcheck"; "--cases"; "12"; "--seed"; "3"; "--jobs"; jobs ] in
          let summary =
            List.find (String.starts_with ~prefix:"selfcheck:") (String.split_on_char '\n' out)
          in
          (code, List.hd (String.split_on_char '(' summary))
        in
        let code1, out1 = selfcheck "1" in
        let code2, out2 = selfcheck "2" in
        check_int "exit -j1" 0 code1;
        check_int "exit -j2" 0 code2;
        check_bool "same output" true (out1 = out2));
    Alcotest.test_case "jobs flag validated" `Quick (fun () ->
        let code, out = run [ "selfcheck"; "--cases"; "1"; "--jobs"; "0" ] in
        check_int "exit" 2 code;
        check_bool "message" true (contains out "--jobs");
        (* the analyses are serial and no longer take the flag *)
        with_fig7_deck (fun deck ->
            let code, _ = run [ "times"; deck; "--jobs"; "2" ] in
            check_bool "times rejects --jobs" true (code <> 0)));
    Alcotest.test_case "unknown subcommand fails" `Quick (fun () ->
        let code, _ = run [ "frobnicate" ] in
        check_bool "nonzero" true (code <> 0));
    Alcotest.test_case "transient: all three solvers emit the same CSV" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let base = [ "transient"; deck; "--t-end"; "200"; "--samples"; "9" ] in
            let code_d, out_d = run base in
            let code_c, out_c = run (base @ [ "--solver"; "cg" ]) in
            let code_l, out_l = run (base @ [ "--solver"; "dense" ]) in
            check_int "direct exit" 0 code_d;
            check_int "cg exit" 0 code_c;
            check_int "dense exit" 0 code_l;
            check_bool "header" true (contains out_d "t,e");
            (* %.6g formatting absorbs solver roundoff: byte-identical *)
            check_bool "direct = cg" true (out_d = out_c);
            check_bool "direct = dense" true (out_d = out_l)));
    Alcotest.test_case "transient: backward Euler accepted" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out =
              run [ "transient"; deck; "--t-end"; "200"; "--integration"; "be"; "--samples"; "3" ]
            in
            check_int "exit" 0 code;
            check_bool "rows" true (contains out "t,e")));
    Alcotest.test_case "transient: bad solver or integration exits 2" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code_s, out_s = run [ "transient"; deck; "--t-end"; "200"; "--solver"; "qr" ] in
            check_int "solver exit" 2 code_s;
            check_bool "solver message" true (contains out_s "unknown solver");
            let code_i, _ = run [ "transient"; deck; "--t-end"; "200"; "--integration"; "rk4" ] in
            check_int "integration exit" 2 code_i;
            let code_t, _ = run [ "transient"; deck; "--t-end=-1" ] in
            check_int "t-end exit" 2 code_t));
    Alcotest.test_case "selfcheck: clean run exits 0" `Quick (fun () ->
        let code, out = run [ "selfcheck"; "--cases"; "15"; "--seed"; "42" ] in
        check_int "exit" 0 code;
        check_bool "summary" true (contains out "selfcheck: 15 cases, 0 failures (seed 42"));
    Alcotest.test_case "selfcheck: seed reproduces the reported case count" `Quick (fun () ->
        let _, out1 = run [ "selfcheck"; "--cases"; "25"; "--seed"; "7" ] in
        let _, out2 = run [ "selfcheck"; "--cases"; "25"; "--seed"; "7" ] in
        let summary = "selfcheck: 25 cases, 0 failures (seed 7" in
        check_bool "first" true (contains out1 summary);
        check_bool "second" true (contains out2 summary));
    Alcotest.test_case "selfcheck: property filter narrows the table" `Quick (fun () ->
        let code, out = run [ "selfcheck"; "--cases"; "10"; "--props"; "envelope,crossing" ] in
        check_int "exit" 0 code;
        check_bool "selected" true (contains out "envelope");
        check_bool "not selected" false (contains out "moments-agree"));
    Alcotest.test_case "selfcheck: injected fault exits 1 and persists a deck" `Quick (fun () ->
        let dir = Filename.temp_dir "rcdelay-cli-corpus" "" in
        let code, out =
          run
            [
              "selfcheck"; "--cases"; "40"; "--seed"; "11"; "--inject"; "drop-vmax-exp";
              "--corpus"; dir;
            ]
        in
        check_int "exit" 1 code;
        check_bool "counterexample reported" true (contains out "counterexample");
        check_bool "persisted path printed" true (contains out "persisted:");
        let decks =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".sp")
        in
        check_bool "deck on disk" true (decks <> []));
    Alcotest.test_case "selfcheck: bad arguments exit 2" `Quick (fun () ->
        List.iter
          (fun args ->
            let code, _ = run ("selfcheck" :: args) in
            check_int (String.concat " " args) 2 code)
          [
            [ "--budget=-3" ];
            [ "--cases"; "0" ];
            [ "--inject"; "bogus" ];
            [ "--props"; "envelope,bogus" ];
          ]);
    Alcotest.test_case "negative values exit 2 at their token" `Quick (fun () ->
        List.iter
          (fun (deck, expected) ->
            let path = Filename.temp_file "neg" ".sp" in
            let oc = open_out path in
            output_string oc deck;
            close_out oc;
            let code, out = run [ "times"; path ] in
            Sys.remove path;
            check_int ("exit: " ^ expected) 2 code;
            check_bool ("message: " ^ expected) true (contains out expected))
          [
            ("VIN in 0\nR1 in a -5\n", "line 2, column 9: negative resistance value \"-5\"");
            ("VIN in 0\nR1 in a 5\nC1 a 0 -1p\n", "line 3, column 8: negative capacitance value");
            ("VIN in 0\nU1 in a 5 -1p\n", "line 2, column 11: negative capacitance value \"-1p\"");
            ( "VIN in 0\nR1 in a 5\nC1 a 0 1p\nC2 a 0 -1p\n",
              "line 4, column 8: negative capacitance value" );
          ]);
    Alcotest.test_case "self-including deck exits 2 with the cycle once" `Quick (fun () ->
        let path = Filename.temp_file "self" ".sp" in
        let oc = open_out path in
        Printf.fprintf oc "VIN in 0\n.include %s\n" (Filename.basename path);
        close_out oc;
        let code, out = run [ "times"; path ] in
        Sys.remove path;
        check_int "exit" 2 code;
        check_bool "cycle" true (contains out "line 2, column 10: .include cycle");
        check_bool "once" false (contains out "in included file"));
    Alcotest.test_case "stats: the metrics self-test exits 0" `Quick (fun () ->
        (* stats switches metrics on; put them back so later runs stay quiet *)
        let was = Obs.enabled () in
        let code, out =
          Fun.protect
            ~finally:(fun () ->
              Obs.reset ();
              Obs.set_enabled was)
            (fun () -> run [ "stats" ])
        in
        check_int "exit" 0 code;
        check_bool "all layers" true (contains out "self-test: all instrumented layers reported"));
    Alcotest.test_case "transient and simulate: bad flags exit 2 naming the flag" `Quick
      (fun () ->
        with_fig7_deck (fun deck ->
            List.iter
              (fun (args, flag) ->
                let code, out = run (args @ [ deck ]) in
                let what = String.concat " " args in
                check_int ("exit: " ^ what) 2 code;
                check_bool ("names " ^ flag ^ ": " ^ what) true (contains out flag);
                check_bool ("no nan row: " ^ what) false (contains out "nan"))
              [
                ([ "transient"; "--t-end"; "200"; "--samples=-3" ], "--samples");
                ([ "transient"; "--t-end"; "200"; "--samples"; "1" ], "--samples");
                ([ "transient"; "--t-end"; "200"; "--segments"; "0" ], "--segments");
                ([ "transient"; "--t-end"; "0" ], "--t-end");
                ([ "transient"; "--t-end"; "200"; "--dt"; "0" ], "--dt");
                ([ "transient"; "--t-end"; "200"; "--dt=-1" ], "--dt");
                ([ "simulate"; "--t-end"; "600"; "--samples=-3" ], "--samples");
                ([ "simulate"; "--t-end"; "600"; "--samples"; "1" ], "--samples");
                ([ "simulate"; "--t-end"; "600"; "--segments"; "0" ], "--segments");
                ([ "simulate"; "--t-end"; "0" ], "--t-end");
                ([ "simulate"; "--t-end=-5" ], "--t-end");
                ([ "moments"; "--segments"; "0" ], "--segments");
                ([ "moments"; "--order=-1" ], "--order");
                ([ "moments"; "--order"; "0" ], "--order");
                ([ "ac"; "--segments"; "0" ], "--segments");
              ]));
    Alcotest.test_case "bounds, certify, voltage, ramp, ac, sweep and pla: bad flags exit 2" `Quick
      (fun () ->
        with_fig7_deck (fun deck ->
            List.iter
              (fun (args, flag) ->
                let code, out = run (args @ [ deck ]) in
                let what = String.concat " " args in
                check_int ("exit: " ^ what) 2 code;
                check_bool ("names " ^ flag ^ ": " ^ what) true (contains out flag);
                check_bool ("no nan row: " ^ what) false (contains out "nan"))
              [
                ([ "ramp"; "--rise"; "0" ], "--rise");
                ([ "ramp"; "--rise"; "nan" ], "--rise");
                ([ "ramp"; "--rise"; "100"; "--threshold"; "2" ], "--threshold");
                ([ "bounds"; "--threshold"; "2" ], "--threshold");
                ([ "certify"; "--threshold"; "2"; "--deadline"; "100" ], "--threshold");
                ([ "certify"; "--deadline"; "nan" ], "--deadline");
                ([ "voltage"; "--time=-1" ], "--time");
                ([ "voltage"; "--time"; "nan" ], "--time");
                ([ "ac"; "--points"; "1" ], "--points");
                ([ "ac"; "--points"; "0" ], "--points");
                ([ "sweep"; "-e"; "scale-r root 2"; "--threshold"; "2" ], "--threshold");
              ]);
        List.iter
          (fun (args, flag) ->
            let code, out = run ("pla" :: args) in
            let what = String.concat " " args in
            check_int ("exit: pla " ^ what) 2 code;
            check_bool ("names " ^ flag ^ ": pla " ^ what) true (contains out flag))
          [ ([ "--minterms=-3" ], "--minterms"); ([ "--threshold"; "2" ], "--threshold") ]);
    Alcotest.test_case "simulate: one eigendecomposition per deck, not per output" `Quick
      (fun () ->
        let path = Filename.temp_file "outputs3" ".sp" in
        let oc = open_out path in
        output_string oc
          "VIN in 0\nR1 in a 15\nC1 a 0 2\nR2 a b 8\nC2 b 0 7\nU1 a e 3 4\nC3 e 0 9\n\
           .output e\n.output b\n.output a\n.end\n";
        close_out oc;
        let was = Obs.enabled () in
        Obs.reset ();
        let code, out, decompositions =
          Fun.protect
            ~finally:(fun () ->
              Sys.remove path;
              Obs.reset ();
              Obs.set_enabled was)
            (fun () ->
              let code, out = run [ "simulate"; path; "--t-end"; "600"; "--metrics" ] in
              (code, out, List.assoc_opt "eigen.decompositions" (Obs.counters ())))
        in
        check_int "exit" 0 code;
        check_bool "three columns" true (contains out "t,e,b,a");
        check_int "eigen.decompositions" 1 (Option.value decompositions ~default:0));
    Alcotest.test_case "sweep: table matches the golden, specs before file lines" `Quick
      (fun () ->
        with_fig7_deck (fun deck ->
            with_edits_file sweep_edits (fun edits ->
                let code, out, err = run_split (sweep_args deck edits) in
                check_int "exit" 0 code;
                Alcotest.(check string) "stdout" sweep_table_golden out;
                Alcotest.(check string) "stderr" "" err)));
    Alcotest.test_case "sweep: --json matches the golden and parses" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            with_edits_file sweep_edits (fun edits ->
                let code, out, _ = run_split (sweep_args deck edits @ [ "--json" ]) in
                check_int "exit" 0 code;
                Alcotest.(check string) "stdout" (sweep_json_golden deck) out;
                match Obs.Json.of_string out with
                | Error msg -> Alcotest.failf "invalid JSON: %s" msg
                | Ok v -> (
                    match Obs.Json.member "queries" v with
                    | Some (Obs.Json.Array qs) -> check_int "queries" 6 (List.length qs)
                    | _ -> Alcotest.fail "no queries array"))));
    Alcotest.test_case "sweep: bad input exits 2 with an empty stdout" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let expect what args needle =
              let code, out, err = run_split ("sweep" :: deck :: args) in
              check_int ("exit: " ^ what) 2 code;
              Alcotest.(check string) ("stdout: " ^ what) "" out;
              check_bool ("says " ^ needle ^ ": " ^ what) true (contains err ("sweep: " ^ needle));
              check_bool ("no internals: " ^ what) false (leaks_internals err)
            in
            (* the first bad query in input order wins, an apply error
               before a later parse error *)
            with_edits_file "scale-r root 2\n# ok so far\nprune root\nbogus\nreplace leaf:0 1 1\n"
              (fun edits ->
                expect "bad query mid-file" [ "--edits-file"; edits ]
                  "\"prune root\": cannot prune the root");
            with_edits_file "bogus\n" (fun edits ->
                expect "bad spec before the file"
                  [ "-e"; "replace leaf:7 1 1"; "--edits-file"; edits ]
                  "\"replace leaf:7 1 1\": leaf index 7 out of range");
            let missing = Filename.concat (Filename.get_temp_dir_name ()) "no-such-queries.edits" in
            expect "missing edits file" [ "--edits-file"; missing ] (missing ^ ": ");
            expect "no edits" [] "no edits given";
            with_edits_file "# nothing but comments\n\n" (fun edits ->
                expect "only comments" [ "--edits-file"; edits ] "no edits given");
            expect "unknown output"
              [ "-e"; "scale-r root 2"; "-o"; "nope" ]
              "no output named \"nope\"";
            List.iter
              (fun (query, reason) ->
                expect query [ "-e"; "scale-r root 2"; "-e"; query ]
                  (Printf.sprintf "%S: %s" query reason))
              [
                ("graft root 1 -2", "negative capacitance \"-2\"");
                ("replace leaf:0 nan 1", "bad resistance \"nan\"");
                ("buffer root -3 1", "negative resistance \"-3\"");
                ("scale-c root inf", "bad factor \"inf\"");
                ("replace root 1 1", "Replace_leaf path addresses an interior node");
                ("prune root", "cannot prune the root");
              ]));
  ]

let () = Alcotest.run "cli" [ ("rcdelay", tests) ]
