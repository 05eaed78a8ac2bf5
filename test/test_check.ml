(* The differential verification subsystem (lib/check):

   - corpus replay: every deck under test/corpus/ re-asserts the
     property named in its metadata — once a counterexample is found
     and fixed, it stays fixed;
   - the runner finds nothing on healthy code and is deterministic in
     (seed, cases);
   - an injected fault is caught, shrunk to a local minimum and
     persisted as a replayable deck that fails exactly when the fault
     is armed;
   - generated cases and edit scripts round-trip through their deck
     serialization;
   - the Obs counters account for the work done. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_prop name case =
  match Check.Prop.find name with
  | None -> Alcotest.failf "unknown property %s" name
  | Some p -> p.Check.Prop.run (Check.Oracle.make case)

(* dune runtest runs in _build/default/test; dune exec may run elsewhere, so
   resolve the corpus directory next to the test binary. *)
let corpus_dir = Filename.concat (Filename.dirname Sys.executable_name) "corpus"

let corpus_tests =
  [
    Alcotest.test_case "every corpus deck replays clean" `Quick (fun () ->
        let entries = Check.Corpus.load_dir corpus_dir in
        if List.length entries < 3 then
          Alcotest.failf "corpus has %d decks, expected at least 3" (List.length entries);
        List.iter
          (fun (path, result) ->
            match result with
            | Error m -> Alcotest.failf "%s: %s" path m
            | Ok (case, property) -> (
                match run_prop property case with
                | Check.Prop.Pass -> ()
                | Check.Prop.Fail m -> Alcotest.failf "%s: property %s fails: %s" path property m))
          entries);
    Alcotest.test_case "oracle registry pairs every public answer" `Quick (fun () ->
        check_bool "registry non-trivial" true (List.length Check.Oracle.registry >= 5);
        check_int "catalog size" 10 (List.length Check.Prop.all));
  ]

let runner_tests =
  [
    Alcotest.test_case "30 fresh cases pass every property" `Quick (fun () ->
        let r = Check.Runner.run ~cases:30 ~seed:42 () in
        check_int "cases" 30 r.Check.Runner.cases;
        match r.Check.Runner.failures with
        | [] -> ()
        | f :: _ ->
            Alcotest.failf "property %s failed: %s" f.Check.Runner.property f.Check.Runner.message);
    Alcotest.test_case "same seed and case count reproduce the same counterexamples" `Quick
      (fun () ->
        let run () =
          let r =
            Check.Runner.run ~fault:Check.Fault.Elmore_tmax ~cases:40 ~max_failures:3 ~seed:5 ()
          in
          ( r.Check.Runner.cases,
            List.map
              (fun (f : Check.Runner.failure) ->
                (f.Check.Runner.property, Check.Case.to_deck_string f.Check.Runner.shrunk))
              r.Check.Runner.failures )
        in
        let a = run () in
        let b = run () in
        check_bool "two runs agree" true (a = b);
        check_bool "the fault was caught" true (snd a <> []));
    Alcotest.test_case "counterexamples do not depend on the domain count" `Quick (fun () ->
        let run domains =
          Parallel.Pool.with_pool ~domains (fun pool ->
              let r =
                Check.Runner.run ~pool ~fault:Check.Fault.Elmore_tmax ~cases:40 ~max_failures:3
                  ~seed:5 ()
              in
              ( r.Check.Runner.cases,
                List.map
                  (fun (f : Check.Runner.failure) ->
                    (f.Check.Runner.property, Check.Case.to_deck_string f.Check.Runner.shrunk))
                  r.Check.Runner.failures ))
        in
        let one = run 1 in
        check_bool "1 and 3 domains agree" true (one = run 3);
        check_bool "the fault was caught" true (snd one <> []));
  ]

let fault_tests =
  [
    Alcotest.test_case "injected fault is caught, shrunk and persisted" `Quick (fun () ->
        let dir = Filename.temp_dir "rcdelay-check" "" in
        let report =
          Check.Runner.run ~fault:Check.Fault.Drop_vmax_exp ~corpus_dir:dir ~cases:60
            ~max_failures:2 ~seed:11 ()
        in
        (match report.Check.Runner.failures with
        | [] -> Alcotest.fail "fault produced no counterexample"
        | failures ->
            List.iter
              (fun (f : Check.Runner.failure) ->
                check_bool "the corrupted bound is the one caught" true
                  (f.Check.Runner.property = "envelope");
                check_bool "shrunk to the minimal net" true
                  (Check.Case.node_count f.Check.Runner.shrunk <= 3);
                (* local minimum: no candidate still fails *)
                Check.Fault.with_fault (Some Check.Fault.Drop_vmax_exp) (fun () ->
                    List.iter
                      (fun c ->
                        match run_prop f.Check.Runner.property c with
                        | Check.Prop.Pass -> ()
                        | Check.Prop.Fail _ -> Alcotest.fail "shrunk case is not a local minimum")
                      (Check.Shrink.candidates f.Check.Runner.shrunk));
                match f.Check.Runner.file with
                | None -> Alcotest.fail "counterexample was not persisted"
                | Some path -> (
                    match Check.Corpus.load_file path with
                    | Error m -> Alcotest.failf "persisted deck does not load: %s" m
                    | Ok (case, property) -> (
                        check_bool "property recorded in the deck" true (property = "envelope");
                        Check.Fault.with_fault (Some Check.Fault.Drop_vmax_exp) (fun () ->
                            match run_prop property case with
                            | Check.Prop.Fail _ -> ()
                            | Check.Prop.Pass ->
                                Alcotest.fail "replayed deck passes under the fault");
                        match run_prop property case with
                        | Check.Prop.Pass -> ()
                        | Check.Prop.Fail m ->
                            Alcotest.failf "replayed deck fails without the fault: %s" m)))
              failures);
        check_bool "no fault leaks out of the run" true (Check.Fault.current () = None));
    Alcotest.test_case "every fault in the catalog is caught" `Quick (fun () ->
        List.iter
          (fun fault ->
            let r = Check.Runner.run ~fault ~cases:40 ~max_failures:1 ~seed:5 () in
            match r.Check.Runner.failures with
            | [] ->
                Alcotest.failf "fault %s escaped 40 cases undetected"
                  (Check.Fault.to_string fault)
            | _ -> ())
          Check.Fault.all);
  ]

let mutation_tests =
  [
    Alcotest.test_case "each deck mutation breaks the deck the way it is named" `Quick (fun () ->
        let text =
          "* deck\nVIN in 0\nR1 in a 10\nC1 a 0 2\nU1 a b 3 4\nC2 b 0 1\n.output b\n.end\n"
        in
        let dir = Filename.temp_dir "rcdelay-mutation" "" in
        let path = Filename.concat dir "deck.sp" in
        let outcome m =
          let st = Random.State.make [| 7 |] in
          let oc = open_out path in
          output_string oc (Check.Gen.mutate_deck ~self:"deck.sp" st m text);
          close_out oc;
          match Spice.Parser.parse_file path with
          | Error e -> `Parse e.Spice.Parser.message
          | Ok deck -> (
              match Spice.Elaborate.to_tree deck with Ok _ -> `Ok | Error e -> `Elab e)
        in
        List.iter
          (fun m ->
            let name = Check.Gen.mutation_name m in
            let ok =
              match (m, outcome m) with
              | Check.Gen.Negative_value, `Parse msg -> String.starts_with ~prefix:"negative" msg
              | (Nan_value | Overflow_value), `Parse msg -> String.starts_with ~prefix:"bad" msg
              | Cycle, `Elab (Spice.Elaborate.Cycle _) -> true
              | Dangling_node, `Elab (Spice.Elaborate.Disconnected _) -> true
              | ( Duplicate_name,
                  (`Ok | `Elab (Spice.Elaborate.Cycle _ | Spice.Elaborate.Multiple_sources _)) ) ->
                  true
              | Missing_source, `Elab Spice.Elaborate.No_source -> true
              | Extra_source, `Elab (Spice.Elaborate.Multiple_sources _) -> true
              | (Wrong_arity | Orphan_continuation), `Parse _ -> true
              | Self_include, `Parse msg -> String.starts_with ~prefix:".include cycle" msg
              | _ -> false
            in
            check_bool name true ok)
          Check.Gen.mutations;
        Sys.remove path;
        Sys.rmdir dir);
    Alcotest.test_case "front-end totality holds on 200 fresh cases" `Quick (fun () ->
        let totality = Option.get (Check.Prop.find "front-end-totality") in
        let r = Check.Runner.run ~properties:[ totality ] ~cases:200 ~seed:8 () in
        check_int "cases" 200 r.Check.Runner.cases;
        check_int "failures" 0 (List.length r.Check.Runner.failures));
  ]

let serialization_props =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:100 ~name:"generated decks round-trip with identical times"
        Check.Gen.arb_sim_case (fun case ->
          match Check.Case.of_deck_string (Check.Case.to_deck_string ~property:"x" case) with
          | Error _ -> false
          | Ok (case2, Some "x") ->
              Check.Case.node_count case2 = Check.Case.node_count case
              && Rctree.Times.equal ~rtol:1e-9
                   (Rctree.Moments.times case.Check.Case.tree ~output:case.Check.Case.output)
                   (Rctree.Moments.times case2.Check.Case.tree ~output:case2.Check.Case.output)
          | Ok _ -> false);
      QCheck.Test.make ~count:200 ~name:"edit scripts round-trip bit-exactly"
        (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
        (fun n ->
          let st = Random.State.make [| n; 0xed17 |] in
          let case = Check.Gen.case ~label:"roundtrip" st in
          Check.Case.edits_of_string (Check.Case.edits_to_string case.Check.Case.edits)
          = Ok case.Check.Case.edits);
    ]

let obs_tests =
  [
    Alcotest.test_case "counters and histograms account for the run" `Quick (fun () ->
        Obs.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled false)
          (fun () ->
            Obs.reset ();
            let r = Check.Runner.run ~cases:10 ~seed:3 () in
            let counter name =
              Option.value ~default:0 (List.assoc_opt name (Obs.counters ()))
            in
            check_int "check.cases" r.Check.Runner.cases (counter "check.cases");
            check_int "check.failures" 0 (counter "check.failures");
            List.iter
              (fun name ->
                let h = Obs.Histogram.make ("check.prop." ^ name) in
                check_bool (name ^ " latency histogram populated") true
                  (Obs.Histogram.count h >= 10))
              Check.Prop.names));
  ]

let () =
  Alcotest.run "check"
    [
      ("corpus", corpus_tests);
      ("runner", runner_tests);
      ("faults", fault_tests);
      ("mutations", mutation_tests);
      ("serialization", serialization_props);
      ("obs", obs_tests);
    ]
