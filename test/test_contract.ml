(* Linear work as a deterministic contract: the paper's Section IV claim
   that each output is timed in time proportional to the number of
   elements, checked layer by layer without a clock.

   Each row of [rows] builds its layer's input at n and at 2n (outside
   the measured call), runs the layer once on each with metrics on, and
   asserts that
   - every work measure it names exactly doubles, gains exactly one
     level, or stays flat at a fixed value;
   - the Gc.minor_words ratio of the call is below 2.3, and so is the
     ratio of all words it allocates: blocks too large for the minor
     heap (a big string, a big array) go straight to the major heap,
     where Gc.minor_words does not see them;
   - where the row sets a bound, the words the call puts in the major
     heap (promoted or allocated there) grow by at most that much per
     added unit of n: what a layer keeps per item, not only how its
     total scales.
   Work measures are Obs counters and histogram sums, or the size of the
   layer's result where the layer keeps no counter. *)

let check_int = Alcotest.(check int)

(* run [f] with metrics enabled, then restore the disabled default *)
let with_metrics f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.Span.set_trace false;
      Obs.reset ())
    f

let counter name = Option.value (List.assoc_opt name (Obs.counters ())) ~default:0
let hist_sum name = int_of_float (Obs.Histogram.sum (Obs.Histogram.make name))

(* the SPICE text of an RC chain of [sections] sections, one output at
   the far end unless [output_every_section] *)
let chain_text ?(output_every_section = false) sections =
  let b = Buffer.create (sections * 40) in
  Buffer.add_string b "* chain\nVIN in 0\n";
  for k = 1 to sections do
    let prev = if k = 1 then "in" else Printf.sprintf "n%d" (k - 1) in
    Printf.bprintf b "R%d %s n%d 1.25\nC%d n%d 0 2e-15\n" k prev k k k;
    if output_every_section then Printf.bprintf b ".output n%d\n" k
  done;
  if not output_every_section then Printf.bprintf b ".output n%d\n" sections;
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* the contract table                                                *)
(* ---------------------------------------------------------------- *)

type growth =
  | Doubles
  | Plus_one  (** one more level: the depth of a balanced tree *)
  | Equals of int  (** flat, at this value *)

type row = {
  layer : string;
  n : int;
  major_per_unit : float option;
      (** the bound on major-heap words per added unit of n, if any *)
  work : (string * growth) list;
  measure : int -> unit -> unit -> int list;
      (** [measure n] builds the input at size [n] and returns the
          measured call; the call returns a reader of the [work]
          measures, in order *)
}

(* every word allocated so far, and the major-heap share of them
   (promoted words included); the minor collection first makes the
   counters exact *)
let allocated_words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted, major)

let at row n =
  let call = row.measure n in
  with_metrics (fun () ->
      let a0, m0 = allocated_words () in
      let w0 = Gc.minor_words () in
      let read = call () in
      let words = Gc.minor_words () -. w0 in
      let a1, m1 = allocated_words () in
      (words, a1 -. a0, m1 -. m0, read ()))

let check_ratio row what w1 w2 =
  let ratio = w2 /. w1 in
  if not (ratio < 2.3) then
    Alcotest.failf "%s: %s %.0f -> %.0f, ratio %.3f >= 2.3" row.layer what w1 w2 ratio

let check_row row () =
  let w1, a1, m1, v1 = at row row.n and w2, a2, m2, v2 = at row (2 * row.n) in
  List.iteri
    (fun i (name, growth) ->
      let a = List.nth v1 i and b = List.nth v2 i in
      let expect_b, expect_a =
        match growth with
        | Doubles -> (2 * a, a)
        | Plus_one -> (a + 1, a)
        | Equals k -> (k, k)
      in
      check_int (Printf.sprintf "%s at n = %d" name row.n) expect_a a;
      check_int (Printf.sprintf "%s at 2n = %d" name (2 * row.n)) expect_b b)
    row.work;
  check_ratio row "minor words" w1 w2;
  check_ratio row "allocated words" a1 a2;
  Option.iter
    (fun bound ->
      let per_unit = (m2 -. m1) /. float_of_int row.n in
      if not (per_unit <= bound) then
        Alcotest.failf "%s: major words %.0f -> %.0f, %.1f per added unit > %.0f" row.layer m1 m2
          per_unit bound)
    row.major_per_unit

(* an RC chain of [n] nodes (input included) with [outputs] outputs *)
let chain ~n ~outputs =
  let b = Rctree.Tree.Builder.create () in
  let at = ref (Rctree.Tree.Builder.input b) in
  for i = 1 to n - 1 do
    at := Rctree.Tree.Builder.add_resistor b ~parent:!at 10.;
    Rctree.Tree.Builder.add_capacitance b !at 1e-13;
    if i mod ((n - 1) / outputs) = 0 then Rctree.Tree.Builder.mark_output b !at
  done;
  Rctree.Tree.Builder.finish b

(* a balanced cascade of [n] URC leaves: depth log2 n *)
let balanced n =
  Rctree.Expr.balanced_cascade
    (List.init n (fun i -> Rctree.Expr.urc (1. +. float_of_int (i mod 7)) 0.5))

(* a [bits]-bit ripple-carry adder with a distributed line on every
   internal net: 9·bits instances *)
let adder bits =
  Sta.Generate.ripple_carry_adder
    ~wire:(Sta.Design.Line { resistance = 500.; capacitance = 0.05e-12 })
    ~bits ()

let library = Sta.Celllib.default Tech.Process.default_4um
let instances d = List.length (Sta.Design.instances d)

let temp_file prefix suffix text =
  let path = Filename.temp_file prefix suffix in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  path

(* [n] what-if queries on the Fig. 7 deck's three leaves, one edit each *)
let sweep_queries n =
  let b = Buffer.create (n * 24) in
  for i = 0 to n - 1 do
    let leaf = i mod 3 and x = 1. +. (float_of_int (i mod 97) /. 10.) in
    match i mod 3 with
    | 0 -> Printf.bprintf b "replace leaf:%d %g %g\n" leaf x (2. *. x)
    | 1 -> Printf.bprintf b "scale-r leaf:%d %g\n" leaf x
    | _ -> Printf.bprintf b "scale-c leaf:%d %g\n" leaf x
  done;
  Buffer.contents b

(* run the CLI in-process with its stdout discarded *)
let cli_quietly args =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Unix.close null;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    (fun () -> Cli.run (Array.of_list ("rcdelay" :: args)))

let rows =
  [
    {
      layer = "SPICE parse + elaborate";
      n = 20_000;
      major_per_unit = None;
      work =
        [
          ("spice.cards_per_deck less the source", Doubles);
          ("spice.elaborated_tree_nodes less the input", Doubles);
          ("spice.decks_parsed", Equals 1);
          ("spice.elaborations", Equals 1);
        ];
      (* n sections of two cards and one node each *)
      measure =
        (fun n ->
          let text = chain_text n in
          fun () ->
            ignore (Spice.Elaborate.to_tree_exn (Result.get_ok (Spice.Parser.parse_string text)));
            fun () ->
              [
                hist_sum "spice.cards_per_deck" - 1;
                hist_sum "spice.elaborated_tree_nodes" - 1;
                counter "spice.decks_parsed";
                counter "spice.elaborations";
              ]);
    };
    {
      layer = "Analysis.make + all_*";
      n = 10_000;
      major_per_unit = None;
      work =
        [
          ("rctree.analysis_nodes", Doubles);
          ("rctree.analysis_queries", Doubles);
          ("rctree.analysis_handles", Equals 1);
          ("rctree.analysis_batches", Equals 4);
        ];
      (* 101 outputs at 10k nodes, 202 at 20k *)
      measure =
        (fun n ->
          let tree = chain ~n ~outputs:(n / 100) in
          fun () ->
            let h = Rctree.Analysis.make tree in
            ignore (Rctree.Analysis.all_times h);
            ignore (Rctree.Analysis.all_delay_bounds h ~threshold:0.5);
            ignore (Rctree.Analysis.all_voltage_bounds h ~time:1e-9);
            ignore (Rctree.Analysis.all_certify h ~threshold:0.5 ~deadline:1e-9);
            fun () ->
              List.map counter
                [
                  "rctree.analysis_nodes";
                  "rctree.analysis_queries";
                  "rctree.analysis_handles";
                  "rctree.analysis_batches";
                ]);
    };
    {
      layer = "Large.factor + Tree_ldl solve";
      n = 10_000;
      major_per_unit = None;
      work =
        [ ("unknowns", Doubles); ("treesolve.factors", Equals 1); ("treesolve.solves", Equals 1) ];
      measure =
        (fun n ->
          let tree = Circuit.Large.rc_chain ~sections:n ~r:10. ~c:1e-13 in
          let rhs = Array.make n 1. in
          fun () ->
            let f = Circuit.Large.factor (Circuit.Large.operator tree ~dt:1e-12) in
            Numeric.Tree_ldl.solve_in_place f rhs;
            fun () ->
              [ Numeric.Tree_ldl.size f; counter "treesolve.factors"; counter "treesolve.solves" ]);
    };
    (* factor once, one solve per step: with "direct stepping does not
       allocate per step" this is the direct solver's cost contract *)
    {
      layer = "Transient run (direct, 10 steps)";
      n = 10_000;
      major_per_unit = None;
      work =
        [
          ("transient.nodes_per_sim", Doubles);
          ("transient.steps", Equals 10);
          ("treesolve.factors", Equals 1);
          ("treesolve.solves", Equals 10);
        ];
      measure =
        (fun n ->
          let tree = Circuit.Large.rc_chain ~sections:n ~r:10. ~c:1e-13 in
          fun () ->
            ignore
              (Circuit.Transient.simulate ~solver:`Direct tree ~dt:1e-12 ~t_end:1e-11
                 ~input:Circuit.Transient.step_input);
            fun () ->
              [
                hist_sum "transient.nodes_per_sim";
                counter "transient.steps";
                counter "treesolve.factors";
                counter "treesolve.solves";
              ]);
    };
    {
      layer = "Incremental.of_expr";
      n = 4096;
      major_per_unit = None;
      work = [ ("leaves", Doubles); ("incr.handles", Equals 1) ];
      measure =
        (fun n ->
          let e = balanced n in
          fun () ->
            let h = Rctree.Incremental.of_expr e in
            fun () -> [ Rctree.Incremental.leaf_count h; counter "incr.handles" ]);
    };
    (* one edit re-evaluates the leaf-to-root spine of a balanced net *)
    {
      layer = "Incremental edit";
      n = 4096;
      major_per_unit = None;
      work = [ ("incr.edits", Equals 1); ("incr.nodes_reeval", Plus_one) ];
      measure =
        (fun n ->
          let h = Rctree.Incremental.of_expr (balanced n) in
          let edit =
            Rctree.Incremental.Replace_leaf
              { path = Rctree.Incremental.leaf_path h (n / 3); resistance = 2.; capacitance = 1. }
          in
          fun () ->
            ignore (Rctree.Incremental.times (Rctree.Incremental.apply h edit));
            fun () -> [ counter "incr.edits"; counter "incr.nodes_reeval" ]);
    };
    {
      layer = "Netlist_io.parse_string";
      n = 500;
      major_per_unit = None;
      work = [ ("instances", Doubles) ];
      measure =
        (fun bits ->
          let text = Sta.Netlist_io.to_string (adder bits) in
          fun () ->
            let d = Result.get_ok (Sta.Netlist_io.parse_string library text) in
            fun () -> [ instances d ]);
    };
    {
      layer = "Design.check";
      n = 500;
      major_per_unit = None;
      work = [ ("problems", Equals 0) ];
      measure =
        (fun bits ->
          let d = adder bits in
          fun () ->
            let problems = Sta.Design.check d in
            fun () -> [ List.length problems ]);
    };
    {
      layer = "Sta.Analysis.run";
      n = 500;
      major_per_unit = None;
      work = [ ("sta.instances_visited", Doubles); ("sta.runs", Equals 1) ];
      measure =
        (fun bits ->
          let d = adder bits in
          fun () ->
            ignore (Result.get_ok (Sta.Analysis.run d));
            fun () -> [ counter "sta.instances_visited"; counter "sta.runs" ]);
    };
    {
      layer = "Report.timing_report";
      n = 500;
      major_per_unit = None;
      work = [ ("sta.reports", Equals 1) ];
      measure =
        (fun bits ->
          let r = Sta.Analysis.run_exn (adder bits) in
          fun () ->
            ignore (Sta.Report.timing_report ~period:1e-6 ~hold:0. r);
            fun () -> [ counter "sta.reports" ]);
    };
    {
      layer = "Table.render";
      n = 10_000;
      major_per_unit = None;
      work = [ ("body lines", Doubles) ];
      measure =
        (fun n ->
          let t = Reprolib.Table.create ~columns:[ "output"; "t_min"; "t_max" ] in
          for i = 1 to n do
            Reprolib.Table.add_row t [ Printf.sprintf "n%d" i; "1.25ns"; "3.5ns" ]
          done;
          fun () ->
            let s = Reprolib.Table.render t in
            (* less the header and its rule *)
            fun () -> [ List.length (String.split_on_char '\n' (String.trim s)) - 2 ]);
    };
    (* the CLI's output writer, end to end: each query is answered as it
       is read, so what grows with the query count is the output rows
       kept for the all-or-nothing write, about 60 bytes each *)
    {
      layer = "rcdelay sweep";
      n = 20_000;
      major_per_unit = Some 64.;
      work = [ ("incr.edits", Doubles); ("incr.sweeps", Equals 1); ("exit code", Equals 0) ];
      measure =
        (fun n ->
          let deck =
            temp_file "sweep" ".sp"
              "VIN in 0\nR1 in a 15\nC1 a 0 2\nR2 a b 8\nC2 b 0 7\nU1 a e 3 4\nC3 e 0 9\n\
               .output e\n.end\n"
          in
          let edits = temp_file "sweep" ".edits" (sweep_queries n) in
          fun () ->
            let code = cli_quietly [ "sweep"; deck; "--edits-file"; edits ] in
            fun () ->
              Sys.remove deck;
              Sys.remove edits;
              [ counter "incr.edits"; counter "incr.sweeps"; code ]);
    };
  ]

let contract_tests =
  List.map (fun row -> Alcotest.test_case row.layer `Quick (check_row row)) rows

(* ---------------------------------------------------------------- *)
(* earlier gates, kept under their names                             *)
(* ---------------------------------------------------------------- *)

(* The paper's linear-time claim as a deterministic contract: the
   all-nodes pass visits each node once, whatever the output count, and
   queries visit none. *)
let work_counter_tests =
  let nodes_visited tree =
    with_metrics (fun () ->
        let h = Rctree.Analysis.make tree in
        ignore (Rctree.Analysis.all_times h);
        ignore (Rctree.Analysis.all_certify h ~threshold:0.5 ~deadline:1e-9);
        List.iter
          (fun (label, _) -> ignore (Rctree.Analysis.times h ~output:(`Name label)))
          (Rctree.Analysis.outputs h);
        Option.value (List.assoc_opt "rctree.analysis_nodes" (Obs.counters ())) ~default:0)
  in
  [
    Alcotest.test_case "rctree.analysis_nodes is linear in n, flat in outputs" `Quick (fun () ->
        let base = chain ~n:1000 ~outputs:10 in
        let visited = nodes_visited base in
        check_int "= node_count" (Rctree.Tree.node_count base) visited;
        let more_outputs = chain ~n:1000 ~outputs:20 in
        check_int "outputs doubled" (2 * List.length (Rctree.Tree.outputs base))
          (List.length (Rctree.Tree.outputs more_outputs));
        check_int "unchanged by outputs" visited (nodes_visited more_outputs);
        check_int "doubles with n" (2 * visited) (nodes_visited (chain ~n:2000 ~outputs:10)));
    (* the engines read the tree's own arrays: what they allocate is
       their result arrays (straight to the major heap at this size),
       not a word per node *)
    Alcotest.test_case "Analysis.make spends < 1000 minor words on 10k nodes" `Quick (fun () ->
        let tree = chain ~n:10_000 ~outputs:10 in
        let w0 = Gc.minor_words () in
        let (_ : Rctree.Analysis.t) = Rctree.Analysis.make tree in
        let w = Gc.minor_words () -. w0 in
        if w >= 1000. then Alcotest.failf "Analysis.make: %.0f minor words" w);
    Alcotest.test_case "Large.operator spends < 1000 minor words on 10k nodes" `Quick (fun () ->
        let tree = chain ~n:10_000 ~outputs:10 in
        let w0 = Gc.minor_words () in
        let (_ : Circuit.Large.operator) = Circuit.Large.operator tree ~dt:1e-12 in
        let w = Gc.minor_words () -. w0 in
        if w >= 1000. then Alcotest.failf "Large.operator: %.0f minor words" w);
    Alcotest.test_case "Large.factor spends < 1000 minor words on 10k sections" `Quick (fun () ->
        let tree = Circuit.Large.rc_chain ~sections:10_000 ~r:10. ~c:1e-13 in
        let op = Circuit.Large.operator tree ~dt:1e-12 in
        let w0 = Gc.minor_words () in
        let (_ : Numeric.Tree_ldl.t) = Circuit.Large.factor op in
        let w = Gc.minor_words () -. w0 in
        if w >= 1000. then Alcotest.failf "Large.factor: %.0f minor words" w);
  ]

(* --- linear work: doubling the deck at most roughly doubles allocation *)

let front_end_words text =
  let w0 = Gc.minor_words () in
  let tree = Spice.Elaborate.to_tree_exn (Result.get_ok (Spice.Parser.parse_string text)) in
  let w = Gc.minor_words () -. w0 in
  (Rctree.Tree.node_count tree, w)

let linear_tests =
  let ratio ?output_every_section () =
    let n1, w1 = front_end_words (chain_text ?output_every_section 20_000) in
    let n2, w2 = front_end_words (chain_text ?output_every_section 40_000) in
    check_int "nodes 20k" 20_001 n1;
    check_int "nodes 40k" 40_001 n2;
    w2 /. w1
  in
  [
    Alcotest.test_case "doubling a chain deck at most ~doubles parse + elaborate words" `Quick
      (fun () ->
        let r = ratio () in
        if r >= 2.3 then Alcotest.failf "minor-words ratio %.3f >= 2.3" r);
    Alcotest.test_case "doubling the .output lines at most ~doubles parse + elaborate words" `Quick
      (fun () ->
        let r = ratio ~output_every_section:true () in
        if r >= 2.3 then Alcotest.failf "minor-words ratio %.3f >= 2.3" r);
    Alcotest.test_case "elaborating a 100k-section chain spends <= 20 minor words per node" `Quick
      (fun () ->
        let deck = Result.get_ok (Spice.Parser.parse_string (chain_text 100_000)) in
        let w0 = Gc.minor_words () in
        let tree = Spice.Elaborate.to_tree_exn deck in
        let per_node = (Gc.minor_words () -. w0) /. float_of_int (Rctree.Tree.node_count tree) in
        if per_node > 20. then Alcotest.failf "%.1f minor words per node" per_node);
  ]

let () =
  Alcotest.run "contract"
    [
      ("layer growth", contract_tests);
      ("linear work", work_counter_tests);
      ("linear", linear_tests);
    ]
