(* In-process helper of the benchmark: input generation that needs the
   library, set-up timing, oracle answers, and the traced run.

     probe gen-adder BITS R C FILE    write a ripple-carry adder netlist
                                      with line:R,C wires; print the
                                      carry-chain depth
     probe setup KIND FILE            time the load calls the CLI makes
                                      (KIND: deck, deck-sweep, netlist)
     probe bounds THRESHOLD DEADLINE  read "label t_p t_d t_r" lines on
                                      stdin; print each label's verdict,
                                      t_min and t_max
     probe sweep-oracle DECK EDITS THRESHOLD I...
                                      from-scratch answer to queries I
     probe trace CMD ARGS...          one command's public calls, each
                                      wrapped in a span; prints JSON

   It calls only the entry points the rcdelay CLI calls, with no
   optional tuning arguments, so the pool size comes from RCDELAY_JOBS
   exactly as for the CLI. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("probe: " ^ s); exit 2) fmt

let load_deck path =
  match Spice.Parser.parse_file path with
  | Error e -> fail "%s: %s" path (Spice.Parser.error_to_string e)
  | Ok deck -> deck

let elaborate path deck =
  match Spice.Elaborate.to_tree deck with
  | Error e -> fail "%s: %s" path (Spice.Elaborate.error_to_string e)
  | Ok tree -> tree

let first_output tree =
  match Rctree.Tree.outputs tree with (_, id) :: _ -> id | [] -> fail "deck has no outputs"

let library () = Sta.Celllib.default Tech.Process.default_4um

let load_netlist path =
  match Sta.Netlist_io.parse_file (library ()) path with
  | Error e -> fail "%s: %s" path (Sta.Netlist_io.error_to_string e)
  | Ok design -> design

(* The subset of the sweep query grammar the benchmark generates:
   one edit per query, leaves addressed as leaf:N. *)
let parse_query h spec =
  let num s = match float_of_string_opt s with Some f -> f | None -> fail "bad number %S" s in
  let leaf a =
    let n = String.length a in
    if n > 5 && String.sub a 0 5 = "leaf:" then
      Rctree.Incremental.leaf_path h (int_of_string (String.sub a 5 (n - 5)))
    else fail "bad address %S" a
  in
  match String.split_on_char ' ' spec |> List.filter (( <> ) "") with
  | [ "replace"; a; r; c ] ->
      Rctree.Incremental.Replace_leaf { path = leaf a; resistance = num r; capacitance = num c }
  | [ "scale-r"; a; f ] -> Rctree.Incremental.Scale_r { path = leaf a; factor = num f }
  | [ "scale-c"; a; f ] -> Rctree.Incremental.Scale_c { path = leaf a; factor = num f }
  | _ -> fail "unsupported query %S" spec

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let now = Unix.gettimeofday

(* ---- gen-adder ---- *)

let gen_adder bits r c path =
  let wire =
    Sta.Design.Line { resistance = float_of_string r; capacitance = float_of_string c }
  in
  let bits = int_of_string bits in
  Sta.Netlist_io.write_file path (Sta.Generate.ripple_carry_adder ~wire ~bits ());
  Printf.printf "%d\n" (Sta.Generate.carry_chain_depth ~bits)

(* ---- setup ---- *)

let setup kind path =
  let t0 = now () in
  (match kind with
  | "deck" -> ignore (Rctree.Analysis.make (elaborate path (load_deck path)))
  | "deck-sweep" ->
      let tree = elaborate path (load_deck path) in
      ignore (Rctree.Convert.incremental_of_tree tree ~output:(first_output tree))
  | "netlist" -> ignore (Sta.Design.check (load_netlist path))
  | k -> fail "unknown setup kind %S" k);
  Printf.printf "%.9f\n" (now () -. t0)

(* ---- oracle answers ---- *)

let bounds threshold deadline =
  let threshold = float_of_string threshold and deadline = float_of_string deadline in
  In_channel.input_all stdin |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | [ label; tp; td; tr ] ->
             let ts =
               Rctree.Times.make ~t_p:(float_of_string tp) ~t_d:(float_of_string td)
                 ~t_r:(float_of_string tr)
             in
             Printf.printf "%s %s %.17g %.17g\n" label
               (Rctree.Bounds.verdict_to_string (Rctree.Bounds.certify ts ~threshold ~deadline))
               (Rctree.Bounds.t_min ts threshold) (Rctree.Bounds.t_max ts threshold)
         | _ -> ())

let sweep_oracle deck edits threshold indices =
  let tree = elaborate deck (load_deck deck) in
  let expr = Rctree.Convert.expr_of_tree tree ~output:(first_output tree) in
  let h = Rctree.Incremental.of_expr expr in
  let queries = Array.of_list (read_lines edits) in
  let threshold = float_of_string threshold in
  List.iter
    (fun i ->
      let ts =
        Rctree.Expr.times (Rctree.Incremental.edit_expr expr (parse_query h queries.(i)))
      in
      Printf.printf "%d %.17g %.17g %.17g\n" i (Rctree.Bounds.t_min ts threshold)
        (Rctree.Bounds.t_max ts threshold) ts.Rctree.Times.t_d)
    (List.map int_of_string indices)

(* ---- traced run ----

   Spans are kept in memory and printed when the command ends, with the
   bytes the OCaml heap allocated inside each. *)

type span = {
  id : int;
  parent : int;
  name : string;
  start : float;
  stop : float;
  alloc : float;
}

let spans = ref []
let stack = ref [ 0 ]
let next_id = ref 0
let origin = now ()

let span name f =
  incr next_id;
  let id = !next_id and parent = List.hd !stack in
  stack := id :: !stack;
  let a0 = Gc.allocated_bytes () and t0 = now () in
  let finish () =
    let t1 = now () in
    stack := List.tl !stack;
    spans :=
      { id; parent; name; start = t0 -. origin; stop = t1 -. origin;
        alloc = Gc.allocated_bytes () -. a0 }
      :: !spans
  in
  Fun.protect ~finally:finish f

let extra = ref []
let record name v = extra := (name, v) :: !extra
let fmt_s t = Rctree.Units.format_quantity ~unit_symbol:"s" t

let deck_front path =
  let deck = span "spice.parser" (fun () -> load_deck path) in
  span "spice.elaborate" (fun () -> elaborate path deck)

(* Each trace_* makes one command's calls and returns the work only the
   benchmark does (run after the command's span has closed). *)

let trace_times path =
  let tree = deck_front path in
  let h = span "rctree.analysis.make" (fun () -> Rctree.Analysis.make tree) in
  let rows = span "rctree.analysis.query" (fun () -> Rctree.Analysis.all_times h) in
  record "outputs" (float_of_int (Array.length rows));
  span "util.table" (fun () ->
      let table =
        Reprolib.Table.create ~columns:[ "output"; "T_P"; "T_De"; "T_Re"; "Elmore" ]
      in
      Array.iter
        (fun (label, _, ts) ->
          Reprolib.Table.add_row table
            Rctree.Times.[ label; fmt_s ts.t_p; fmt_s ts.t_d; fmt_s ts.t_r; fmt_s ts.t_d ])
        rows;
      ignore (Reprolib.Table.render table));
  ignore

let trace_certify path threshold deadline =
  let threshold = float_of_string threshold and deadline = float_of_string deadline in
  let tree = deck_front path in
  let h = span "rctree.analysis.make" (fun () -> Rctree.Analysis.make tree) in
  let verdicts =
    span "rctree.analysis.query" (fun () -> Rctree.Analysis.all_certify h ~threshold ~deadline)
  in
  record "outputs" (float_of_int (Array.length verdicts));
  span "cli.output" (fun () ->
      let buf = Buffer.create 4096 in
      Array.iter
        (fun (label, _, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%-16s %s\n" label (Rctree.Bounds.verdict_to_string v)))
        verdicts);
  fun () ->
    (* Bounds alone, on times computed outside its span *)
    let times = span "bench.precompute" (fun () -> Rctree.Analysis.all_times h) in
    span "rctree.bounds" (fun () ->
        Array.iter
          (fun (_, _, ts) -> ignore (Rctree.Bounds.certify ts ~threshold ~deadline))
          times)

let trace_transient path t_end dt =
  let t_end = float_of_string t_end and dt = float_of_string dt in
  let tree = deck_front path in
  let lumped, res =
    span "circuit.transient" (fun () ->
        let lumped =
          if Rctree.Tree.has_distributed_lines tree then
            Rctree.Lump.discretize ~segments:Circuit.Measure.default_segments tree
          else tree
        in
        (lumped, Circuit.Transient.simulate lumped ~dt ~t_end ~input:Circuit.Transient.step_input))
  in
  span "cli.output" (fun () ->
      List.iter
        (fun (_, id) ->
          let w = Circuit.Transient.waveform res ~node:id in
          for i = 0 to 100 do
            let t = t_end *. float_of_int i /. 100. in
            ignore (Printf.sprintf "%.6g" (Circuit.Waveform.value_at w t))
          done)
        (Rctree.Tree.outputs lumped));
  ignore

let trace_sta path period =
  let design = span "sta.netlist_io" (fun () -> load_netlist path) in
  ignore (span "sta.design.check" (fun () -> Sta.Design.check design));
  let r =
    span "sta.analysis" (fun () ->
        match Sta.Analysis.run design with Ok r -> r | Error _ -> fail "combinational cycle")
  in
  let period = float_of_string period in
  ignore (span "sta.report" (fun () -> Sta.Report.timing_report ~period r));
  ignore

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let trace_sweep path edits threshold =
  let threshold = float_of_string threshold in
  let tree = deck_front path in
  let h =
    span "rctree.convert" (fun () ->
        Rctree.Convert.incremental_of_tree tree ~output:(first_output tree))
  in
  let specs, queries =
    span "cli.query_parse" (fun () ->
        let specs = read_lines edits in
        (specs, List.map (fun s -> [ parse_query h s ]) specs))
  in
  let results = span "rctree.incremental" (fun () -> Rctree.Incremental.sweep_list h queries) in
  let base = Rctree.Incremental.times h in
  span "util.table" (fun () ->
      let table = Reprolib.Table.create ~columns:[ "edits"; "t_min"; "t_max"; "T_De" ] in
      let row spec ts =
        Reprolib.Table.add_row table
          [
            spec;
            fmt_s (Rctree.Bounds.t_min ts threshold);
            fmt_s (Rctree.Bounds.t_max ts threshold);
            fmt_s ts.Rctree.Times.t_d;
          ]
      in
      row "(base)" base;
      List.iter2 row specs results;
      ignore (Reprolib.Table.render table));
  fun () ->
    (* per-query latency, one query at a time, on every tenth query *)
    let sample = List.filteri (fun i _ -> i mod 10 = 0) queries in
    let lat =
      span "bench.query_latency" (fun () ->
          Array.of_list
            (List.map
               (fun q ->
                 let t0 = now () in
                 ignore (Rctree.Incremental.times (Rctree.Incremental.apply_all h q));
                 now () -. t0)
               sample))
    in
    Array.sort compare lat;
    record "query_p50_us" (1e6 *. percentile lat 0.5);
    record "query_p99_us" (1e6 *. percentile lat 0.99)

let trace cmd args =
  Obs.set_enabled true;
  let run () =
    match (cmd, args) with
    | "times", [ deck ] -> trace_times deck
    | "certify", [ deck; th; dl ] -> trace_certify deck th dl
    | "transient", [ deck; t_end; dt ] -> trace_transient deck t_end dt
    | "sta", [ netlist; period ] -> trace_sta netlist period
    | "sweep", [ deck; edits; th ] -> trace_sweep deck edits th
    | _ -> fail "bad trace command %s" (String.concat " " (cmd :: args))
  in
  let extras = span ("cmd." ^ cmd) run in
  let gc = Gc.quick_stat () in
  let num x = Obs.Json.Number x in
  let hist name = Obs.Histogram.sum (Obs.Histogram.make name) in
  (* the program's own counters, read before the benchmark-only work *)
  let obs =
    List.map (fun (n, v) -> (n, num (float_of_int v))) (Obs.counters ())
    @ [
        ("spice.cards_per_deck", num (hist "spice.cards_per_deck"));
        ("spice.elaborated_tree_nodes", num (hist "spice.elaborated_tree_nodes"));
        ("sta.netdelay_s", num (Obs.Span.total_time "sta.netdelay"));
      ]
  in
  extras ();
  let span_json s =
    Obs.Json.Object
      [
        ("id", num (float_of_int s.id));
        ("parent", num (float_of_int s.parent));
        ("name", Obs.Json.String s.name);
        ("start", num s.start);
        ("end", num s.stop);
        ("alloc", num s.alloc);
      ]
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Object
          [
            ("spans", Obs.Json.Array (List.rev_map span_json !spans));
            ("obs", Obs.Json.Object obs);
            ("extra", Obs.Json.Object (List.map (fun (n, v) -> (n, num v)) !extra));
            ( "gc",
              Obs.Json.Object
                [
                  ("top_heap_mb", num (float_of_int gc.Gc.top_heap_words *. 8. /. 1e6));
                  ("major_collections", num (float_of_int gc.Gc.major_collections));
                ] );
          ]))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen-adder"; bits; r; c; path ] -> gen_adder bits r c path
  | [ "setup"; kind; path ] -> setup kind path
  | [ "bounds"; threshold; deadline ] -> bounds threshold deadline
  | "sweep-oracle" :: deck :: edits :: threshold :: indices ->
      sweep_oracle deck edits threshold indices
  | "trace" :: cmd :: args -> trace cmd args
  | _ -> fail "usage: see the comment at the top of probe.ml"
