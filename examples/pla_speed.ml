(* Section V of the paper: is the poly line driving a PLA AND plane the
   speed bottleneck?

   Reproduces Fig. 13 — upper and lower delay bounds at threshold 0.7
   as a function of the number of minterms — from two directions:

   - the literal element values of the Fig. 12 APL listing;
   - values derived from process geometry (30 ohm/sq poly, 400 A gate
     oxide, 3000 A field oxide, 4 um features), which land within half
     a percent of the listing.

   It then asks what happens when the process scales, quantifying the
   introduction's remark that interconnect delay grows in importance as
   feature size shrinks.

   Run with: dune exec examples/pla_speed.exe *)

let minterm_counts = [ 2; 4; 6; 10; 16; 20; 40; 60; 100 ]

let () =
  let process = Tech.Process.default_4um in
  let params = Tech.Pla.default_params process in

  Printf.printf "one two-minterm section, derived from geometry:\n";
  let wire = Tech.Wire.segment ~layer:Tech.Wire.Poly ~length:(24e-6) ~width:(4e-6) in
  Printf.printf "  wire: %g ohm, %.4f pF   (paper listing: 180 ohm, 0.0107 pF)\n"
    (Tech.Wire.resistance process wire)
    (Tech.Wire.capacitance process wire *. 1e12);
  Printf.printf "  gate: %g ohm, %.4f pF   (paper listing: 30 ohm, 0.0134 pF)\n\n"
    (Tech.Wire.resistance process
       (Tech.Wire.segment ~layer:Tech.Wire.Poly ~length:(4e-6) ~width:(4e-6)))
    (Tech.Mosfet.minimum_gate_load process *. 1e12);

  let table =
    Reprolib.Table.create
      ~columns:[ "minterms"; "tmin(ns)"; "tmax(ns)"; "tmin lit."; "tmax lit." ]
  in
  List.iter
    (fun n ->
      let lo, hi = Tech.Pla.delay_bounds process params ~minterms:n in
      (* the literal listing works in ohms and picofarads: values come
         out numerically in picoseconds *)
      let ts = Rctree.Expr.times (Tech.Pla.paper_line ~minterms:n) in
      let lo_lit = Rctree.Bounds.t_min ts 0.7 /. 1e3 and hi_lit = Rctree.Bounds.t_max ts 0.7 /. 1e3 in
      Reprolib.Table.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.4f" (lo *. 1e9);
          Printf.sprintf "%.4f" (hi *. 1e9);
          Printf.sprintf "%.4f" lo_lit;
          Printf.sprintf "%.4f" hi_lit;
        ])
    minterm_counts;
  Reprolib.Table.print table;

  (* growth exponent on the log-log plot: the paper points out the
     quadratic dependence for long lines *)
  let ns = List.filter (fun n -> n >= 20) minterm_counts in
  let xs = Array.of_list (List.map float_of_int ns) in
  let ys =
    Array.of_list (List.map (fun n -> snd (Tech.Pla.delay_bounds process params ~minterms:n)) ns)
  in
  Printf.printf "\nlog-log slope of tmax for n >= 20: %.3f (paper: ~2, quadratic)\n"
    (Numeric.Stats.log_log_slope xs ys);

  let _, hi100 = Tech.Pla.delay_bounds process params ~minterms:100 in
  Printf.printf "worst case at 100 minterms: %.2f ns (paper: about 10 ns)\n" (hi100 *. 1e9);
  Printf.printf "=> the PLA's dominant delay is elsewhere, as the paper concludes.\n\n";

  (* process scaling: same PLA drawn in shrunk processes *)
  Printf.printf "process scaling at 40 minterms (driver unchanged):\n";
  let table2 = Reprolib.Table.create ~columns:[ "feature(um)"; "tmax(ns)" ] in
  List.iter
    (fun factor ->
      let p = Tech.Process.scale process ~factor in
      let params = Tech.Pla.default_params p in
      let _, hi = Tech.Pla.delay_bounds p params ~minterms:40 in
      Reprolib.Table.add_row table2
        [
          Printf.sprintf "%.2f" (p.Tech.Process.feature_size *. 1e6);
          Printf.sprintf "%.4f" (hi *. 1e9);
        ])
    [ 1.0; 0.5; 0.25 ];
  Reprolib.Table.print table2;
  Printf.printf
    "(wire RC per section is scale-invariant here, but the fixed driver matters less,\n\
    \ so the line itself dominates more and more of the path — the paper's closing point.)\n\n";

  (* what the fab actually delivers: corners and a Monte-Carlo spread *)
  Printf.printf "process variation at 40 minterms (threshold 0.7):\n";
  let build proc =
    let tree = Tech.Pla.line_tree proc (Tech.Pla.default_params proc) ~minterms:40 in
    (tree, Rctree.Tree.output_named tree "out")
  in
  List.iter
    (fun { Tech.Variation.corner_name; process = proc } ->
      let tree, out = build proc in
      let _, hi =
        Rctree.Analysis.delay_bounds (Rctree.Analysis.make tree) ~output:(`Id out) ~threshold:0.7
      in
      Printf.printf "  corner %-8s tmax = %.4f ns\n" corner_name (hi *. 1e9))
    (Tech.Variation.corners process);
  let _, tmax_spread =
    Tech.Variation.monte_carlo ~samples:500 process ~build ~threshold:0.7
  in
  Printf.printf "  monte carlo (500 samples): tmax %s\n"
    (Format.asprintf "%a" Tech.Variation.pp_spread tmax_spread)
