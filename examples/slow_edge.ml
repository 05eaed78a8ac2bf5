(* Slow input edges: the superposition extension in action.

   The paper's bounds assume an ideal step at the input; its conclusion
   notes they "can be extended to upper and lower bounds for arbitrary
   excitation by use of the superposition integral".  In a real chip
   the previous stage delivers a ramp, not a step, and pretending
   otherwise under-reports delay.

   This example drives the paper's Fig. 7 network with progressively
   slower edges, prints the certified crossing windows from
   Rctree.Excitation, and validates each against the exact simulator
   driven by the same ramp.

   Run with: dune exec examples/slow_edge.exe *)

let () =
  let tree = Rctree.Convert.tree_of_expr Rctree.Expr.fig7 in
  let out = Rctree.Tree.output_named tree "out" in
  let ts = Rctree.Analysis.times (Rctree.Analysis.make tree) ~output:(`Id out) in
  Printf.printf "network: Fig. 7, T_P = %g, T_De = %g, T_Re = %.4g\n\n" ts.Rctree.Times.t_p
    ts.Rctree.Times.t_d ts.Rctree.Times.t_r;

  (* exact reference: simulate the discretized network under each ramp *)
  let lumped = Rctree.Lump.discretize ~segments:32 tree in
  let lout = Rctree.Tree.output_named lumped "out" in
  let exact_crossing input t_end =
    let r = Circuit.Transient.simulate lumped ~dt:0.25 ~t_end ~input in
    match Circuit.Waveform.crossing_time (Circuit.Transient.waveform r ~node:lout) ~threshold:0.5 with
    | Some t -> t
    | None -> nan
  in

  let table =
    Reprolib.Table.create
      ~columns:[ "input"; "tmin@0.5"; "tmax@0.5"; "exact"; "inside" ]
  in
  let row name input t_end =
    let lo, hi = Rctree.Excitation.crossing_bounds ts input ~threshold:0.5 in
    let exact = exact_crossing input t_end in
    Reprolib.Table.add_row table
      [
        name;
        Printf.sprintf "%.1f" lo;
        Printf.sprintf "%.1f" hi;
        Printf.sprintf "%.1f" exact;
        string_of_bool (lo <= exact && exact <= hi);
      ]
  in
  row "ideal step" Rctree.Excitation.unit_step 1500.;
  List.iter
    (fun rise ->
      row (Printf.sprintf "ramp %g" rise) (Rctree.Excitation.ramp ~rise_time:rise) (1500. +. rise))
    [ 100.; 300.; 1000. ];
  (* a two-step staircase: a driver fighting a ratioed load *)
  row "staircase 2x200" (Rctree.Excitation.staircase ~steps:2 ~rise_time:200.) 1700.;
  Reprolib.Table.print table;

  print_newline ();
  (* how the response window at a fixed time widens as the edge slows *)
  let t_probe = 400. in
  Printf.printf "response window at t = %g:\n" t_probe;
  List.iter
    (fun rise ->
      let input = Rctree.Excitation.ramp ~rise_time:rise in
      let lo, hi = Rctree.Excitation.response_bounds ts input t_probe in
      Printf.printf "  rise %5g: v in [%.4f, %.4f]\n" rise lo hi)
    [ 1e-6; 100.; 300.; 1000. ];
  print_newline ();
  print_endline
    "slower edges push the certified window out by roughly half the rise time,\n\
     exactly what the superposition integral predicts for a ramp."
