(* Regenerate the paper's figures as SVG plots into ./figures/ and print
   the reproduction tables of EXPERIMENTS.md next to them:

   - fig5.svg  — form of the bounds (generic network, normalized time);
                 table E9
   - fig11.svg — bounds and exact response of the Fig. 7 network;
                 table E3 with the exact 50% crossing, and the
                 distributed-line discretization ablation
   - fig13.svg — PLA delay bounds vs minterm count, log-log; table E4
                 with its log-log slope
   - table E8  — the linear-time algebra vs the direct O(n^2) method
                 (CPU time)

   E1/E2 (Fig. 10) are printed by `rcdelay fig10`.

   Run with: dune exec bin/figures.exe [output-dir] *)

let samples lo hi n f =
  List.init n (fun i ->
      let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)) in
      (x, f x))

let table title columns rows =
  print_endline ("== " ^ title ^ " ==");
  let t = Reprolib.Table.create ~columns in
  List.iter (Reprolib.Table.add_row t) rows;
  Reprolib.Table.print t

let f4 = Printf.sprintf "%.4f"

let fig5 dir =
  let ts = Rctree.Expr.times Rctree.Expr.fig7 in
  let t_max = 4. *. ts.Rctree.Times.t_p in
  let norm t = t /. ts.Rctree.Times.t_p in
  let curve f = List.map (fun (t, v) -> (norm t, v)) (samples 0. t_max 160 f) in
  Reprolib.Svg_plot.write_file
    ~title:"Fig. 5 - form of the bounds" ~x_label:"t / T_P" ~y_label:"v(t)"
    (Filename.concat dir "fig5.svg")
    [
      Reprolib.Svg_plot.series ~label:"upper bound" (curve (Rctree.Bounds.v_max ts));
      Reprolib.Svg_plot.series ~label:"lower bound" (curve (Rctree.Bounds.v_min ts));
    ];
  table "E9: Fig. 5 — form of the bounds (generic network)" [ "t/T_P"; "v_min"; "v_max" ]
    (List.map
       (fun k ->
         let t = k *. ts.Rctree.Times.t_p in
         [ Printf.sprintf "%.2f" k; f4 (Rctree.Bounds.v_min ts t); f4 (Rctree.Bounds.v_max ts t) ])
       [ 0.; 0.25; 0.5; 0.75; 1.; 1.5; 2.; 3.; 4. ]);
  print_newline ()

let fig11 dir =
  let ts = Rctree.Expr.times Rctree.Expr.fig7 in
  let tree = Rctree.Convert.tree_of_expr Rctree.Expr.fig7 in
  let lumped = Circuit.Measure.discretize_for_simulation tree in
  let exact = Circuit.Exact.of_tree lumped in
  let node = Rctree.Tree.output_named lumped "out" in
  let times = Array.init 121 (fun i -> float_of_int i *. 5.) in
  let wave = Circuit.Exact.sample exact ~node ~times in
  let pairs f = Array.to_list (Array.map (fun t -> (t, f t)) times) in
  Reprolib.Svg_plot.write_file
    ~title:"Fig. 11 - bounds vs exact response (Fig. 7 network)" ~x_label:"t" ~y_label:"v(t)"
    (Filename.concat dir "fig11.svg")
    [
      Reprolib.Svg_plot.series ~label:"upper bound" (pairs (Rctree.Bounds.v_max ts));
      Reprolib.Svg_plot.series ~label:"exact" ~dashed:true
        (pairs (Circuit.Waveform.value_at wave));
      Reprolib.Svg_plot.series ~label:"lower bound" (pairs (Rctree.Bounds.v_min ts));
    ];
  table "E3: Fig. 11 — bounds and exact response, Fig. 7 network"
    [ "t"; "v_min"; "v_exact"; "v_max" ]
    (List.init 13 (fun i ->
         let t = times.(10 * i) in
         [
           Printf.sprintf "%g" t;
           f4 (Rctree.Bounds.v_min ts t);
           f4 (Circuit.Waveform.value_at wave t);
           f4 (Rctree.Bounds.v_max ts t);
         ]));
  Printf.printf "exact 50%% crossing: %.2f (window [%.2f, %.2f])\n\n"
    (Circuit.Exact.delay exact ~node ~threshold:0.5)
    (Rctree.Bounds.t_min ts 0.5) (Rctree.Bounds.t_max ts 0.5);
  (* T_Re of the lumped network against the closed-form distributed value *)
  let error scheme segments =
    let l = Rctree.Lump.discretize ~scheme ~segments tree in
    let out = Rctree.Tree.output_named l "out" in
    f4 (Float.abs ((Rctree.Moments.times l ~output:out).Rctree.Times.t_r -. ts.Rctree.Times.t_r))
  in
  table "ablation: discretization error of T_Re vs section count"
    [ "sections"; "pi error"; "L error" ]
    (List.map
       (fun n ->
         [ string_of_int n; error Rctree.Lump.Pi_sections n; error Rctree.Lump.L_sections n ])
       [ 1; 2; 4; 8; 16; 32; 64 ]);
  print_newline ()

let fig13 dir =
  let p = Tech.Process.default_4um in
  let params = Tech.Pla.default_params p in
  let ns = [ 2; 3; 4; 6; 8; 10; 14; 20; 28; 40; 56; 60; 80; 100 ] in
  let sweep = Tech.Pla.sweep p params ~minterms:ns in
  let upper = List.map (fun (n, _, hi) -> (float_of_int n, hi *. 1e9)) sweep in
  let lower =
    List.filter_map
      (fun (n, lo, _) -> if lo > 0. then Some (float_of_int n, lo *. 1e9) else None)
      sweep
  in
  Reprolib.Svg_plot.write_file ~log_x:true ~log_y:true
    ~title:"Fig. 13 - PLA line delay vs minterms (V = 0.7)" ~x_label:"number of minterms"
    ~y_label:"delay (ns)"
    (Filename.concat dir "fig13.svg")
    [
      Reprolib.Svg_plot.series ~label:"upper bound" upper;
      Reprolib.Svg_plot.series ~label:"lower bound" lower;
    ];
  table "E4: Fig. 13 — PLA line delay vs minterms (threshold 0.7)"
    [ "minterms"; "tmin(ns)"; "tmax(ns)" ]
    (List.map
       (fun (n, lo, hi) -> [ string_of_int n; f4 (lo *. 1e9); f4 (hi *. 1e9) ])
       sweep);
  let slope_at = [ 20; 40; 60; 100 ] in
  let xs, ys =
    List.split
      (List.filter_map
         (fun (n, _, hi) -> if List.mem n slope_at then Some (float_of_int n, hi) else None)
         sweep)
  in
  Printf.printf
    "log-log slope (n = 20, 40, 60, 100): %.3f — the paper's quadratic dependence\n\n"
    (Numeric.Stats.log_log_slope (Array.of_list xs) (Array.of_list ys))

(* E8: a chain with side branches, the shape where the direct method
   pays its quadratic price; CPU microseconds per call, repeated until
   the measurement spans at least 50 ms *)
let e8 () =
  let chain n =
    let section = Rctree.Expr.(urc 10. 1. @> wb (urc 5. 2.) @> urc 0. 0.5) in
    let rec go acc k = if k = 0 then acc else go (Rctree.Expr.wc acc section) (k - 1) in
    go (Rctree.Expr.urc 50. 0.) n
  in
  let cpu_us f =
    let rec go reps =
      let t0 = Sys.time () in
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (f ()))
      done;
      let dt = Sys.time () -. t0 in
      if dt < 0.05 then go (2 * reps) else Printf.sprintf "%.1f" (dt /. float_of_int reps *. 1e6)
    in
    go 1
  in
  table "E8: linear-time algebra vs direct O(n^2) method (CPU us per output)"
    [ "sections"; "algebra(us)"; "fast(us)"; "direct(us)" ]
    (List.map
       (fun n ->
         let e = chain n in
         let tree = Rctree.Convert.tree_of_expr e in
         let output = Rctree.Tree.output_named tree "out" in
         [
           string_of_int n;
           cpu_us (fun () -> Rctree.Expr.eval e);
           cpu_us (fun () -> Rctree.Moments.times tree ~output);
           cpu_us (fun () -> Rctree.Moments.times_direct tree ~output);
         ])
       [ 50; 100; 200; 400; 800 ]);
  print_newline ()

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "figures" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  fig11 dir;
  fig13 dir;
  fig5 dir;
  e8 ();
  Printf.printf "wrote %s/fig5.svg, fig11.svg, fig13.svg\n" dir
