(* The paper-fidelity suite: every number and claim the paper prints
   that we can check mechanically.

   - Fig. 10 upper table: TMIN/TMAX on the Fig. 7 network, 9 rows.
   - Fig. 10 lower table: VMIN/VMAX, 11 rows.
   - Fig. 11: the exact simulated response lies between the bounds.
   - Fig. 13 / Section V: quadratic growth of the PLA line delay and
     the ~10 ns worst case at 100 minterms.
   - Section III constants: T_P = T_De = RC/2, T_Re = RC/3 for a line;
     eq. (7) ordering.

   The Fig. 10 rows are transcribed from the paper's APL session; our
   tolerance is half a unit in the paper's last printed digit. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_close ?(eps = 1e-9) msg a b = Alcotest.(check (float eps)) msg a b

let fig7_times = Rctree.Expr.times Rctree.Expr.fig7

(* (V, TMIN, TMAX) from Fig. 10; the paper prints 5 significant digits *)
let fig10_delay_rows =
  [
    (0.1, 0., 68.167);
    (0.2, 27.8, 117.22);
    (0.3, 71.46, 173.17);
    (0.4, 123.13, 237.76);
    (0.5, 184.23, 314.15);
    (0.6, 259.02, 407.65);
    (0.7, 355.45, 528.18);
    (0.8, 491.34, 698.07);
    (0.9, 723.66, 988.5);
  ]

(* (T, VMIN, VMAX) from Fig. 10 *)
let fig10_voltage_rows =
  [
    (20., 0., 0.18138);
    (40., 0.03243, 0.22912);
    (60., 0.0814, 0.27565);
    (80., 0.12565, 0.31761);
    (100., 0.16644, 0.35714);
    (200., 0.34342, 0.52297);
    (300., 0.48283, 0.64603);
    (400., 0.59263, 0.73734);
    (500., 0.67913, 0.8051);
    (1000., 0.90271, 0.95615);
    (2000., 0.99105, 0.99778);
  ]

let fig10_tests =
  [
    Alcotest.test_case "characteristic times of the Fig. 7 network" `Quick (fun () ->
        check_close "T_P" 419. fig7_times.Rctree.Times.t_p;
        check_close "T_De" 363. fig7_times.Rctree.Times.t_d;
        check_close "T_Re" (6033. /. 18.) fig7_times.Rctree.Times.t_r);
    Alcotest.test_case "delay table (9 rows of Fig. 10)" `Quick (fun () ->
        List.iter
          (fun (v, tmin, tmax) ->
            check_close ~eps:0.05 (Printf.sprintf "TMIN(%.1f)" v) tmin
              (Rctree.Bounds.t_min fig7_times v);
            check_close ~eps:0.05 (Printf.sprintf "TMAX(%.1f)" v) tmax
              (Rctree.Bounds.t_max fig7_times v))
          fig10_delay_rows);
    Alcotest.test_case "voltage table (11 rows of Fig. 10)" `Quick (fun () ->
        List.iter
          (fun (t, vmin, vmax) ->
            check_close ~eps:5e-5 (Printf.sprintf "VMIN(%g)" t) vmin
              (Rctree.Bounds.v_min fig7_times t);
            check_close ~eps:5e-5 (Printf.sprintf "VMAX(%g)" t) vmax
              (Rctree.Bounds.v_max fig7_times t))
          fig10_voltage_rows);
    Alcotest.test_case "the same numbers via the general tree machinery" `Quick (fun () ->
        let tree = Rctree.Convert.tree_of_expr Rctree.Expr.fig7 in
        let h = Rctree.Analysis.make tree in
        let lo, hi = Rctree.Analysis.delay_bounds h ~output:(`Name "out") ~threshold:0.5 in
        check_close ~eps:0.05 "tmin" 184.23 lo;
        check_close ~eps:0.05 "tmax" 314.15 hi);
  ]

(* Golden regression for the Fig. 11 picture: (t, VMIN, exact, VMAX)
   on the Fig. 7 network, the exact column from the 64-segment
   eigendecomposition.  Values are frozen outputs of this code; the
   relative tolerance is tagged per column — 1e-9 on the closed-form
   bounds, 1e-4 on the simulated column to absorb platform FP variance
   while still catching any real change in the algebra. *)
let fig11_golden =
  [
    (50., 0.057550844, 0.125606623, 0.252983294);
    (100., 0.166442019, 0.243553694, 0.357139231);
    (200., 0.343423129, 0.427195616, 0.522974884);
    (300., 0.482827593, 0.564617104, 0.646030724);
    (400., 0.592633688, 0.668876162, 0.737342450);
    (600., 0.747253796, 0.808436234, 0.855376612);
    (1000., 0.902706527, 0.935882640, 0.956153410);
  ]

let check_rel ?(rtol = 1e-4) msg expected actual =
  if Float.abs (actual -. expected) > rtol *. Float.max 1e-30 (Float.abs expected) then
    Alcotest.failf "%s: expected %.9g, got %.9g (rtol %g)" msg expected actual rtol

let fig11_tests =
  [
    Alcotest.test_case "golden exact-vs-bounds curve" `Quick (fun () ->
        let tree = Rctree.Convert.tree_of_expr Rctree.Expr.fig7 in
        let out = Rctree.Tree.output_named tree "out" in
        let times = Array.of_list (List.map (fun (t, _, _, _) -> t) fig11_golden) in
        let exact = Circuit.Waveform.values (Circuit.Measure.exact_response tree ~output:out ~times) in
        List.iteri
          (fun i (t, vmin, v, vmax) ->
            check_rel ~rtol:1e-6 (Printf.sprintf "VMIN(%g)" t) vmin (Rctree.Bounds.v_min fig7_times t);
            check_rel ~rtol:1e-6 (Printf.sprintf "VMAX(%g)" t) vmax (Rctree.Bounds.v_max fig7_times t);
            check_rel (Printf.sprintf "exact(%g)" t) v exact.(i))
          fig11_golden);
    Alcotest.test_case "golden exact threshold delays" `Quick (fun () ->
        let tree = Rctree.Convert.tree_of_expr Rctree.Expr.fig7 in
        let out = Rctree.Tree.output_named tree "out" in
        check_rel "d50" 249.499091
          (Circuit.Measure.exact_delay tree ~output:out ~threshold:0.5);
        check_rel "d90" 837.568589
          (Circuit.Measure.exact_delay tree ~output:out ~threshold:0.9));
    Alcotest.test_case "exact response lies between the bounds" `Quick (fun () ->
        let tree = Rctree.Convert.tree_of_expr Rctree.Expr.fig7 in
        let out = Rctree.Tree.output_named tree "out" in
        let times = Array.init 61 (fun i -> float_of_int i *. 10.) in
        check_bool "bracketed" true (Circuit.Measure.bounds_hold tree ~output:out ~times));
    Alcotest.test_case "exact 50% delay within the certified window" `Quick (fun () ->
        let tree = Rctree.Convert.tree_of_expr Rctree.Expr.fig7 in
        let out = Rctree.Tree.output_named tree "out" in
        let exact = Circuit.Measure.exact_delay tree ~output:out ~threshold:0.5 in
        check_bool "inside" true (184.23 <= exact && exact <= 314.15));
    Alcotest.test_case "exact delay stable under discretization" `Quick (fun () ->
        let tree = Rctree.Convert.tree_of_expr Rctree.Expr.fig7 in
        let out = Rctree.Tree.output_named tree "out" in
        let d32 = Circuit.Measure.exact_delay ~segments:32 tree ~output:out ~threshold:0.5 in
        let d64 = Circuit.Measure.exact_delay ~segments:64 tree ~output:out ~threshold:0.5 in
        check_close ~eps:0.01 "converged" d64 d32);
  ]

(* Golden regression for the Fig. 13 sweep: (minterms, t_min, t_max)
   in seconds at the paper's 0.7 threshold, geometry-derived process.
   Frozen outputs of this code; rtol 1e-4. *)
let fig13_golden =
  [
    (2, 2.56405e-11, 4.01292e-11);
    (10, 1.05687e-10, 1.98173e-10);
    (20, 3.00868e-10, 5.68993e-10);
    (40, 9.98867e-10, 1.89603e-09);
    (100, 5.5443e-09, 1.05683e-08);
  ]

let fig13_tests =
  let process = Tech.Process.default_4um in
  let params = Tech.Pla.default_params process in
  [
    Alcotest.test_case "golden PLA sweep" `Quick (fun () ->
        let got = Tech.Pla.sweep process params ~minterms:(List.map (fun (n, _, _) -> n) fig13_golden) in
        List.iter2
          (fun (n, lo, hi) (n', lo', hi') ->
            check_int (Printf.sprintf "minterms %d" n) n n';
            check_rel (Printf.sprintf "t_min(%d)" n) lo lo';
            check_rel (Printf.sprintf "t_max(%d)" n) hi hi')
          fig13_golden got);
    Alcotest.test_case "worst case at 100 minterms is ~10 ns" `Quick (fun () ->
        let _, hi = Tech.Pla.delay_bounds process params ~minterms:100 in
        check_bool "order of 10ns" true (hi > 8e-9 && hi < 12e-9));
    Alcotest.test_case "quadratic dependence on line length" `Quick (fun () ->
        (* slope of log tmax vs log n should head towards 2 for large n
           (the driver keeps it below 2 at these sizes; the paper's plot
           shows the same bend) *)
        let ns = [ 20; 40; 60; 100 ] in
        let xs = Array.of_list (List.map float_of_int ns) in
        let ys =
          Array.of_list
            (List.map (fun n -> snd (Tech.Pla.delay_bounds process params ~minterms:n)) ns)
        in
        let slope = Numeric.Stats.log_log_slope xs ys in
        check_bool "slope" true (slope > 1.6 && slope < 2.1));
    Alcotest.test_case "bounds monotone in minterm count" `Quick (fun () ->
        let sweep = Tech.Pla.sweep process params ~minterms:[ 2; 4; 10; 20; 40; 100 ] in
        let rec monotone = function
          | (_, lo1, hi1) :: ((_, lo2, hi2) :: _ as rest) ->
              lo1 <= lo2 && hi1 <= hi2 && monotone rest
          | [ _ ] | [] -> true
        in
        check_bool "monotone" true (monotone sweep));
    Alcotest.test_case "geometry-derived values match the Fig. 12 listing" `Quick (fun () ->
        (* within 1%: 180 ohm / 0.0107 pF wire, 30 ohm / 0.0134 pF gate *)
        let wire = Tech.Wire.segment ~layer:Tech.Wire.Poly ~length:24e-6 ~width:4e-6 in
        check_close ~eps:0.5 "wire R" 180. (Tech.Wire.resistance process wire);
        check_close ~eps:1e-16 "wire C" 0.0107e-12 (Tech.Wire.capacitance process wire);
        check_close ~eps:1e-16 "gate C" 0.0134e-12 (Tech.Mosfet.minimum_gate_load process));
    Alcotest.test_case "listing and geometry agree on the sweep" `Quick (fun () ->
        List.iter
          (fun n ->
            let _, hi = Tech.Pla.delay_bounds process params ~minterms:n in
            let ts = Rctree.Expr.times (Tech.Pla.paper_line ~minterms:n) in
            (* the listing works in ohm*pF = picoseconds *)
            let hi_listing = Rctree.Bounds.t_max ts 0.7 *. 1e-12 in
            check_bool
              (Printf.sprintf "n=%d within 1%%" n)
              true
              (Float.abs (hi -. hi_listing) /. hi_listing < 0.01))
          [ 2; 10; 40; 100 ]);
  ]

let constants_tests =
  [
    Alcotest.test_case "uniform line: T_P = T_De = RC/2, T_Re = RC/3" `Quick (fun () ->
        let ts = Rctree.Expr.times (Rctree.Expr.urc 10. 10.) in
        check_close "tp" 50. ts.Rctree.Times.t_p;
        check_close "td" 50. ts.Rctree.Times.t_d;
        check_close "tr" (100. /. 3.) ts.Rctree.Times.t_r);
    Alcotest.test_case "line without side branches: T_De = T_P" `Quick (fun () ->
        (* nonuniform line built as a cascade of different URCs *)
        let e =
          Rctree.Expr.cascade_all
            [ Rctree.Expr.urc 1. 5.; Rctree.Expr.urc 10. 0.5; Rctree.Expr.urc 3. 2. ]
        in
        let ts = Rctree.Expr.times e in
        check_close "td=tp" ts.Rctree.Times.t_p ts.Rctree.Times.t_d);
    Alcotest.test_case "eq.(7) on the paper networks" `Quick (fun () ->
        check_bool "fig7" true (Rctree.Times.check fig7_times);
        check_bool "pla" true
          (Rctree.Times.check (Rctree.Expr.times (Rctree.Expr.pla_line 40))));
    Alcotest.test_case "fig4 area identity: area above response = T_De" `Quick (fun () ->
        let tree = Rctree.Convert.tree_of_expr Rctree.Expr.fig7 in
        let out = Rctree.Tree.output_named tree "out" in
        check_close ~eps:1e-6 "area" 363. (Circuit.Measure.elmore_by_area tree ~output:out));
  ]

let () =
  Alcotest.run "paper"
    [
      ("fig10", fig10_tests);
      ("fig11", fig11_tests);
      ("fig13", fig13_tests);
      ("constants", constants_tests);
    ]
