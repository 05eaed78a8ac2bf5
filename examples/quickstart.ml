(* Quickstart: the paper's Fig. 7 network, three ways.

   1. As an algebraic expression (eq. 18) evaluated in linear time.
   2. As an explicit tree built with the builder API.
   3. Answering the paper's three questions: delay bounds given a
      threshold, voltage bounds given a time, and the "fast enough?"
      certification.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* --- 1. the algebraic route ----------------------------------- *)
  let expr = Rctree.Expr.fig7 in
  Printf.printf "network (eq. 18): %s\n\n" (Rctree.Expr.to_string expr);
  let ts = Rctree.Expr.times expr in
  Printf.printf "characteristic times: T_P = %g, T_De = %g, T_Re = %.4g\n\n" ts.Rctree.Times.t_p
    ts.Rctree.Times.t_d ts.Rctree.Times.t_r;

  (* --- 2. the same network through the builder ------------------ *)
  let b = Rctree.Tree.Builder.create ~name:"fig7-by-hand" () in
  let input = Rctree.Tree.Builder.input b in
  let a = Rctree.Tree.Builder.add_resistor b ~parent:input ~name:"a" 15. in
  Rctree.Tree.Builder.add_capacitance b a 2.;
  let branch_end = Rctree.Tree.Builder.add_resistor b ~parent:a ~name:"b" 8. in
  Rctree.Tree.Builder.add_capacitance b branch_end 7.;
  let e = Rctree.Tree.Builder.add_line b ~parent:a ~name:"e" 3. 4. in
  Rctree.Tree.Builder.add_capacitance b e 9.;
  Rctree.Tree.Builder.mark_output b ~label:"e" e;
  let tree = Rctree.Tree.Builder.finish b in
  let h = Rctree.Analysis.make tree in
  let ts_tree = Rctree.Analysis.times h ~output:(`Name "e") in
  Printf.printf "builder route agrees: %b\n\n" (Rctree.Times.equal ts ts_tree);

  (* --- 3. the three questions of the abstract ------------------- *)
  let out = Rctree.Tree.output_named tree "e" in
  let lo, hi = Rctree.Analysis.delay_bounds h ~output:(`Id out) ~threshold:0.5 in
  Printf.printf "Q1  when does the output pass 50%%?   t in [%.2f, %.2f]\n" lo hi;
  let vlo, vhi = Rctree.Analysis.voltage_bounds h ~output:(`Id out) ~time:100. in
  Printf.printf "Q2  where is the voltage at t=100?   v in [%.5f, %.5f]\n" vlo vhi;
  List.iter
    (fun deadline ->
      let verdict = Rctree.Analysis.certify h ~output:(`Id out) ~threshold:0.5 ~deadline in
      Printf.printf "Q3  settled to 50%% by t=%-4g?        %s\n" deadline
        (Rctree.Bounds.verdict_to_string verdict))
    [ 150.; 250.; 350. ];

  (* --- bonus: compare with the exact response ------------------- *)
  let exact = Circuit.Measure.exact_delay tree ~output:out ~threshold:0.5 in
  Printf.printf "\nexact 50%% crossing (simulator):     %.2f  (inside the window: %b)\n" exact
    (lo <= exact && exact <= hi)
