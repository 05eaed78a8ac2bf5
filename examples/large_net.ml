(* The paper's point at production scale.

   The bounds exist because exact simulation of big interconnect is
   expensive.  Here a single net grows from 100 to 20 000 RC sections;
   at every size we time

     - the three characteristic times + bounds (the paper's method),
     - one backward-Euler step of the tree-structured simulator
       (what a transient pays per time step),

   and, where it is still affordable, a full simulation to confirm the
   window.  The bounds stay microseconds while simulation grows without
   bound — the engineering argument of the whole paper in one table.

   Run with: dune exec examples/large_net.exe *)

let step_wave tree ~dt ~t_end ~output =
  Circuit.Transient.waveform
    (Circuit.Transient.simulate ~integration:Circuit.Transient.Backward_euler
       ~outputs:[ output ] tree ~dt ~t_end ~input:Circuit.Transient.step_input)
    ~node:output

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  Printf.printf "uniform RC chain, r = 10 ohm and c = 10 fF per section, threshold 0.5\n\n";
  let table =
    Reprolib.Table.create
      ~columns:
        [ "sections"; "bounds(ms)"; "tmin(ns)"; "tmax(ns)"; "1 BE step(ms)"; "exact(ns)" ]
  in
  List.iter
    (fun n ->
      let tree = Circuit.Large.rc_chain ~sections:n ~r:10. ~c:1e-14 in
      let out = Rctree.Tree.output_named tree "out" in
      let (lo, hi), t_bounds =
        wall (fun () ->
            let h = Rctree.Analysis.make tree in
            Rctree.Analysis.delay_bounds h ~output:(`Id out) ~threshold:0.5)
      in
      let _, t_step =
        wall (fun () -> step_wave tree ~dt:1e-10 ~t_end:1e-10 ~output:out)
      in
      (* full reference simulation only while cheap: O(n^2) sections*steps *)
      let exact =
        if n <= 800 then begin
          let tau = Rctree.Moments.elmore tree ~output:out in
          let dt = tau /. 400. in
          let ws = step_wave tree ~dt ~t_end:(2. *. tau) ~output:out in
          match Circuit.Waveform.crossing_time ws ~threshold:0.5 with
          | Some t -> Printf.sprintf "%.3f" (t *. 1e9)
          | None -> "-"
        end
        else "(skipped)"
      in
      Reprolib.Table.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.3f" (t_bounds *. 1e3);
          Printf.sprintf "%.3f" (lo *. 1e9);
          Printf.sprintf "%.3f" (hi *. 1e9);
          Printf.sprintf "%.2f" (t_step *. 1e3);
          exact;
        ])
    [ 100; 400; 800; 4000; 20000 ];
  Reprolib.Table.print table;
  print_newline ();
  print_endline
    "the certified window costs O(n) arithmetic regardless of dynamics; the simulator\n\
     pays that much for every time step, and needs hundreds of steps per transition.";
  (* and the window is not merely cheap — it is correct *)
  let tree = Circuit.Large.rc_chain ~sections:400 ~r:10. ~c:1e-14 in
  let out = Rctree.Tree.output_named tree "out" in
  let lo, hi =
    Rctree.Analysis.delay_bounds (Rctree.Analysis.make tree) ~output:(`Id out) ~threshold:0.5
  in
  let tau = Rctree.Moments.elmore tree ~output:out in
  let ws = step_wave tree ~dt:(tau /. 400.) ~t_end:(2. *. tau) ~output:out in
  match Circuit.Waveform.crossing_time ws ~threshold:0.5 with
  | Some t ->
      Printf.printf "\nat 400 sections: exact %.3f ns inside [%.3f, %.3f] ns: %b\n" (t *. 1e9)
        (lo *. 1e9) (hi *. 1e9)
        (lo <= t && t <= hi)
  | None -> print_endline "no crossing found (unexpected)"
