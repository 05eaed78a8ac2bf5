let m_handles = Obs.Counter.make "rctree.analysis_handles"
let m_nodes = Obs.Counter.make "rctree.analysis_nodes"
let m_queries = Obs.Counter.make "rctree.analysis_queries"
let m_batches = Obs.Counter.make "rctree.analysis_batches"

type t = {
  tree : Tree.t;
  t_p : float;
  rkk : float array; (* R_kk: path resistance from the input to node k *)
  td : float array; (* Σ_j R_jk C_j with node k as the output: T_Dk *)
  s2 : float array; (* Σ_j R_jk² C_j, the numerator of T_Rk *)
}

type output = [ `Id of Tree.node_id | `Name of string ]

(* The all-nodes pass: the prefix/suffix recursion behind the paper's
   "more general programs".  Walking from node p to its child k across
   an edge of resistance R and distributed capacitance C_l raises the
   shared resistance of every capacitor beyond the edge (C_sub(k),
   lumped and distributed) from a = R_pp to a + R, and that of the
   line's own capacitance from a to a + xR along the line:

     T_D(k) = T_D(p) + R (C_sub(k) + C_l / 2)
     S2(k)  = S2(p)  + R (2a + R) C_sub(k) + C_l R (a + R / 3)

   Index order is top-down, so two forward sweeps and one reverse sweep
   cover the tree. *)
let make tree =
  Obs.Counter.incr m_handles;
  let n = Tree.node_count tree in
  Obs.Counter.add m_nodes n;
  let parent = Tree.parents tree and r = Tree.resistances tree in
  let c_line = Tree.line_capacitances tree in
  let rkk = Array.make n 0. and c_sub = Array.copy (Tree.capacitances tree) in
  let t_p = ref 0. in
  for k = 1 to n - 1 do
    let a = rkk.(parent.(k)) in
    rkk.(k) <- a +. r.(k);
    t_p := !t_p +. (c_sub.(k) *. rkk.(k)) +. (c_line.(k) *. (a +. (r.(k) /. 2.)))
  done;
  for k = n - 1 downto 1 do
    let p = parent.(k) in
    c_sub.(p) <- c_sub.(p) +. c_sub.(k) +. c_line.(k)
  done;
  (* T_D overwrites C_sub in place: a parent's slot is rewritten before
     any of its children reads it, and the input's row is zero *)
  let td = c_sub and s2 = Array.make n 0. in
  td.(0) <- 0.;
  for k = 1 to n - 1 do
    let p = parent.(k) and rk = r.(k) and cs = c_sub.(k) and cl = c_line.(k) in
    let a = rkk.(p) in
    td.(k) <- td.(p) +. (rk *. (cs +. (cl /. 2.)));
    s2.(k) <- s2.(p) +. (rk *. ((2. *. a) +. rk) *. cs) +. (cl *. rk *. (a +. (rk /. 3.)))
  done;
  { tree; t_p = !t_p; rkk; td; s2 }

let tree t = t.tree
let outputs t = Tree.outputs t.tree

let resolve t = function
  | `Id id ->
      if id < 0 || id >= Tree.node_count t.tree then
        invalid_arg (Printf.sprintf "Rctree.Analysis: unknown node %d" id);
      id
  | `Name label -> (
      match Tree.output_named t.tree label with
      | id -> id
      | exception Not_found ->
          invalid_arg (Printf.sprintf "Rctree.Analysis: no output labelled %S" label))

let read t id =
  Obs.Counter.incr m_queries;
  let ree = t.rkk.(id) in
  Times.make ~t_p:t.t_p ~t_d:t.td.(id) ~t_r:(if ree = 0. then 0. else t.s2.(id) /. ree)

let times t ~output = read t (resolve t output)

let delay_bounds t ~output ~threshold =
  let ts = times t ~output in
  (Bounds.t_min ts threshold, Bounds.t_max ts threshold)

let voltage_bounds t ~output ~time =
  let ts = times t ~output in
  (Bounds.v_min ts time, Bounds.v_max ts time)

let certify t ~output ~threshold ~deadline = Bounds.certify (times t ~output) ~threshold ~deadline
let elmore t ~output = (times t ~output).Times.t_d

let batch t f =
  Obs.Counter.incr m_batches;
  Obs.Span.with_ ~name:"rctree.analysis_batch" @@ fun () ->
  Array.of_list (List.map (fun (label, id) -> (label, id, f id)) (outputs t))

let all_times t = batch t (read t)
let all_delay_bounds t ~threshold = batch t (fun id -> delay_bounds t ~output:(`Id id) ~threshold)
let all_voltage_bounds t ~time = batch t (fun id -> voltage_bounds t ~output:(`Id id) ~time)

let all_certify t ~threshold ~deadline =
  batch t (fun id -> certify t ~output:(`Id id) ~threshold ~deadline)

let times_of_nodes t nodes =
  Obs.Counter.incr m_batches;
  Obs.Span.with_ ~name:"rctree.analysis_batch" @@ fun () ->
  Array.map (fun id -> times t ~output:(`Id id)) nodes
