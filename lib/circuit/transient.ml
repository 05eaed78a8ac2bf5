type integration = Backward_euler | Trapezoidal
type solver = [ `Direct | `Cg | `Dense ]

let m_simulations = Obs.Counter.make "transient.simulations"
let m_steps = Obs.Counter.make "transient.steps"
let m_nodes = Obs.Histogram.make "transient.nodes_per_sim"

type result = {
  times : float array;
  slot : (Rctree.Tree.node_id, int) Hashtbl.t; (* recorded node -> index into [values] *)
  values : float array array; (* per recorded node, then sample *)
}

let step_input = Rctree.Excitation.unit_step

(* the grid of Numeric.Ode.simulate, t_{k+1} = t_k + dt until t_end is
   reached, with the same float accumulation; float refs in loops, so
   nothing is boxed *)
let time_grid ~dt ~t_end =
  let samples = ref 1 and t = ref 0. in
  while !t < t_end do
    t := !t +. dt;
    incr samples
  done;
  let times = Array.make !samples 0. in
  for k = 1 to !samples - 1 do
    times.(k) <- times.(k - 1) +. dt
  done;
  times

(* One solver's view of the discrete system: the state row of each tree
   node (-1 for the driven input), the state size, and the step from
   sample k to k + 1, which may reuse the storage of the state it is
   given. *)
type stepper = {
  row : Rctree.Tree.node_id -> int;
  rows : int;
  step : int -> float array -> float array;
}

(* the [`Dense] oracle: dense MNA stamping + one LU factorization shared
   by every step (Numeric.Ode), independent of the tree operator *)
let dense_stepper ~integration ?cap_floor tree ~dt ~u =
  let sys = Mna.of_tree ?cap_floor tree in
  let c = Mna.c_matrix sys in
  let stepper =
    match integration with
    | Backward_euler -> Numeric.Ode.backward_euler ~c ~g:sys.g ~b:sys.b ~dt
    | Trapezoidal -> Numeric.Ode.trapezoidal ~c ~g:sys.g ~b:sys.b ~dt
  in
  {
    row = (fun node -> sys.Mna.row_of_node.(node));
    rows = Numeric.Vector.dim sys.b;
    step = (fun k x -> Numeric.Ode.step stepper ~x ~u_now:u.(k) ~u_next:u.(k + 1));
  }

(* the right-hand side of the step from sample k, into [rhs]:
     backward Euler  rhs = C/dt x + b u_{k+1}
     trapezoidal     rhs = (2C/dt - G) x + b (u_k + u_{k+1})
                         = 2 (2C/dt) x - (2C/dt + G) x + b (u_k + u_{k+1}) *)
let assemble ~integration op ~c_over_dt ~sources ~u k x rhs =
  let rows = Array.length rhs in
  (match integration with
  | Backward_euler ->
      for r = 0 to rows - 1 do
        rhs.(r) <- c_over_dt.(r) *. x.(r)
      done
  | Trapezoidal ->
      Large.apply_into op x ~into:rhs;
      for r = 0 to rows - 1 do
        rhs.(r) <- (2. *. c_over_dt.(r) *. x.(r)) -. rhs.(r)
      done);
  let drive =
    match integration with Backward_euler -> u.(k + 1) | Trapezoidal -> u.(k) +. u.(k + 1)
  in
  for j = 0 to Array.length sources - 1 do
    let r, g = sources.(j) in
    rhs.(r) <- rhs.(r) +. (g *. drive)
  done

(* the tree-structured solvers.  The iteration matrix is (C/dt' + G)
   with dt' = dt for backward Euler and dt' = dt/2 for trapezoidal (so
   [Large.operator ~dt:dt'] stamps exactly 2C/dt + G); each step solves
   it either through the factor-once zero-fill-in LDLᵀ ([`Direct], two
   O(n) sweeps in place, nothing allocated) or by matrix-free CG
   ([`Cg]). *)
let tree_stepper ~integration ~solver ?cap_floor tree ~dt ~u =
  let op_dt = match integration with Backward_euler -> dt | Trapezoidal -> dt /. 2. in
  let op = Large.operator ?cap_floor tree ~dt:op_dt in
  let rows = Large.node_count op in
  let c_over_dt = Large.c_over_dt op and sources = Array.of_list (Large.source_rows op) in
  let rhs = Array.make rows 0. in
  let solve =
    match solver with
    | `Direct ->
        let f = Large.factor op in
        fun b ->
          Numeric.Tree_ldl.solve_in_place f b;
          b
    | `Cg ->
        let diag = Large.diagonal op and mul = Large.apply op in
        fun b -> fst (Numeric.Cg.solve ~tol:1e-12 ~diag_precondition:diag ~mul b)
  in
  {
    row = Large.row op;
    rows;
    step =
      (fun k x ->
        assemble ~integration op ~c_over_dt ~sources ~u k x rhs;
        Array.blit rhs 0 x 0 rows;
        solve x);
  }

let simulate ?(integration = Trapezoidal) ?(solver = `Direct) ?cap_floor ?outputs tree ~dt
    ~t_end ~input =
  if not (dt > 0. && Float.is_finite dt) then
    invalid_arg "Transient.simulate: dt must be positive";
  if not (t_end >= 0. && Float.is_finite t_end) then
    invalid_arg "Transient.simulate: t_end must be non-negative";
  let n = Rctree.Tree.node_count tree in
  let nodes =
    Array.of_list
      (match outputs with Some nodes -> nodes | None -> List.map snd (Rctree.Tree.outputs tree))
  in
  Array.iter
    (fun node -> if node < 0 || node >= n then invalid_arg "Transient.simulate: unknown node")
    nodes;
  Obs.Span.with_ ~name:"circuit.transient" @@ fun () ->
  Obs.Counter.incr m_simulations;
  let times = time_grid ~dt ~t_end in
  let u = Rctree.Excitation.sample input times in
  let s =
    match solver with
    | `Dense -> dense_stepper ~integration ?cap_floor tree ~dt ~u
    | (`Direct | `Cg) as solver -> tree_stepper ~integration ~solver ?cap_floor tree ~dt ~u
  in
  let rows = Array.map s.row nodes in
  let values = Array.map (fun _ -> Array.make (Array.length times) 0.) nodes in
  (* plain loops, not closures over floats: the [`Direct] path must not
     allocate per step *)
  let record k x =
    for j = 0 to Array.length rows - 1 do
      let r = rows.(j) in
      values.(j).(k) <- (if r = -1 then u.(k) else x.(r))
    done
  in
  let x = ref (Array.make s.rows 0.) in
  record 0 !x;
  for k = 0 to Array.length times - 2 do
    x := s.step k !x;
    Obs.Counter.incr m_steps;
    record (k + 1) !x
  done;
  Obs.Histogram.observe m_nodes (float_of_int (n - 1));
  let slot = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun j node -> if not (Hashtbl.mem slot node) then Hashtbl.add slot node j) nodes;
  { times; slot; values }

let waveform r ~node =
  match Hashtbl.find_opt r.slot node with
  | Some j -> Waveform.create ~times:r.times ~values:r.values.(j)
  | None -> invalid_arg "Transient.waveform: node not recorded"
