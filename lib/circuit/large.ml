type operator = {
  conductance : float array; (* per node: 1/R of the edge above it; 0 for the input *)
  parent_row : int array; (* row of the parent; -1 when the parent is the driven input *)
  children_rows : int list array; (* rows of the children *)
  c_over_dt : float array;
  source_rows : int list; (* rows whose parent is the driven input *)
  row_of_node : int array;
}

let operator ?cap_floor tree ~dt =
  if dt <= 0. then invalid_arg "Large.operator: dt must be positive";
  if Rctree.Tree.has_distributed_lines tree then
    invalid_arg "Large.operator: discretize distributed lines first";
  let n = Rctree.Tree.node_count tree in
  let input = Rctree.Tree.input tree in
  let rows = n - 1 in
  let row_of_node = Array.make n (-1) in
  let next = ref 0 in
  for id = 0 to n - 1 do
    if id <> input then begin
      row_of_node.(id) <- !next;
      incr next
    end
  done;
  let floor =
    match cap_floor with
    | Some f ->
        if f < 0. then invalid_arg "Large.operator: cap_floor must be non-negative";
        f
    | None ->
        let total = Rctree.Tree.total_capacitance tree in
        if total > 0. then 1e-12 *. total else 1e-18
  in
  let conductance = Array.make rows 0. in
  let parent_row = Array.make rows (-1) in
  let children_rows = Array.make rows [] in
  let c_over_dt = Array.make rows 0. in
  let source_rows = ref [] in
  for id = 0 to n - 1 do
    if id <> input then begin
      let row = row_of_node.(id) in
      c_over_dt.(row) <- Float.max floor (Rctree.Tree.capacitance tree id) /. dt;
      (match Rctree.Tree.element tree id with
      | Some (Rctree.Element.Resistor r) when r > 0. -> conductance.(row) <- 1. /. r
      | Some (Rctree.Element.Resistor _) ->
          invalid_arg
            (Printf.sprintf "Large.operator: node %S connects through zero resistance"
               (Rctree.Tree.node_name tree id))
      | Some (Rctree.Element.Line _) | Some (Rctree.Element.Capacitor _) | None -> assert false);
      match Rctree.Tree.parent tree id with
      | Some p when p = input ->
          parent_row.(row) <- -1;
          source_rows := row :: !source_rows
      | Some p ->
          let prow = row_of_node.(p) in
          parent_row.(row) <- prow;
          children_rows.(prow) <- row :: children_rows.(prow)
      | None -> assert false
    end
  done;
  { conductance; parent_row; children_rows; c_over_dt; source_rows = !source_rows; row_of_node }

let node_count op = Array.length op.conductance

let row op node =
  if node < 0 || node >= Array.length op.row_of_node then
    invalid_arg "Large.row: unknown node";
  op.row_of_node.(node)

let c_over_dt op = op.c_over_dt
let source_rows op = List.map (fun r -> (r, op.conductance.(r))) op.source_rows

let diagonal op =
  Array.init (node_count op) (fun r ->
      op.c_over_dt.(r) +. op.conductance.(r)
      +. List.fold_left (fun acc child -> acc +. op.conductance.(child)) 0. op.children_rows.(r))

(* the currents of the edges below row [r], added into y.(r): a top-level
   recursion rather than a List.iter closure, which would be allocated
   for every row of every step *)
let rec add_child_currents conductance x y r = function
  | [] -> ()
  | child :: rest ->
      y.(r) <- y.(r) +. (conductance.(child) *. (x.(r) -. x.(child)));
      add_child_currents conductance x y r rest

(* y = (C/dt + G) x into a caller buffer, walking edges instead of a matrix *)
let apply_into op x ~into:y =
  let rows = Array.length op.conductance in
  if Array.length x <> rows || Array.length y <> rows then
    invalid_arg "Large.apply: dimension mismatch";
  for r = 0 to rows - 1 do
    y.(r) <- op.c_over_dt.(r) *. x.(r);
    (* the edge above [r]: current g*(x_r - x_parent) *)
    let xp = if op.parent_row.(r) = -1 then 0. else x.(op.parent_row.(r)) in
    y.(r) <- y.(r) +. (op.conductance.(r) *. (x.(r) -. xp));
    (* edges below [r] *)
    add_child_currents op.conductance x y r op.children_rows.(r)
  done

let apply op x =
  let y = Array.make (Array.length op.conductance) 0. in
  apply_into op x ~into:y;
  y

(* leaf-first elimination of (C/dt + G): the builder numbers parents
   before children, so [parent_row] already satisfies Tree_ldl's
   elimination-order contract *)
let factor op =
  let offdiag =
    Array.init (node_count op) (fun r ->
        if op.parent_row.(r) = -1 then 0. else -.op.conductance.(r))
  in
  Numeric.Tree_ldl.factor ~parent:op.parent_row ~diag:(diagonal op) ~offdiag

let rc_chain ~sections ~r ~c =
  if sections < 1 then invalid_arg "Large.rc_chain: need at least one section";
  let b = Rctree.Tree.Builder.create ~name:(Printf.sprintf "chain-%d" sections) () in
  let at = ref (Rctree.Tree.Builder.input b) in
  for _ = 1 to sections do
    let node = Rctree.Tree.Builder.add_resistor b ~parent:!at r in
    Rctree.Tree.Builder.add_capacitance b node c;
    at := node
  done;
  Rctree.Tree.Builder.mark_output b ~label:"out" !at;
  Rctree.Tree.Builder.finish b
