(* The input is node 0 and ids are parent-first, so node [id] is row
   [id - 1] and its parent row is [parents.(id) - 1]: -1 exactly when
   the parent is the driven input. *)
type operator = {
  conductance : float array; (* per row: 1/R of the edge above it *)
  parent_row : int array;
  c_over_dt : float array;
}

let operator ?cap_floor tree ~dt =
  if dt <= 0. then invalid_arg "Large.operator: dt must be positive";
  if Rctree.Tree.has_distributed_lines tree then
    invalid_arg "Large.operator: discretize distributed lines first";
  let rows = Rctree.Tree.node_count tree - 1 in
  let parents = Rctree.Tree.parents tree and r = Rctree.Tree.resistances tree in
  let cap = Rctree.Tree.capacitances tree in
  let floor =
    match cap_floor with
    | Some f ->
        if f < 0. then invalid_arg "Large.operator: cap_floor must be non-negative";
        f
    | None ->
        let total = Rctree.Tree.total_capacitance tree in
        if total > 0. then 1e-12 *. total else 1e-18
  in
  let conductance = Array.make rows 0. and c_over_dt = Array.make rows 0. in
  let parent_row = Array.make rows (-1) in
  for row = 0 to rows - 1 do
    let id = row + 1 in
    if not (r.(id) > 0.) then
      invalid_arg
        (Printf.sprintf "Large.operator: node %S connects through zero resistance"
           (Rctree.Tree.node_name tree id));
    conductance.(row) <- 1. /. r.(id);
    c_over_dt.(row) <- Float.max floor cap.(id) /. dt;
    parent_row.(row) <- parents.(id) - 1
  done;
  { conductance; parent_row; c_over_dt }

let node_count op = Array.length op.conductance

let row op node =
  if node < 0 || node > node_count op then invalid_arg "Large.row: unknown node";
  node - 1

let c_over_dt op = op.c_over_dt

let source_rows op =
  let acc = ref [] in
  Array.iteri
    (fun row p -> if p = -1 then acc := (row, op.conductance.(row)) :: !acc)
    op.parent_row;
  !acc

(* c + g + (Σ children g), the children summed in descending row order:
   a fixed association, so the factor and every solve round the same way
   on every run *)
let diagonal op =
  let rows = node_count op in
  let below = Array.make rows 0. in
  for row = rows - 1 downto 0 do
    let p = op.parent_row.(row) in
    if p >= 0 then below.(p) <- below.(p) +. op.conductance.(row)
  done;
  (* in place: Array.init over a float closure would box every entry *)
  for row = 0 to rows - 1 do
    below.(row) <- op.c_over_dt.(row) +. op.conductance.(row) +. below.(row)
  done;
  below

(* y = (C/dt + G) x into a caller buffer, walking edges instead of a
   matrix: first each row's own capacitor and the edge above it, then
   the edges below each row, children in descending row order *)
let apply_into op x ~into:y =
  let rows = Array.length op.conductance in
  if Array.length x <> rows || Array.length y <> rows then
    invalid_arg "Large.apply: dimension mismatch";
  for row = 0 to rows - 1 do
    let p = op.parent_row.(row) in
    let xp = if p = -1 then 0. else x.(p) in
    y.(row) <- (op.c_over_dt.(row) *. x.(row)) +. (op.conductance.(row) *. (x.(row) -. xp))
  done;
  for row = rows - 1 downto 0 do
    let p = op.parent_row.(row) in
    if p >= 0 then y.(p) <- y.(p) +. (op.conductance.(row) *. (x.(p) -. x.(row)))
  done

let apply op x =
  let y = Array.make (Array.length op.conductance) 0. in
  apply_into op x ~into:y;
  y

(* leaf-first elimination of (C/dt + G): the builder numbers parents
   before children, so [parent_row] already satisfies Tree_ldl's
   elimination-order contract *)
let factor op =
  let rows = node_count op in
  let offdiag = Array.make rows 0. in
  for r = 0 to rows - 1 do
    if op.parent_row.(r) <> -1 then offdiag.(r) <- -.op.conductance.(r)
  done;
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
