type system = {
  g : Numeric.Matrix.t;
  c : Numeric.Vector.t;
  b : Numeric.Vector.t;
  node_of_row : int array;
  row_of_node : int array;
}

let of_tree ?cap_floor tree =
  if Rctree.Tree.has_distributed_lines tree then
    invalid_arg "Mna.of_tree: discretize distributed lines first (Rctree.Lump.discretize)";
  let n = Rctree.Tree.node_count tree in
  let rows = n - 1 in
  (* the input is node 0 and is not a row: node id = row + 1 *)
  let row_of_node = Array.init n (fun id -> id - 1) in
  let node_of_row = Array.init rows (fun row -> row + 1) in
  let floor =
    match cap_floor with
    | Some f ->
        if f < 0. then invalid_arg "Mna.of_tree: cap_floor must be non-negative";
        f
    | None ->
        let total = Rctree.Tree.total_capacitance tree in
        if total > 0. then 1e-12 *. total else 1e-18
  in
  let g = Numeric.Matrix.create rows rows in
  let b = Numeric.Vector.create rows in
  let c = Numeric.Vector.create rows in
  let parents = Rctree.Tree.parents tree and r = Rctree.Tree.resistances tree in
  let cap = Rctree.Tree.capacitances tree in
  for id = 1 to n - 1 do
    let row = id - 1 in
    c.(row) <- Float.max floor cap.(id);
    if r.(id) <= 0. then
      invalid_arg
        (Printf.sprintf "Mna.of_tree: node %S connects through zero resistance"
           (Rctree.Tree.node_name tree id));
    let cond = 1. /. r.(id) and prow = parents.(id) - 1 in
    Numeric.Matrix.add_entry g row row cond;
    if prow < 0 then b.(row) <- b.(row) +. cond
    else begin
      Numeric.Matrix.add_entry g prow prow cond;
      Numeric.Matrix.add_entry g row prow (-.cond);
      Numeric.Matrix.add_entry g prow row (-.cond)
    end
  done;
  { g; c; b; node_of_row; row_of_node }

let c_matrix sys =
  let n = Numeric.Vector.dim sys.c in
  Numeric.Matrix.init n n (fun i j -> if i = j then sys.c.(i) else 0.)

let dc_solution sys = Numeric.Lu.solve sys.g sys.b
