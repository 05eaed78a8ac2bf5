let m_to_tree = Obs.Counter.make "convert.tree_of_expr"
let m_to_expr = Obs.Counter.make "convert.expr_of_tree"
let m_to_incr = Obs.Counter.make "convert.incremental_of_tree"
let m_tree_nodes = Obs.Histogram.make "convert.tree_nodes"

let tree_of_expr ?(name = "expr") e =
  Obs.Counter.incr m_to_tree;
  let b = Tree.Builder.create ~name () in
  (* returns the node at the fragment's port 2 *)
  let rec attach at = function
    | Expr.Urc { resistance; capacitance } ->
        Tree.Builder.add_line b ~parent:at resistance capacitance
    | Expr.Branch sub ->
        let (_ : Tree.node_id) = attach at sub in
        at
    | Expr.Cascade (x, y) -> attach (attach at x) y
  in
  let out = attach (Tree.Builder.input b) e in
  Tree.Builder.mark_output b ~label:"out" out;
  let t = Tree.Builder.finish b in
  Obs.Histogram.observe m_tree_nodes (float_of_int (Tree.node_count t));
  t

(* The expression for one node consists of, in cascade order: the series
   element of its parent edge, its lumped capacitance, a WB branch per
   off-path child, and finally the on-path child (the spine), so that
   port 2 of the whole expression lands on the chosen output. *)
let expr_of_tree t ~output =
  if output < 0 || output >= Tree.node_count t then invalid_arg "Convert.expr_of_tree: unknown node";
  Obs.Counter.incr m_to_expr;
  let on_path = Path.on_path_to t output in
  let r = Tree.resistances t and line_c = Tree.line_capacitances t in
  let cap = Tree.capacitances t in
  let cap_leaf id rest = if cap.(id) > 0. then Expr.capacitor cap.(id) :: rest else rest in
  let edge_leaf id rest = if id = 0 then rest else Expr.urc r.(id) line_c.(id) :: rest in
  let rec below id =
    let spine, sides = List.partition (fun c -> on_path.(c)) (Tree.children t id) in
    let side_branches = List.map (fun c -> Expr.wb (fragment c)) sides in
    side_branches @ List.map fragment spine
  and fragment id =
    match edge_leaf id (cap_leaf id (below id)) with
    | [] -> Expr.capacitor 0. (* bare intermediate node *)
    | pieces -> Expr.cascade_all pieces
  in
  match cap_leaf (Tree.input t) (below (Tree.input t)) with
  | [] -> Expr.capacitor 0.
  | pieces -> Expr.cascade_all pieces

let incremental_of_tree t ~output =
  Obs.Counter.incr m_to_incr;
  Incremental.of_expr (expr_of_tree t ~output)
