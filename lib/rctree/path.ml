let resistance_to_root t id =
  let parent = Tree.parents t and r = Tree.resistances t in
  let rec up id acc = if id = 0 then acc else up parent.(id) (acc +. r.(id)) in
  up id 0.

let all_resistances_to_root t =
  let n = Tree.node_count t in
  let parent = Tree.parents t and r = Tree.resistances t in
  let rkk = Array.make n 0. in
  (* index order is top-down, so parents are filled before children *)
  for id = 1 to n - 1 do
    rkk.(id) <- rkk.(parent.(id)) +. r.(id)
  done;
  rkk

let path_to_root t id =
  let parent = Tree.parents t in
  let rec up id acc = if id = 0 then List.rev (id :: acc) else up parent.(id) (id :: acc) in
  up id []

let on_path_to t e =
  let parent = Tree.parents t in
  let marks = Array.make (Tree.node_count t) false in
  let rec up id =
    marks.(id) <- true;
    if id <> 0 then up parent.(id)
  in
  up e;
  marks

let lowest_common_ancestor t a b =
  let parent = Tree.parents t in
  let on_a = on_path_to t a in
  let rec up id = if on_a.(id) then id else up parent.(id) in
  up b

let shared_resistance t k e = resistance_to_root t (lowest_common_ancestor t k e)

let shared_resistances_to t e =
  let n = Tree.node_count t in
  let parent = Tree.parents t in
  let rkk = all_resistances_to_root t in
  let on_path = on_path_to t e in
  let rke = Array.make n 0. in
  (* top-down: a node on the path keeps its own R_kk; any other node
     inherits its parent's value (the branch-point resistance) *)
  for id = 1 to n - 1 do
    rke.(id) <- (if on_path.(id) then rkk.(id) else rke.(parent.(id)))
  done;
  rke
