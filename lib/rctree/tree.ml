type node_id = int

type t = {
  name : string;
  parents : int array; (* -1 for the input *)
  elements : Element.t option array;
  caps : float array;
  names : string array;
  children : int list array; (* in insertion order *)
  outputs : (string * node_id) list;
  by_label : (string, node_id) Hashtbl.t; (* first-marked node of each label *)
  marked : bool array; (* node id -> carries at least one output label *)
}

module Builder = struct
  type entry = {
    b_parent : int;
    b_element : Element.t option;
    mutable b_cap : float;
    b_name : string;
    mutable b_children : int list; (* reverse insertion order *)
  }

  type t = {
    tree_name : string;
    mutable entries : entry array;
    mutable count : int;
    mutable outs : (string * node_id) list; (* reverse marking order *)
    seen : (string * node_id, unit) Hashtbl.t; (* the pairs in [outs] *)
  }

  let default_name id = "n" ^ string_of_int id

  let create ?(name = "rc-tree") () =
    let input_entry =
      { b_parent = -1; b_element = None; b_cap = 0.; b_name = "in"; b_children = [] }
    in
    let entries = Array.make 8 input_entry in
    { tree_name = name; entries; count = 1; outs = []; seen = Hashtbl.create 16 }

  let input (_ : t) = 0

  let check_node b id op =
    if id < 0 || id >= b.count then
      invalid_arg (Printf.sprintf "Tree.Builder.%s: unknown node %d" op id)

  let grow b =
    if b.count = Array.length b.entries then begin
      let bigger = Array.make (2 * b.count) b.entries.(0) in
      Array.blit b.entries 0 bigger 0 b.count;
      b.entries <- bigger
    end

  let add_entry b ~parent ~name element =
    grow b;
    let id = b.count in
    let name = match name with Some n -> n | None -> default_name id in
    b.entries.(id) <- { b_parent = parent; b_element = Some element; b_cap = 0.; b_name = name; b_children = [] };
    b.count <- id + 1;
    let p = b.entries.(parent) in
    p.b_children <- id :: p.b_children;
    id

  let add_node b ~parent ?name element =
    check_node b parent "add_node";
    match element with
    | Element.Capacitor _ ->
        invalid_arg "Tree.Builder.add_node: capacitance belongs to nodes, use add_capacitance"
    | Element.Resistor _ | Element.Line _ -> add_entry b ~parent ~name element

  let add_resistor b ~parent ?name r = add_node b ~parent ?name (Element.resistor r)

  let add_capacitance b id c =
    check_node b id "add_capacitance";
    if c < 0. || not (Float.is_finite c) then
      invalid_arg "Tree.Builder.add_capacitance: capacitance must be finite and non-negative";
    let e = b.entries.(id) in
    e.b_cap <- e.b_cap +. c

  let add_line b ~parent ?name resistance capacitance =
    check_node b parent "add_line";
    match Element.line ~resistance ~capacitance with
    | Element.Capacitor c ->
        add_capacitance b parent c;
        parent
    | (Element.Resistor _ | Element.Line _) as e -> add_entry b ~parent ~name e

  let mark_output b ?label id =
    check_node b id "mark_output";
    let label = match label with Some l -> l | None -> b.entries.(id).b_name in
    if not (Hashtbl.mem b.seen (label, id)) then begin
      Hashtbl.add b.seen (label, id) ();
      b.outs <- (label, id) :: b.outs
    end

  let finish b =
    let n = b.count in
    let outputs = List.rev b.outs in
    let by_label = Hashtbl.create (List.length outputs) in
    let marked = Array.make n false in
    List.iter
      (fun (label, id) ->
        if not (Hashtbl.mem by_label label) then Hashtbl.add by_label label id;
        marked.(id) <- true)
      outputs;
    {
      name = b.tree_name;
      parents = Array.init n (fun i -> b.entries.(i).b_parent);
      elements = Array.init n (fun i -> b.entries.(i).b_element);
      caps = Array.init n (fun i -> b.entries.(i).b_cap);
      names = Array.init n (fun i -> b.entries.(i).b_name);
      children = Array.init n (fun i -> List.rev b.entries.(i).b_children);
      outputs;
      by_label;
      marked;
    }
end

let name t = t.name
let node_count t = Array.length t.parents
let input (_ : t) = 0

let check t id op =
  if id < 0 || id >= node_count t then invalid_arg (Printf.sprintf "Tree.%s: unknown node %d" op id)

let parent t id =
  check t id "parent";
  if id = 0 then None else Some t.parents.(id)

let element t id =
  check t id "element";
  t.elements.(id)

let capacitance t id =
  check t id "capacitance";
  t.caps.(id)

let children t id =
  check t id "children";
  t.children.(id)

let node_name t id =
  check t id "node_name";
  t.names.(id)

let find_node t n =
  let rec scan i =
    if i >= node_count t then None else if t.names.(i) = n then Some i else scan (i + 1)
  in
  scan 0

let outputs t = t.outputs
let output_named t label = Hashtbl.find t.by_label label
let is_output t id = id >= 0 && id < node_count t && t.marked.(id)

let depth t id =
  check t id "depth";
  let rec up id acc = if id = 0 then acc else up t.parents.(id) (acc + 1) in
  up id 0

let total_capacitance t =
  let acc = ref 0. in
  for i = 0 to node_count t - 1 do
    acc := !acc +. t.caps.(i) +. (match t.elements.(i) with Some e -> Element.capacitance e | None -> 0.)
  done;
  !acc

let total_resistance t =
  let acc = ref 0. in
  for i = 0 to node_count t - 1 do
    acc := !acc +. (match t.elements.(i) with Some e -> Element.resistance e | None -> 0.)
  done;
  !acc

let has_distributed_lines t =
  Array.exists (function Some e -> Element.is_distributed e | None -> false) t.elements

(* node ids are assigned parent-first by the builder, so index order is
   already a valid top-down order *)
let fold_nodes t ~init ~f =
  let acc = ref init in
  for i = 0 to node_count t - 1 do
    acc := f !acc i
  done;
  !acc

let iter_nodes t ~f =
  for i = 0 to node_count t - 1 do
    f i
  done

let pp fmt t =
  let rec dump indent id =
    let elem =
      match t.elements.(id) with None -> "input" | Some e -> Format.asprintf "%a" Element.pp e
    in
    let cap = if t.caps.(id) > 0. then Format.asprintf " C=%s" (Units.format_si t.caps.(id)) else "" in
    let out = if is_output t id then " [output]" else "" in
    Format.fprintf fmt "%s%s: %s%s%s@," indent t.names.(id) elem cap out;
    List.iter (dump (indent ^ "  ")) t.children.(id)
  in
  Format.fprintf fmt "@[<v>tree %s@," t.name;
  dump "  " 0;
  Format.fprintf fmt "@]"
