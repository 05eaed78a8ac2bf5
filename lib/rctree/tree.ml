type node_id = int

type t = {
  name : string;
  parent : int array; (* -1 for the input *)
  r : float array; (* series resistance of the edge above the node; 0 for the input *)
  line_c : float array; (* distributed capacitance of that edge; 0 for a lumped resistor *)
  cap : float array; (* lumped capacitance at the node *)
  child_start : int array; (* CSR: the children of k are child_ids.(child_start.(k) ..) *)
  child_ids : int array; (* ascending per node, which is insertion order *)
  names : string array;
  outputs : (string * node_id) list;
  by_label : (string, node_id) Hashtbl.t; (* first-marked node of each label *)
  marked : bool array; (* node id -> carries at least one output label *)
}

module Builder = struct
  type t = {
    tree_name : string;
    mutable count : int;
    mutable b_parent : int array;
    mutable b_r : float array;
    mutable b_line_c : float array;
    mutable b_cap : float array;
    mutable b_names : string array;
    mutable outs : (string * node_id) list; (* reverse marking order *)
    seen : (string * node_id, unit) Hashtbl.t; (* the pairs in [outs] *)
  }

  let default_name id = "n" ^ string_of_int id

  (* small on purpose: STA builds a couple of tiny trees per net *)
  let initial = 8

  let create ?(name = "rc-tree") () =
    let names = Array.make initial "" in
    names.(0) <- "in";
    {
      tree_name = name;
      count = 1;
      b_parent = Array.make initial (-1);
      b_r = Array.make initial 0.;
      b_line_c = Array.make initial 0.;
      b_cap = Array.make initial 0.;
      b_names = names;
      outs = [];
      seen = Hashtbl.create 16;
    }

  let input (_ : t) = 0

  let check_node b id op =
    if id < 0 || id >= b.count then
      invalid_arg (Printf.sprintf "Tree.Builder.%s: unknown node %d" op id)

  let grow a fill =
    let bigger = Array.make (2 * Array.length a) fill in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger

  let add_edge b ~parent ~name r line_c =
    let id = b.count in
    if id = Array.length b.b_parent then begin
      b.b_parent <- grow b.b_parent (-1);
      b.b_r <- grow b.b_r 0.;
      b.b_line_c <- grow b.b_line_c 0.;
      b.b_cap <- grow b.b_cap 0.;
      b.b_names <- grow b.b_names ""
    end;
    b.b_parent.(id) <- parent;
    b.b_r.(id) <- r;
    b.b_line_c.(id) <- line_c;
    b.b_names.(id) <- (match name with Some n -> n | None -> default_name id);
    b.count <- id + 1;
    id

  let bad x = x < 0. || not (Float.is_finite x)

  let add_node b ~parent ?name element =
    check_node b parent "add_node";
    let reject what = invalid_arg ("Tree.Builder.add_node: " ^ what) in
    match element with
    | Element.Capacitor _ -> reject "capacitance belongs to nodes, use add_capacitance"
    | Element.Resistor r ->
        if bad r then reject "resistance must be finite and non-negative";
        add_edge b ~parent ~name r 0.
    | Element.Line { resistance; capacitance } ->
        if bad resistance || bad capacitance then
          reject "line values must be finite and non-negative";
        if resistance = 0. then reject "a line needs resistance, use add_line to fold it";
        add_edge b ~parent ~name resistance capacitance

  let add_resistor b ~parent ?name r =
    check_node b parent "add_resistor";
    if bad r then
      invalid_arg "Tree.Builder.add_resistor: resistance must be finite and non-negative";
    add_edge b ~parent ~name r 0.

  let add_capacitance b id c =
    check_node b id "add_capacitance";
    if bad c then
      invalid_arg "Tree.Builder.add_capacitance: capacitance must be finite and non-negative";
    b.b_cap.(id) <- b.b_cap.(id) +. c

  (* the paper's URC reduction, as in [Element.line]: zero capacitance is
     a resistor, zero resistance a capacitor folded into [parent] *)
  let add_line b ~parent ?name resistance capacitance =
    check_node b parent "add_line";
    if bad resistance || bad capacitance then
      invalid_arg "Tree.Builder.add_line: values must be finite and non-negative";
    if capacitance = 0. then add_edge b ~parent ~name resistance 0.
    else if resistance = 0. then begin
      add_capacitance b parent capacitance;
      parent
    end
    else add_edge b ~parent ~name resistance capacitance

  let mark_output b ?label id =
    check_node b id "mark_output";
    let label = match label with Some l -> l | None -> b.b_names.(id) in
    if not (Hashtbl.mem b.seen (label, id)) then begin
      Hashtbl.add b.seen (label, id) ();
      b.outs <- (label, id) :: b.outs
    end

  let finish b =
    let n = b.count in
    let parent = Array.sub b.b_parent 0 n in
    (* counting sort of the edges by parent; scanning ids upwards keeps
       each node's children ascending *)
    let child_start = Array.make (n + 1) 0 in
    for k = 1 to n - 1 do
      child_start.(parent.(k) + 1) <- child_start.(parent.(k) + 1) + 1
    done;
    for k = 1 to n do
      child_start.(k) <- child_start.(k) + child_start.(k - 1)
    done;
    let fill = Array.sub child_start 0 n and child_ids = Array.make (n - 1) 0 in
    for k = 1 to n - 1 do
      let p = parent.(k) in
      child_ids.(fill.(p)) <- k;
      fill.(p) <- fill.(p) + 1
    done;
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
      parent;
      r = Array.sub b.b_r 0 n;
      line_c = Array.sub b.b_line_c 0 n;
      cap = Array.sub b.b_cap 0 n;
      child_start;
      child_ids;
      names = Array.sub b.b_names 0 n;
      outputs;
      by_label;
      marked;
    }
end

let name t = t.name
let node_count t = Array.length t.parent
let input (_ : t) = 0
let parents t = t.parent
let resistances t = t.r
let line_capacitances t = t.line_c
let capacitances t = t.cap

let check t id op =
  if id < 0 || id >= node_count t then invalid_arg (Printf.sprintf "Tree.%s: unknown node %d" op id)

let parent t id =
  check t id "parent";
  t.parent.(id)

(* builders store a zero-resistance line as a folded capacitor and a
   zero-capacitance one as a resistor, so line_c > 0 marks a Line *)
let element t id =
  check t id "element";
  if id = 0 then None
  else if t.line_c.(id) > 0. then
    Some (Element.Line { resistance = t.r.(id); capacitance = t.line_c.(id) })
  else Some (Element.Resistor t.r.(id))

let capacitance t id =
  check t id "capacitance";
  t.cap.(id)

let children t id =
  check t id "children";
  let first = t.child_start.(id) in
  List.init (t.child_start.(id + 1) - first) (fun j -> t.child_ids.(first + j))

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
  let rec up id acc = if id = 0 then acc else up t.parent.(id) (acc + 1) in
  up id 0

let total_capacitance t =
  let acc = ref 0. in
  for i = 0 to node_count t - 1 do
    acc := !acc +. t.cap.(i) +. t.line_c.(i)
  done;
  !acc

let total_resistance t =
  let acc = ref 0. in
  for i = 0 to node_count t - 1 do
    acc := !acc +. t.r.(i)
  done;
  !acc

(* a loop, not Array.exists: its closure would box every element *)
let has_distributed_lines t =
  let rec scan i = i < node_count t && (t.line_c.(i) > 0. || scan (i + 1)) in
  scan 0

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
      match element t id with None -> "input" | Some e -> Format.asprintf "%a" Element.pp e
    in
    let cap =
      if t.cap.(id) > 0. then Format.asprintf " C=%s" (Units.format_si t.cap.(id)) else ""
    in
    let out = if is_output t id then " [output]" else "" in
    Format.fprintf fmt "%s%s: %s%s%s@," indent t.names.(id) elem cap out;
    for j = t.child_start.(id) to t.child_start.(id + 1) - 1 do
      dump (indent ^ "  ") t.child_ids.(j)
    done
  in
  Format.fprintf fmt "@[<v>tree %s@," t.name;
  dump "  " 0;
  Format.fprintf fmt "@]"
