type error =
  | No_source
  | Multiple_sources of string list
  | Source_not_grounded of string
  | Element_to_ground of string
  | Capacitor_not_grounded of string
  | Bad_value of string
  | Cycle of string
  | Disconnected of string list
  | Unknown_output of string

let error_to_string = function
  | No_source -> "deck has no source card (V...)"
  | Multiple_sources names -> "deck has multiple sources: " ^ String.concat ", " names
  | Source_not_grounded name -> Printf.sprintf "source %S must have one grounded terminal" name
  | Element_to_ground name ->
      Printf.sprintf
        "element %S connects to ground; only capacitors may (an RC tree has no grounded resistors)"
        name
  | Capacitor_not_grounded name ->
      Printf.sprintf "capacitor %S must have exactly one grounded terminal" name
  | Bad_value name -> Printf.sprintf "element %S has a negative or non-finite value" name
  | Cycle name -> Printf.sprintf "element %S closes a cycle; the network is not a tree" name
  | Disconnected nodes -> "nodes not reachable from the input: " ^ String.concat ", " nodes
  | Unknown_output node -> Printf.sprintf ".output names unknown node %S" node

exception Elab_error of error

let fail e = raise (Elab_error e)

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let bad v = not (v >= 0. && Float.is_finite v)

(* the non-ground terminal of a two-terminal card that must have exactly
   one grounded terminal *)
let grounded_other n1 n2 =
  match (Deck.is_ground n1, Deck.is_ground n2) with
  | true, false -> Some n2
  | false, true -> Some n1
  | _ -> None

(* Node names are interned to dense ints once; the series edges live in
   flat arrays indexed by card order, and lumped capacitance is summed
   per name in card order.  The adjacency is CSR with every row
   newest-edge-first, the order of the reference elaborator in
   test/ref_frontend.ml, so the breadth-first search numbers the nodes
   and orders the children as that one does. *)
let to_tree_internal deck =
  let max_edges = ref 0 and n_caps = ref 0 in
  List.iter
    (function
      | Deck.Resistor _ | Deck.Line _ -> incr max_edges
      | Deck.Capacitor _ -> incr n_caps
      | Deck.Source _ -> ())
    deck.Deck.cards;
  (* every name comes from an edge end, a capacitor or the source *)
  let max_edges = !max_edges in
  let max_names = (2 * max_edges) + !n_caps + 1 in
  let ids = Names.create (max_edges + 1) in
  let names = Array.make max_names "" and n_names = ref 0 in
  (* decks tend to name a node on consecutive cards (R a b, C b 0, R b c),
     so the last name looked up is checked before the table *)
  let last = ref "" and last_id = ref (-1) in
  let intern s =
    if !last_id >= 0 && String.equal s !last then !last_id
    else begin
      let id =
        match Names.find ids s with
        | id -> id
        | exception Not_found ->
            let id = !n_names in
            Names.add ids s id;
            names.(id) <- s;
            n_names := id + 1;
            id
      in
      last := s;
      last_id := id;
      id
    end
  in
  let edge_a = Array.make max_edges 0 and edge_b = Array.make max_edges 0 in
  let edge_r = Array.make max_edges 0. and edge_c = Array.make max_edges 0. in
  let edge_name = Array.make max_edges "" and n_edges = ref 0 in
  let cap = Array.make max_names 0. and has_cap = Bytes.make max_names '\000' in
  (* source problems outrank card problems, so the first card problem
     waits until every source has been seen *)
  let sources = ref [] and card_error = ref None in
  let card_fail e = if Option.is_none !card_error then card_error := Some e in
  let add_edge name n1 n2 r c =
    if Deck.is_ground n1 || Deck.is_ground n2 then card_fail (Element_to_ground name)
    else if bad r || bad c then card_fail (Bad_value name)
    else if Option.is_none !card_error then begin
      let k = !n_edges in
      edge_a.(k) <- intern n1;
      edge_b.(k) <- intern n2;
      edge_r.(k) <- r;
      edge_c.(k) <- c;
      edge_name.(k) <- name;
      n_edges := k + 1
    end
  in
  List.iter
    (function
      | Deck.Source { name; n1; n2 } -> sources := (name, n1, n2) :: !sources
      | Deck.Resistor { name; n1; n2; value } -> add_edge name n1 n2 value 0.
      | Deck.Line { name; n1; n2; resistance; capacitance } ->
          add_edge name n1 n2 resistance capacitance
      | Deck.Capacitor { name; n1; n2; value } -> (
          match grounded_other n1 n2 with
          | None -> card_fail (Capacitor_not_grounded name)
          | Some _ when bad value -> card_fail (Bad_value name)
          | Some node ->
              if Option.is_none !card_error then begin
                let id = intern node in
                cap.(id) <- cap.(id) +. value;
                Bytes.set has_cap id '\001'
              end))
    deck.Deck.cards;
  let input =
    match List.rev !sources with
    | [] -> fail No_source
    | [ (name, n1, n2) ] -> (
        match grounded_other n1 n2 with Some node -> node | None -> fail (Source_not_grounded name))
    | many -> fail (Multiple_sources (List.map (fun (name, _, _) -> name) many))
  in
  Option.iter fail !card_error;
  let input = intern input in
  let n = !n_names and m = !n_edges in
  (* CSR adjacency: row [v] is [adj.(row.(v)) .. adj.(row.(v + 1) - 1)] *)
  let row = Array.make (n + 1) 0 in
  for k = 0 to m - 1 do
    row.(edge_a.(k) + 1) <- row.(edge_a.(k) + 1) + 1;
    row.(edge_b.(k) + 1) <- row.(edge_b.(k) + 1) + 1
  done;
  for v = 1 to n do
    row.(v) <- row.(v) + row.(v - 1)
  done;
  let fill = Array.sub row 0 n and adj = Array.make (2 * m) 0 in
  for k = m - 1 downto 0 do
    let a = edge_a.(k) and b = edge_b.(k) in
    adj.(fill.(a)) <- k;
    fill.(a) <- fill.(a) + 1;
    adj.(fill.(b)) <- k;
    fill.(b) <- fill.(b) + 1
  done;
  (* breadth-first from the input; [tid] maps a name to its tree node *)
  let b = Rctree.Tree.Builder.create ~name:deck.Deck.title () in
  let tid = Array.make n (-1) and queue = Array.make n 0 in
  let used = Bytes.make m '\000' and has_child = Bytes.make n '\000' in
  tid.(input) <- Rctree.Tree.Builder.input b;
  queue.(0) <- input;
  let head = ref 0 and tail = ref 1 and tree_nodes = ref 1 in
  while !head < !tail do
    let here = queue.(!head) in
    incr head;
    let parent = tid.(here) in
    for j = row.(here) to row.(here + 1) - 1 do
      let k = adj.(j) in
      if Bytes.get used k = '\000' then begin
        Bytes.set used k '\001';
        let far = if edge_a.(k) = here then edge_b.(k) else edge_a.(k) in
        if tid.(far) >= 0 then fail (Cycle edge_name.(k));
        (* a line of zero resistance folds into [parent] and returns it *)
        let id = Rctree.Tree.Builder.add_line b ~parent ~name:names.(far) edge_r.(k) edge_c.(k) in
        if id <> parent then begin
          Bytes.set has_child parent '\001';
          incr tree_nodes
        end;
        tid.(far) <- id;
        queue.(!tail) <- far;
        incr tail
      end
    done
  done;
  let missing = ref [] in
  for v = n - 1 downto 0 do
    if tid.(v) < 0 then missing := names.(v) :: !missing
  done;
  if !missing <> [] then fail (Disconnected (List.sort String.compare !missing));
  for v = 0 to n - 1 do
    if Bytes.get has_cap v <> '\000' then Rctree.Tree.Builder.add_capacitance b tid.(v) cap.(v)
  done;
  (match deck.Deck.outputs with
  | [] ->
      (* default: every leaf is an output *)
      for id = 1 to !tree_nodes - 1 do
        if Bytes.get has_child id = '\000' then Rctree.Tree.Builder.mark_output b id
      done
  | outs ->
      List.iter
        (fun node ->
          match Names.find_opt ids node with
          | Some v -> Rctree.Tree.Builder.mark_output b ~label:node tid.(v)
          | None -> fail (Unknown_output node))
        outs);
  Rctree.Tree.Builder.finish b

let m_elaborations = Obs.Counter.make "spice.elaborations"
let m_tree_nodes = Obs.Histogram.make "spice.elaborated_tree_nodes"

let to_tree deck =
  Obs.Span.with_ ~name:"spice.elaborate" @@ fun () ->
  match to_tree_internal deck with
  | tree ->
      Obs.Counter.incr m_elaborations;
      Obs.Histogram.observe m_tree_nodes (float_of_int (Rctree.Tree.node_count tree));
      Ok tree
  | exception Elab_error e -> Error e

let to_tree_exn deck =
  match to_tree deck with
  | Ok tree -> tree
  | Error e -> invalid_arg ("Elaborate.to_tree_exn: " ^ error_to_string e)
