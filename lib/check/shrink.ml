(* What a node of the original tree becomes in a candidate. *)
type action =
  | Drop  (** remove the node and its whole subtree *)
  | Contract  (** splice the node out: children and capacitance move to its parent *)
  | Keep of Rctree.Element.t  (** keep the node, possibly with a simplified series element *)

(* Rebuild the case's tree top-down under [act]/[cap].  Returns [None]
   when the transformation loses the output node (or merges it into the
   input, where bounds are trivial). *)
let rebuild (case : Case.t) ~act ~cap ~edits =
  let tree = case.Case.tree in
  let n = Rctree.Tree.node_count tree in
  let b = Rctree.Tree.Builder.create ~name:(Rctree.Tree.name tree) () in
  let mapped = Array.make n (-1) in
  let input = Rctree.Tree.Builder.input b in
  mapped.(0) <- input;
  Rctree.Tree.Builder.add_capacitance b input (cap 0);
  Rctree.Tree.fold_nodes tree ~init:() ~f:(fun () id ->
      if id <> 0 then
        let p = Rctree.Tree.parent tree id in
        if mapped.(p) >= 0 then
          match act id with
          | Drop -> ()
          | Contract ->
              mapped.(id) <- mapped.(p);
              Rctree.Tree.Builder.add_capacitance b mapped.(p) (cap id)
          | Keep elem ->
              let nid =
                Rctree.Tree.Builder.add_node b ~parent:mapped.(p)
                  ~name:(Rctree.Tree.node_name tree id) elem
              in
              Rctree.Tree.Builder.add_capacitance b nid (cap id);
              mapped.(id) <- nid);
  let out = mapped.(case.Case.output) in
  if out <= 0 then None
  else begin
    let label =
      match List.find_opt (fun (_, id) -> id = case.Case.output) (Rctree.Tree.outputs tree) with
      | Some (l, _) -> l
      | None -> Rctree.Tree.node_name tree case.Case.output
    in
    Rctree.Tree.Builder.mark_output b ~label out;
    Some (Case.make ~edits ~label:case.Case.label (Rctree.Tree.Builder.finish b) ~output:out)
  end

let candidates (case : Case.t) =
  let tree = case.Case.tree in
  let n = Rctree.Tree.node_count tree in
  let output = case.Case.output in
  let on_output_path = Array.make n false in
  let rec mark id =
    on_output_path.(id) <- true;
    if id <> 0 then mark (Rctree.Tree.parent tree id)
  in
  mark output;
  let keep id = Keep (Option.get (Rctree.Tree.element tree id)) in
  let cap = Rctree.Tree.capacitance tree in
  let build ?(edits = case.Case.edits) act cap = rebuild case ~act ~cap ~edits in
  let ids = List.init n Fun.id in
  let non_input = List.filter (fun id -> id > 0) ids in
  let drops =
    non_input
    |> List.filter (fun id -> not on_output_path.(id))
    |> List.filter_map (fun id -> build (fun j -> if j = id then Drop else keep j) cap)
  in
  let clear_edits = if case.Case.edits = [] then [] else [ { case with Case.edits = [] } ] in
  let contracts =
    non_input
    |> List.filter (fun id -> id <> output)
    |> List.filter_map (fun id -> build (fun j -> if j = id then Contract else keep j) cap)
  in
  let line_collapse =
    non_input
    |> List.filter_map (fun id ->
           match Rctree.Tree.element tree id with
           | Some (Rctree.Element.Line { resistance; _ }) ->
               build
                 (fun j -> if j = id then Keep (Rctree.Element.resistor resistance) else keep j)
                 cap
           | _ -> None)
  in
  let simplify_elem =
    non_input
    |> List.filter_map (fun id ->
           match Rctree.Tree.element tree id with
           | Some (Rctree.Element.Resistor r) when r <> 1. ->
               build (fun j -> if j = id then Keep (Rctree.Element.resistor 1.) else keep j) cap
           | Some (Rctree.Element.Line { resistance; capacitance })
             when resistance <> 1. || capacitance <> 1. ->
               build
                 (fun j ->
                   if j = id then Keep (Rctree.Element.line ~resistance:1. ~capacitance:1.)
                   else keep j)
                 cap
           | _ -> None)
  in
  let simplify_cap =
    ids
    |> List.filter (fun id -> cap id <> 0.)
    |> List.filter_map (fun id -> build keep (fun j -> if j = id then 0. else cap j))
  in
  let drop_edit =
    List.mapi
      (fun k _ -> { case with Case.edits = List.filteri (fun j _ -> j <> k) case.Case.edits })
      case.Case.edits
  in
  drops @ clear_edits @ contracts @ line_collapse @ simplify_elem @ simplify_cap @ drop_edit

let minimize ?(budget = 400) ~fails case =
  let evals = ref 0 in
  let still_fails c =
    !evals < budget
    && begin
         incr evals;
         match fails c with b -> b | exception _ -> true
       end
  in
  let rec go case steps =
    match List.find_opt still_fails (candidates case) with
    | Some smaller -> go smaller (steps + 1)
    | None -> (case, steps)
  in
  go case 0
