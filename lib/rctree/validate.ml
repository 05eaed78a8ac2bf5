type problem =
  | No_capacitance
  | No_outputs
  | Output_without_resistance of string
  | Dangling_resistor of string

let problem_to_string = function
  | No_capacitance -> "network has no capacitance anywhere"
  | No_outputs -> "no node is marked as an output"
  | Output_without_resistance label ->
      Printf.sprintf "output %S sees no resistance from the input (degenerate bounds)" label
  | Dangling_resistor name ->
      Printf.sprintf "leaf node %S is reached through resistance but has no capacitance" name

let pp_problem fmt p = Format.pp_print_string fmt (problem_to_string p)

let problems t =
  let probs = ref [] in
  let add p = probs := p :: !probs in
  if Tree.total_capacitance t = 0. then add No_capacitance;
  (match Tree.outputs t with [] -> add No_outputs | _ :: _ -> ());
  List.iter
    (fun (label, id) -> if Path.resistance_to_root t id = 0. then add (Output_without_resistance label))
    (Tree.outputs t);
  let r = Tree.resistances t and line_c = Tree.line_capacitances t in
  let cap = Tree.capacitances t in
  Tree.iter_nodes t ~f:(fun id ->
      let is_leaf = Tree.children t id = [] in
      let has_cap = cap.(id) > 0. || line_c.(id) > 0. in
      if is_leaf && r.(id) > 0. && (not has_cap) && not (Tree.is_output t id) then
        add (Dangling_resistor (Tree.node_name t id)));
  List.rev !probs

let fatal = function
  | No_capacitance | No_outputs -> true
  | Output_without_resistance _ | Dangling_resistor _ -> false

let is_analyzable t = not (List.exists fatal (problems t))

let check_exn t =
  let fatal_problems = List.filter fatal (problems t) in
  match fatal_problems with
  | [] -> ()
  | ps ->
      let msgs = String.concat "; " (List.map problem_to_string ps) in
      invalid_arg ("Validate.check_exn: " ^ msgs)
