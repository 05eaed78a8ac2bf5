let deck_of_tree ?(source_name = "in") tree =
  let cards = ref [] in
  let add c = cards := c :: !cards in
  add (Deck.Source { name = source_name; n1 = Rctree.Tree.node_name tree (Rctree.Tree.input tree); n2 = "0" });
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  Rctree.Tree.iter_nodes tree ~f:(fun id ->
      let node = Rctree.Tree.node_name tree id in
      (match Rctree.Tree.element tree id with
      | None -> ()
      | Some e -> (
          let parent = Rctree.Tree.node_name tree (Rctree.Tree.parent tree id) in
          match e with
          | Rctree.Element.Resistor r ->
              add (Deck.Resistor { name = fresh "r"; n1 = parent; n2 = node; value = r })
          | Rctree.Element.Capacitor c ->
              add (Deck.Capacitor { name = fresh "c"; n1 = node; n2 = "0"; value = c })
          | Rctree.Element.Line { resistance; capacitance } ->
              add (Deck.Line { name = fresh "u"; n1 = parent; n2 = node; resistance; capacitance })));
      let c = Rctree.Tree.capacitance tree id in
      if c > 0. then add (Deck.Capacitor { name = fresh "c"; n1 = node; n2 = "0"; value = c }));
  let outputs = List.map (fun (_, id) -> Rctree.Tree.node_name tree id) (Rctree.Tree.outputs tree) in
  Deck.make ~title:(Rctree.Tree.name tree) ~outputs (List.rev !cards)

let to_string tree = Format.asprintf "%a@." Deck.pp (deck_of_tree tree)

let write_file path tree =
  let oc = open_out path in
  output_string oc (to_string tree);
  close_out oc
