type scheme = L_sections | Pi_sections

let discretize ?(scheme = Pi_sections) ~segments t =
  if segments < 1 then invalid_arg "Lump.discretize: segments must be >= 1";
  let b = Tree.Builder.create ~name:(Tree.name t) () in
  let n = Tree.node_count t in
  let parent = Tree.parents t and r = Tree.resistances t in
  let line_c = Tree.line_capacitances t and cap = Tree.capacitances t in
  let mapping = Array.make n (-1) in
  mapping.(Tree.input t) <- Tree.Builder.input b;
  (* node ids are topological (parents first), so one pass suffices *)
  for id = 0 to n - 1 do
    if id <> Tree.input t then begin
      let parent_new = mapping.(parent.(id)) and name = Tree.node_name t id in
      let new_id =
        if line_c.(id) = 0. then Tree.Builder.add_resistor b ~parent:parent_new ~name r.(id)
        else begin
          let k = float_of_int segments in
          let r_seg = r.(id) /. k and c_seg = line_c.(id) /. k in
          let rec expand at i =
            if i > segments then at
            else begin
              let seg_name = if i = segments then name else Printf.sprintf "%s.seg%d" name i in
              match scheme with
              | L_sections ->
                  let nd = Tree.Builder.add_resistor b ~parent:at ~name:seg_name r_seg in
                  Tree.Builder.add_capacitance b nd c_seg;
                  expand nd (i + 1)
              | Pi_sections ->
                  Tree.Builder.add_capacitance b at (c_seg /. 2.);
                  let nd = Tree.Builder.add_resistor b ~parent:at ~name:seg_name r_seg in
                  Tree.Builder.add_capacitance b nd (c_seg /. 2.);
                  expand nd (i + 1)
            end
          in
          expand parent_new 1
        end
      in
      mapping.(id) <- new_id
    end;
    Tree.Builder.add_capacitance b mapping.(id) cap.(id)
  done;
  List.iter (fun (label, id) -> Tree.Builder.mark_output b ~label mapping.(id)) (Tree.outputs t);
  Tree.Builder.finish b

let is_lumped t = not (Tree.has_distributed_lines t)
