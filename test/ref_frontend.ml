(* The front end as it was before the single-pass parser and the
   interned-id elaborator: list passes over the lines, a [Hashtbl] of
   adjacency lists and a [Queue] breadth-first search.  Kept only as a
   reference oracle for the production [Spice.Parser] and
   [Spice.Elaborate]; nothing outside the tests uses it.  The one
   behavioural addition is the [Bad_value] check, so that both
   elaborators reject the same decks with the same error. *)

module Deck = Spice.Deck

module Parser = struct
  type error = Spice.Parser.error = { line : int; column : int; message : string }

  let error_to_string = Spice.Parser.error_to_string

  exception Parse_error of error

  let fail ?(column = 0) line message = raise (Parse_error { line; column; message })

  (* 1-based column of the first occurrence of [tok] as a whole token in
     the logical line; 0 when it cannot be located (e.g. the line was
     reassembled from continuations) *)
  let column_of line tok =
    let ll = String.length line and tl = String.length tok in
    let blank i = i < 0 || i >= ll || line.[i] = ' ' || line.[i] = '\t' in
    let rec scan i =
      if tl = 0 || i + tl > ll then 0
      else if String.sub line i tl = tok && blank (i - 1) && blank (i + tl) then i + 1
      else scan (i + 1)
    in
    scan 0

  let strip_trailing_comment s =
    let cut_at = ref (String.length s) in
    String.iteri (fun i c -> if (c = ';' || c = '$') && i < !cut_at then cut_at := i) s;
    String.sub s 0 !cut_at

  (* join '+' continuation lines, dropping blank and '*' comment lines;
     returns (original_line_number, logical_line) pairs *)
  let logical_lines lines =
    let numbered = List.mapi (fun i l -> (i + 1, l)) lines in
    let relevant =
      List.filter_map
        (fun (n, l) ->
          let l = strip_trailing_comment l in
          let trimmed = String.trim l in
          if trimmed = "" || trimmed.[0] = '*' then None else Some (n, trimmed))
        numbered
    in
    List.fold_left
      (fun acc (n, l) ->
        if l.[0] = '+' then begin
          match acc with
          | [] -> fail n "continuation line with nothing to continue"
          | (n0, prev) :: rest -> (n0, prev ^ " " ^ String.sub l 1 (String.length l - 1)) :: rest
        end
        else (n, l) :: acc)
      [] relevant
    |> List.rev

  let tokens line =
    String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
    |> List.filter (fun t -> t <> "")

  let parse_value ?(line = "") n what s =
    match Rctree.Units.parse_si s with
    | Some v when Float.is_finite v -> v
    | Some _ | None -> fail ~column:(column_of line s) n (Printf.sprintf "bad %s value %S" what s)

  let elem_name prefix tok =
    (* "R1" -> "1"; keep the full token when it is just the letter *)
    if String.length tok > 1 then String.sub tok 1 (String.length tok - 1) else prefix

  let parse_card n line =
    match tokens line with
    | [] -> fail n "empty card"
    | head :: args -> (
        let kind = Char.lowercase_ascii head.[0] in
        let parse_value what s = parse_value ~line n what s in
        match (kind, args) with
        | 'r', [ n1; n2; v ] ->
            `Card (Deck.Resistor { name = elem_name "r" head; n1; n2; value = parse_value "resistance" v })
        | 'c', [ n1; n2; v ] ->
            `Card (Deck.Capacitor { name = elem_name "c" head; n1; n2; value = parse_value "capacitance" v })
        | 'u', [ n1; n2; r; c ] ->
            `Card
              (Deck.Line
                 {
                   name = elem_name "u" head;
                   n1;
                   n2;
                   resistance = parse_value "resistance" r;
                   capacitance = parse_value "capacitance" c;
                 })
        | 'v', (n1 :: n2 :: _ : string list) -> `Card (Deck.Source { name = elem_name "v" head; n1; n2 })
        | ('r' | 'c' | 'u' | 'v'), _ ->
            fail ~column:(column_of line head) n (Printf.sprintf "wrong argument count for %S" head)
        | '.', _ -> (
            match (String.lowercase_ascii head, args) with
            | ".end", _ -> `End
            | ".title", words -> `Title (String.concat " " words)
            | ".output", nodes when nodes <> [] -> `Outputs nodes
            | ".output", [] -> fail n ".output needs at least one node"
            | ".include", [ path ] ->
                (* strip optional quotes *)
                let path =
                  let l = String.length path in
                  if l >= 2 && path.[0] = '"' && path.[l - 1] = '"' then String.sub path 1 (l - 2)
                  else path
                in
                `Include path
            | ".include", _ -> fail n ".include needs exactly one path"
            | d, _ -> fail ~column:(column_of line head) n (Printf.sprintf "unknown directive %S" d))
        | _, _ -> fail ~column:(column_of line head) n (Printf.sprintf "unknown card %S" head))

  (* resolver: how to turn an .include path into a sub-deck *)
  let parse_lines_exn ?resolve lines =
    let logical = logical_lines lines in
    (* SPICE tradition: a first line that is not a recognizable card is the title *)
    let title, body =
      match logical with
      | (n, first) :: rest -> (
          match parse_card n first with
          | exception Parse_error _ -> (first, rest)
          | `Title t -> (t, rest)
          | `Card _ | `Outputs _ | `End | `Include _ -> ("", logical))
      | [] -> ("", [])
    in
    let cards = ref [] and outputs = ref [] and title = ref title and ended = ref false in
    List.iter
      (fun (n, line) ->
        if !ended then fail n "content after .end"
        else
          match parse_card n line with
          | `Card c -> cards := c :: !cards
          | `Title t -> title := t
          | `Outputs ns -> outputs := !outputs @ ns
          | `Include path -> (
              match resolve with
              | None -> fail n ".include needs a base directory (use parse_file)"
              | Some f -> (
                  match f path with
                  | Ok (sub : Deck.t) ->
                      List.iter (fun c -> cards := c :: !cards) sub.Deck.cards;
                      outputs := !outputs @ sub.Deck.outputs
                  | Error e ->
                      fail n
                        (Printf.sprintf "in included file %S, %s" path (error_to_string e))))
          | `End -> ended := true)
      body;
    Deck.make ~title:!title ~outputs:!outputs (List.rev !cards)

  let parse_string s =
    match parse_lines_exn (String.split_on_char '\n' s) with
    | deck -> Ok deck
    | exception Parse_error e -> Error e
end

module Elaborate = struct
  open Spice.Elaborate

  exception Elab_error of error

  let fail e = raise (Elab_error e)

  (* series edge extracted from an R or U card *)
  type edge = { e_name : string; e_n1 : string; e_n2 : string; e_elem : float * float }

  let bad v = not (v >= 0. && Float.is_finite v)

  let to_tree_internal deck =
    let sources =
      List.filter_map
        (function
          | Deck.Source { name; n1; n2 } -> Some (name, n1, n2)
          | Deck.Resistor _ | Deck.Capacitor _ | Deck.Line _ -> None)
        deck.Deck.cards
    in
    let input_node =
      match sources with
      | [] -> fail No_source
      | [ (name, n1, n2) ] ->
          if Deck.is_ground n1 && not (Deck.is_ground n2) then n2
          else if Deck.is_ground n2 && not (Deck.is_ground n1) then n1
          else fail (Source_not_grounded name)
      | many -> fail (Multiple_sources (List.map (fun (name, _, _) -> name) many))
    in
    let edges = ref [] and caps = Hashtbl.create 16 in
    List.iter
      (fun card ->
        match card with
        | Deck.Source _ -> ()
        | Deck.Resistor { name; n1; n2; value } ->
            if Deck.is_ground n1 || Deck.is_ground n2 then fail (Element_to_ground name);
            if bad value then fail (Bad_value name);
            edges := { e_name = name; e_n1 = n1; e_n2 = n2; e_elem = (value, 0.) } :: !edges
        | Deck.Line { name; n1; n2; resistance; capacitance } ->
            if Deck.is_ground n1 || Deck.is_ground n2 then fail (Element_to_ground name);
            if bad resistance || bad capacitance then fail (Bad_value name);
            edges := { e_name = name; e_n1 = n1; e_n2 = n2; e_elem = (resistance, capacitance) } :: !edges
        | Deck.Capacitor { name; n1; n2; value } ->
            let node =
              if Deck.is_ground n1 && not (Deck.is_ground n2) then n2
              else if Deck.is_ground n2 && not (Deck.is_ground n1) then n1
              else fail (Capacitor_not_grounded name)
            in
            if bad value then fail (Bad_value name);
            let prev = Option.value (Hashtbl.find_opt caps node) ~default:0. in
            Hashtbl.replace caps node (prev +. value))
      deck.Deck.cards;
    let edges = Array.of_list (List.rev !edges) in
    let adjacency = Hashtbl.create 16 in
    Array.iteri
      (fun i e ->
        Hashtbl.add adjacency e.e_n1 i;
        Hashtbl.add adjacency e.e_n2 i)
      edges;
    let b = Rctree.Tree.Builder.create ~name:deck.Deck.title () in
    let node_ids = Hashtbl.create 16 in
    Hashtbl.replace node_ids input_node (Rctree.Tree.Builder.input b);
    let used = Array.make (Array.length edges) false in
    let queue = Queue.create () in
    Queue.add input_node queue;
    while not (Queue.is_empty queue) do
      let here = Queue.pop queue in
      let here_id = Hashtbl.find node_ids here in
      List.iter
        (fun i ->
          if not used.(i) then begin
            used.(i) <- true;
            let e = edges.(i) in
            let far = if e.e_n1 = here then e.e_n2 else e.e_n1 in
            if Hashtbl.mem node_ids far then fail (Cycle e.e_name)
            else begin
              let r, c = e.e_elem in
              let id = Rctree.Tree.Builder.add_line b ~parent:here_id ~name:far r c in
              Hashtbl.replace node_ids far id;
              Queue.add far queue
            end
          end)
        (Hashtbl.find_all adjacency here)
    done;
    let mentioned = Hashtbl.create 16 in
    Array.iter
      (fun e ->
        Hashtbl.replace mentioned e.e_n1 ();
        Hashtbl.replace mentioned e.e_n2 ())
      edges;
    Hashtbl.iter (fun node _ -> Hashtbl.replace mentioned node ()) caps;
    let missing =
      Hashtbl.fold (fun node () acc -> if Hashtbl.mem node_ids node then acc else node :: acc) mentioned []
    in
    if missing <> [] then fail (Disconnected (List.sort String.compare missing));
    Hashtbl.iter (fun node c -> Rctree.Tree.Builder.add_capacitance b (Hashtbl.find node_ids node) c) caps;
    (match deck.Deck.outputs with
    | [] ->
        (* default: every leaf is an output *)
        let snapshot = Rctree.Tree.Builder.finish b in
        Rctree.Tree.iter_nodes snapshot ~f:(fun id ->
            if Rctree.Tree.children snapshot id = [] && id <> Rctree.Tree.input snapshot then
              Rctree.Tree.Builder.mark_output b id)
    | outs ->
        List.iter
          (fun node ->
            match Hashtbl.find_opt node_ids node with
            | Some id -> Rctree.Tree.Builder.mark_output b ~label:node id
            | None -> fail (Unknown_output node))
          outs);
    Rctree.Tree.Builder.finish b

  let to_tree deck =
    match to_tree_internal deck with tree -> Ok tree | exception Elab_error e -> Error e
end
