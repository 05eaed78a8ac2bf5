let rng_values = [ 0.1; 0.5; 1.; 2.; 5.; 10.; 100. ]

(* --- random tree expressions (shared with test_props/test_incremental) *)

let gen_leaf =
  QCheck.Gen.(
    let* r = oneofl (0. :: rng_values) in
    let* c = oneofl (0. :: rng_values) in
    return (Rctree.Expr.urc r c))

let gen_expr =
  QCheck.Gen.(
    sized_size (int_range 1 25)
      (fix (fun self n ->
           if n <= 1 then gen_leaf
           else
             frequency
               [
                 ( 3,
                   let* k = int_range 1 (n - 1) in
                   let* a = self k in
                   let* b = self (n - k) in
                   return (Rctree.Expr.wc a b) );
                 ( 1,
                   let* sub = self (n - 1) in
                   let* tail = gen_leaf in
                   return (Rctree.Expr.wc (Rctree.Expr.wb sub) tail) );
                 (1, gen_leaf);
               ])))

let arb_expr = QCheck.make gen_expr ~print:Rctree.Expr.to_string

(* --- random lumped trees (positive resistances, for simulation) ------- *)

let gen_sim_case =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* parents = array_size (return n) (int_range 0 1000) in
    let* resistances = array_size (return n) (oneofl [ 0.2; 1.; 3.; 10. ]) in
    let* caps = array_size (return n) (oneofl [ 0.; 0.5; 1.; 4. ]) in
    let b = Rctree.Tree.Builder.create ~name:"random" () in
    let nodes = Array.make (n + 1) (Rctree.Tree.Builder.input b) in
    for i = 0 to n - 1 do
      let parent = nodes.(parents.(i) mod (i + 1)) in
      let node = Rctree.Tree.Builder.add_resistor b ~parent resistances.(i) in
      Rctree.Tree.Builder.add_capacitance b node caps.(i);
      nodes.(i + 1) <- node
    done;
    let* output_pick = int_range 1 n in
    let output = nodes.(output_pick) in
    (* guarantee transient activity at the output *)
    Rctree.Tree.Builder.add_capacitance b output 1.;
    Rctree.Tree.Builder.mark_output b ~label:"out" output;
    return (Case.make ~label:"qcheck" (Rctree.Tree.Builder.finish b) ~output))

let arb_sim_case =
  QCheck.make gen_sim_case
    ~print:(fun c -> Case.to_deck_string c)
    ~shrink:(fun c yield -> List.iter yield (Shrink.candidates c))

(* --- random multi-output trees (from the batch-analysis suite) -------- *)

let gen_tree =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let* parents = array_size (return n) (int_range 0 1000) in
    let* resistances = array_size (return n) (oneofl [ 0.2; 1.; 3.; 10.; 47. ]) in
    let* caps = array_size (return n) (oneofl [ 0.; 0.5; 1.; 4.; 9. ]) in
    let* marked = int_range 1 n in
    let b = Rctree.Tree.Builder.create ~name:"random" () in
    let nodes = Array.make (n + 1) (Rctree.Tree.Builder.input b) in
    for i = 0 to n - 1 do
      let parent = nodes.(parents.(i) mod (i + 1)) in
      let node = Rctree.Tree.Builder.add_resistor b ~parent resistances.(i) in
      Rctree.Tree.Builder.add_capacitance b node caps.(i);
      nodes.(i + 1) <- node
    done;
    for k = 1 to marked do
      Rctree.Tree.Builder.mark_output b ~label:(Printf.sprintf "o%d" k) nodes.(k)
    done;
    return (Rctree.Tree.Builder.finish b))

let arb_tree = QCheck.make gen_tree ~print:(Format.asprintf "%a" Rctree.Tree.pp)

(* --- deck noise: tabs, comments, case changes ------------------------- *)

let decorate_deck st text =
  let lines = String.split_on_char '\n' text in
  let decorate line =
    if line = "" || line.[0] = '*' then line (* comments may carry metadata: pass through *)
    else begin
      let line =
        match Random.State.int st 4 with
        | 0 -> line ^ " ; trailing comment"
        | 1 -> "  " ^ line
        | 2 -> String.map (fun c -> if c = ' ' then '\t' else c) line
        | _ -> line
      in
      (* uppercase only the card letter: node names are case-sensitive *)
      if Random.State.bool st && String.length line > 0 && line.[0] <> '.' && line.[0] <> '*' then
        String.make 1 (Char.uppercase_ascii line.[0]) ^ String.sub line 1 (String.length line - 1)
      else line
    end
  in
  let noise = [ "* interleaved comment"; "" ] in
  String.concat "\n"
    (List.concat_map
       (fun l -> decorate l :: (if Random.State.int st 3 = 0 then noise else []))
       lines)

(* --- deck mutations: hostile inputs for the front end ------------------ *)

type mutation =
  | Negative_value
  | Nan_value
  | Overflow_value
  | Cycle
  | Dangling_node
  | Duplicate_name
  | Missing_source
  | Extra_source
  | Wrong_arity
  | Orphan_continuation
  | Self_include

let mutations =
  [
    Negative_value; Nan_value; Overflow_value; Cycle; Dangling_node; Duplicate_name;
    Missing_source; Extra_source; Wrong_arity; Orphan_continuation; Self_include;
  ]

let mutation_name = function
  | Negative_value -> "negative-value"
  | Nan_value -> "nan-value"
  | Overflow_value -> "overflow-value"
  | Cycle -> "cycle"
  | Dangling_node -> "dangling-node"
  | Duplicate_name -> "duplicate-name"
  | Missing_source -> "missing-source"
  | Extra_source -> "extra-source"
  | Wrong_arity -> "wrong-arity"
  | Orphan_continuation -> "orphan-continuation"
  | Self_include -> "self-include"

let words line = List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line))

let card_letter line =
  match words line with
  | w :: _ -> (
      match Char.lowercase_ascii w.[0] with ('r' | 'c' | 'u' | 'v') as k -> Some k | _ -> None)
  | [] -> None

let pick_opt st = function [] -> None | l -> Some (List.nth l (Random.State.int st (List.length l)))

let mutate_deck ?(self = "self.sp") st m text =
  let lines = String.split_on_char '\n' text in
  let indexed = List.mapi (fun i l -> (i, l)) lines in
  let where p = List.filter_map (fun (i, l) -> if p l then Some i else None) indexed in
  let valued =
    where (fun l -> match card_letter l with Some ('r' | 'c' | 'u') -> true | _ -> false)
  in
  let cards = where (fun l -> card_letter l <> None) in
  let is_end l = match words l with w :: _ -> String.lowercase_ascii w = ".end" | [] -> false in
  let end_at = match where is_end with i :: _ -> i | [] -> List.length lines in
  (* node names of the R/U cards and the grounded ends of the C cards *)
  let nodes =
    "in"
    :: List.concat_map
         (fun i ->
           match words (List.nth lines i) with
           | _ :: a :: b :: _ -> List.filter (fun n -> not (Spice.Deck.is_ground n)) [ a; b ]
           | _ -> [])
         valued
  in
  let node () = Option.get (pick_opt st nodes) in
  (* new lines go anywhere before .end *)
  let insert extra =
    let at = Random.State.int st (end_at + 1) in
    List.concat_map (fun (i, l) -> if i = at then [ extra; l ] else [ l ]) indexed
    @ if at >= List.length lines then [ extra ] else []
  in
  let rewrite i f = List.map (fun (j, l) -> if j = i then f l else l) indexed in
  let set_value f =
    match pick_opt st valued with
    | None -> insert (Printf.sprintf "Rbad %s extra %s" (node ()) (f "1"))
    | Some i ->
        rewrite i (fun l ->
            match List.rev (words l) with
            | last :: rest -> String.concat " " (List.rev (f last :: rest))
            | [] -> l)
  in
  let out =
    match m with
    | Negative_value -> set_value (fun v -> "-" ^ v)
    | Nan_value -> set_value (Fun.const "nan")
    | Overflow_value -> set_value (Fun.const "1e400")
    | Cycle ->
        (* two nodes already joined, joined again (or a self-loop) *)
        insert (Printf.sprintf "Rcycle %s %s 1" (node ()) (node ()))
    | Dangling_node ->
        if Random.State.bool st then insert "Rfloat island_a island_b 1"
        else insert "Cfloat island_c 0 1"
    | Duplicate_name -> (
        match pick_opt st cards with
        | None -> insert "R1 in dup 1"
        | Some i -> insert (List.nth lines i))
    | Missing_source -> List.filter (fun l -> card_letter l <> Some 'v') lines
    | Extra_source -> insert (Printf.sprintf "Vextra %s 0" (node ()))
    | Wrong_arity -> (
        match pick_opt st valued with
        | None -> insert "R1 in"
        | Some i ->
            rewrite i (fun l ->
                match List.rev (words l) with
                | _ :: rest when Random.State.bool st -> String.concat " " (List.rev rest)
                | _ -> l ^ " 7"))
    | Orphan_continuation -> insert "+ 1"
    | Self_include -> insert (".include " ^ self)
  in
  String.concat "\n" out

(* --- the fuzz-driver generator ---------------------------------------- *)

let pick st l = List.nth l (Random.State.int st (List.length l))

let edge_resistances = [ 0.2; 1.; 3.; 10.; 47. ]
let node_caps = [ 0.; 0.5; 1.; 4. ]
let line_caps = [ 0.5; 1.; 4. ]

let gen_edit st =
  let leaf = Random.State.int st 16 in
  match Random.State.int st 6 with
  | 0 -> Case.Replace { leaf; r = pick st rng_values; c = pick st rng_values }
  | 1 -> Case.Scale_r { leaf; factor = pick st rng_values }
  | 2 -> Case.Scale_c { leaf; factor = pick st rng_values }
  | 3 -> Case.Buffer { leaf; r = pick st rng_values; c = pick st rng_values }
  | 4 -> Case.Graft { leaf; r = pick st rng_values; c = pick st rng_values }
  | _ -> Case.Prune { leaf }

let case ?(max_nodes = 10) ?(with_edits = true) ?(label = "") st =
  let n = 1 + Random.State.int st max_nodes in
  let b = Rctree.Tree.Builder.create ~name:"fuzz" () in
  let nodes = Array.make (n + 1) (Rctree.Tree.Builder.input b) in
  for i = 0 to n - 1 do
    let parent = nodes.(Random.State.int st (i + 1)) in
    let node =
      if Random.State.int st 4 = 0 then
        (* distributed line; positive R so discretized sections stay
           simulatable *)
        Rctree.Tree.Builder.add_line b ~parent (pick st edge_resistances) (pick st line_caps)
      else Rctree.Tree.Builder.add_resistor b ~parent (pick st edge_resistances)
    in
    Rctree.Tree.Builder.add_capacitance b node (pick st node_caps);
    nodes.(i + 1) <- node
  done;
  let output = nodes.(1 + Random.State.int st n) in
  Rctree.Tree.Builder.add_capacitance b output 1.;
  Rctree.Tree.Builder.mark_output b ~label:"out" output;
  let edits =
    if with_edits then List.init (Random.State.int st 5) (fun _ -> gen_edit st) else []
  in
  Case.make ~edits ~label (Rctree.Tree.Builder.finish b) ~output
