type error = { line : int; column : int; message : string }

let error_to_string { line; column; message } =
  if column > 0 then Printf.sprintf "line %d, column %d: %s" line column message
  else Printf.sprintf "line %d: %s" line message

exception Parse_error of error

let fail ?(column = 0) line message = raise (Parse_error { line; column; message })

(* The deck is scanned in place, one index over one string.  A logical
   line (a card plus its '+' continuations) is held as the spans of its
   tokens, each with the physical line and the 1-based column it starts
   at, so that no line is copied and an error names its token's own
   position.  The buffers are reused from one logical line to the next. *)
type scan = {
  src : string;
  mutable count : int;  (** tokens in the current logical line *)
  mutable starts : int array;
  mutable stops : int array;
  mutable lines : int array;
  mutable columns : int array;
  mutable first_line : int;  (** physical line the logical line starts on *)
  mutable first_start : int;  (** trimmed span of that physical line *)
  mutable first_stop : int;
  mutable pieces : (int * int) list;
      (** trimmed spans of its continuation lines, reversed; kept only
          for the title *)
  mutable recent : string;  (** the last two node names made, newest first *)
  mutable older : string;
}

let create_scan src =
  let cap = 8 in
  {
    src;
    count = 0;
    starts = Array.make cap 0;
    stops = Array.make cap 0;
    lines = Array.make cap 0;
    columns = Array.make cap 0;
    first_line = 0;
    first_start = 0;
    first_stop = 0;
    pieces = [];
    recent = "";
    older = "";
  }

let push_token t ~start ~stop ~line ~column =
  if t.count = Array.length t.starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    t.starts <- grow t.starts;
    t.stops <- grow t.stops;
    t.lines <- grow t.lines;
    t.columns <- grow t.columns
  end;
  let k = t.count in
  t.starts.(k) <- start;
  t.stops.(k) <- stop;
  t.lines.(k) <- line;
  t.columns.(k) <- column;
  t.count <- k + 1

(* tokens of [src.[s, e)] on physical line [line] starting at [line_start];
   only ' ' and '\t' separate tokens *)
let add_tokens t ~line ~line_start s e =
  let src = t.src in
  let i = ref s in
  while !i < e do
    while !i < e && (src.[!i] = ' ' || src.[!i] = '\t') do
      incr i
    done;
    if !i < e then begin
      let start = !i in
      while !i < e && src.[!i] <> ' ' && src.[!i] <> '\t' do
        incr i
      done;
      push_token t ~start ~stop:!i ~line ~column:(start - line_start + 1)
    end
  done

let token t k = String.sub t.src t.starts.(k) (t.stops.(k) - t.starts.(k))

let fail_at t k message = fail ~column:t.columns.(k) t.lines.(k) message

let rec same_chars s src start len i =
  i = len || (String.unsafe_get s i = src.[start + i] && same_chars s src start len (i + 1))

(* does [s] spell [src.[start, start + len)]? *)
let spells s src start len = String.length s = len && same_chars s src start len 0

(* A node name recurs on neighbouring cards (R a b, C b 0, R b c), so a
   token that spells one of the last two names made reuses that string,
   and ground is one shared "0": a deck holds one copy of most names. *)
let node t k =
  let src = t.src and start = t.starts.(k) in
  let len = t.stops.(k) - start in
  if len = 1 && src.[start] = '0' then "0"
  else if spells t.recent src start len then t.recent
  else if spells t.older src start len then begin
    let s = t.older in
    t.older <- t.recent;
    t.recent <- s;
    s
  end
  else begin
    let s = String.sub src start len in
    t.older <- t.recent;
    t.recent <- s;
    s
  end

(* the logical line as one string, continuations joined by a space *)
let logical_text t =
  let sub (s, e) = String.sub t.src s (e - s) in
  String.concat " " (sub (t.first_start, t.first_stop) :: List.rev_map sub t.pieces)

let parse_value t k what =
  let s = token t k in
  match Rctree.Units.parse_si s with
  | Some v when Float.is_finite v ->
      if v < 0. then fail_at t k (Printf.sprintf "negative %s value %S" what s) else v
  | Some _ | None -> fail_at t k (Printf.sprintf "bad %s value %S" what s)

(* "R1" -> "1"; keep the full token when it is just the letter *)
let card_name t prefix =
  let start = t.starts.(0) and len = t.stops.(0) - t.starts.(0) in
  if len > 1 then String.sub t.src (start + 1) (len - 1) else prefix

let words t = List.init (t.count - 1) (fun i -> token t (i + 1))

let parse_card t =
  let args = t.count - 1 in
  match Char.lowercase_ascii t.src.[t.starts.(0)] with
  | 'r' when args = 3 ->
      let name = card_name t "r" and n1 = node t 1 in
      let n2 = node t 2 in
      `Card (Deck.Resistor { name; n1; n2; value = parse_value t 3 "resistance" })
  | 'c' when args = 3 ->
      let name = card_name t "c" and n1 = node t 1 in
      let n2 = node t 2 in
      `Card (Deck.Capacitor { name; n1; n2; value = parse_value t 3 "capacitance" })
  | 'u' when args = 4 ->
      let name = card_name t "u" and n1 = node t 1 in
      let n2 = node t 2 in
      let resistance = parse_value t 3 "resistance" in
      let capacitance = parse_value t 4 "capacitance" in
      `Card (Deck.Line { name; n1; n2; resistance; capacitance })
  | 'v' when args >= 2 ->
      let name = card_name t "v" and n1 = node t 1 in
      `Card (Deck.Source { name; n1; n2 = node t 2 })
  | 'r' | 'c' | 'u' | 'v' -> fail_at t 0 (Printf.sprintf "wrong argument count for %S" (token t 0))
  | '.' -> (
      match String.lowercase_ascii (token t 0) with
      | ".end" -> `End
      | ".title" -> `Title (String.concat " " (words t))
      | ".output" when args > 0 -> `Outputs (words t)
      | ".output" -> fail t.first_line ".output needs at least one node"
      | ".include" when args = 1 ->
          (* strip optional quotes *)
          let path = token t 1 in
          let l = String.length path in
          let path =
            if l >= 2 && path.[0] = '"' && path.[l - 1] = '"' then String.sub path 1 (l - 2)
            else path
          in
          `Include (path, t.lines.(1), t.columns.(1))
      | ".include" -> fail t.first_line ".include needs exactly one path"
      | d -> fail_at t 0 (Printf.sprintf "unknown directive %S" d))
  | _ -> fail_at t 0 (Printf.sprintf "unknown card %S" (token t 0))

type included = Deck of Deck.t | Failed of error | Cycle of string

(* [resolve] turns an .include path into a sub-deck *)
let parse_exn ?resolve src =
  let t = create_scan src in
  let cards = ref [] and outputs = ref [] (* both reversed *) in
  let title = ref "" and ended = ref false and first = ref true in
  let body () =
    let n = t.first_line in
    if !ended then fail n "content after .end"
    else
      match parse_card t with
      | `Card c -> cards := c :: !cards
      | `Title s -> title := s
      | `Outputs ns -> outputs := List.rev_append ns !outputs
      | `Include (path, line, column) -> (
          match resolve with
          | None -> fail n ".include needs a base directory (use parse_file)"
          | Some f -> (
              match f path with
              | Deck (sub : Deck.t) ->
                  cards := List.rev_append sub.Deck.cards !cards;
                  outputs := List.rev_append sub.Deck.outputs !outputs
              | Failed e ->
                  fail n (Printf.sprintf "in included file %S, %s" path (error_to_string e))
              | Cycle chain -> fail ~column line (".include cycle: " ^ chain)))
      | `End -> ended := true
  in
  (* SPICE tradition: a first line that is not a recognizable card is the title *)
  let finish_logical () =
    if t.count > 0 then begin
      if !first then begin
        first := false;
        match parse_card t with
        | exception Parse_error _ -> title := logical_text t
        | `Title s -> title := s
        | `Card _ | `Outputs _ | `End | `Include _ -> body ()
      end
      else body ();
      t.count <- 0;
      t.pieces <- []
    end
  in
  let len = String.length src in
  let blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012' in
  let line_start = ref 0 and line = ref 1 in
  while !line_start < len do
    let ls = !line_start in
    (* a trailing comment starts at the first ';' or '$'; the line ends at '\n' *)
    let i = ref ls in
    while !i < len && match src.[!i] with '\n' | ';' | '$' -> false | _ -> true do
      incr i
    done;
    let s = ref ls and e = ref !i in
    while !i < len && src.[!i] <> '\n' do
      incr i
    done;
    let le = !i in
    while !s < !e && blank src.[!s] do
      incr s
    done;
    while !e > !s && blank src.[!e - 1] do
      decr e
    done;
    let s = !s and e = !e in
    if s < e && src.[s] <> '*' then begin
      if src.[s] = '+' then begin
        if t.count = 0 then fail !line "continuation line with nothing to continue";
        t.pieces <- (s + 1, e) :: t.pieces;
        add_tokens t ~line:!line ~line_start:ls (s + 1) e
      end
      else begin
        finish_logical ();
        t.first_line <- !line;
        t.first_start <- s;
        t.first_stop <- e;
        add_tokens t ~line:!line ~line_start:ls s e
      end
    end;
    line_start := le + 1;
    incr line
  done;
  finish_logical ();
  Deck.make ~title:!title ~outputs:(List.rev !outputs) (List.rev !cards)

let m_decks = Obs.Counter.make "spice.decks_parsed"
let m_errors = Obs.Counter.make "spice.parse_errors"
let m_cards = Obs.Histogram.make "spice.cards_per_deck"

let record_parse = function
  | Ok deck ->
      Obs.Counter.incr m_decks;
      Obs.Histogram.observe m_cards (float_of_int (List.length deck.Deck.cards));
      Ok deck
  | Error e ->
      Obs.Counter.incr m_errors;
      Error e

let parse ?resolve src =
  record_parse
    (match parse_exn ?resolve src with deck -> Ok deck | exception Parse_error e -> Error e)

let parse_string s = parse s
let parse_lines lines = parse (String.concat "\n" lines)

(* absolute, with "." and ".." folded away lexically: the key under which
   an include cycle is recognised *)
let canonical path =
  let abs = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path in
  let parts =
    List.fold_left
      (fun acc part ->
        match (part, acc) with
        | ("" | "."), _ -> acc
        | "..", _ :: up -> up
        | "..", [] -> []
        | _ -> part :: acc)
      [] (String.split_on_char '/' abs)
  in
  "/" ^ String.concat "/" (List.rev parts)

let parse_file ?(max_include_depth = 16) path =
  Obs.Span.with_ ~name:"spice.parse" @@ fun () ->
  (* [stack]: the files being read, innermost first, each as its
     canonical path and as the name it was included by *)
  let rec go depth stack ~shown path =
    if depth < 0 then Error { line = 0; column = 0; message = "includes nested too deeply" }
    else begin
      let stack = (canonical path, shown) :: stack in
      let dir = Filename.dirname path in
      let resolve sub =
        let sub_path = if Filename.is_relative sub then Filename.concat dir sub else sub in
        let key = canonical sub_path in
        if List.mem_assoc key stack then begin
          (* the chain from the file's first opening down to this include *)
          let rec upto acc = function
            | [] -> acc
            | (k, shown) :: rest -> if k = key then shown :: acc else upto (shown :: acc) rest
          in
          Cycle (String.concat " -> " (upto [ sub ] stack))
        end
        else if Sys.file_exists sub_path then
          match go (depth - 1) stack ~shown:sub sub_path with
          | Ok d -> Deck d
          | Error e -> Failed e
          | exception Sys_error message -> Failed { line = 0; column = 0; message }
        else Failed { line = 0; column = 0; message = "file not found" }
      in
      parse ~resolve (In_channel.with_open_bin path In_channel.input_all)
    end
  in
  go max_include_depth [] ~shown:path path
