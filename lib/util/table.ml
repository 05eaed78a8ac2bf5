(* Cells are kept as bytes, row-major with the header as row 0: [cells]
   holds their concatenation and [ends.(k)] is where cell k stops, so a
   row costs its text plus one int per cell.  Column widths are kept up
   to date as rows arrive, and rendering is one pass. *)
type t = {
  ncols : int;
  widths : int array;
  cells : Buffer.t;
  mutable ends : int array;
  mutable count : int;  (** cells stored, header included *)
}

let push t cell =
  if t.count = Array.length t.ends then begin
    let ends = Array.make (2 * t.count) 0 in
    Array.blit t.ends 0 ends 0 t.count;
    t.ends <- ends
  end;
  let j = t.count mod t.ncols in
  t.widths.(j) <- Int.max t.widths.(j) (String.length cell);
  Buffer.add_string t.cells cell;
  t.ends.(t.count) <- Buffer.length t.cells;
  t.count <- t.count + 1

let create ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  let ncols = List.length columns in
  let t =
    {
      ncols;
      widths = Array.make ncols 0;
      cells = Buffer.create 256;
      ends = Array.make (4 * ncols) 0;
      count = 0;
    }
  in
  List.iter (push t) columns;
  t

let add_row t row =
  let n = List.length row in
  if n <> t.ncols then
    invalid_arg (Printf.sprintf "Table.add_row: %d cells for %d columns" n t.ncols);
  List.iter (push t) row

let add_float_row ?(fmt = Printf.sprintf "%.6g") t label values =
  add_row t (label :: List.map fmt values)

let numeric_char = function '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true | _ -> false

(* every line is as long as the header: cells padded to their column's
   width and separated by two spaces, the rule joined by "--" *)
let line_length t = Array.fold_left ( + ) 0 t.widths + (2 * (t.ncols - 1)) + 1

(* the rendered table as a sequence of [emit s pos len] calls *)
let emit_lines t emit =
  let cells = Buffer.contents t.cells in
  let widest = Array.fold_left Int.max 2 t.widths in
  let spaces = String.make widest ' ' and dashes = String.make widest '-' in
  let cell k =
    let start = if k = 0 then 0 else t.ends.(k - 1) in
    let len = t.ends.(k) - start in
    let pad = t.widths.(k mod t.ncols) - len in
    let numeric = ref (len > 0) in
    for i = start to start + len - 1 do
      if not (numeric_char (String.unsafe_get cells i)) then numeric := false
    done;
    if !numeric then emit spaces 0 pad;
    emit cells start len;
    if not !numeric then emit spaces 0 pad
  in
  let row r =
    for j = 0 to t.ncols - 1 do
      if j > 0 then emit spaces 0 2;
      cell ((r * t.ncols) + j)
    done;
    emit "\n" 0 1
  in
  row 0;
  Array.iteri
    (fun j w ->
      if j > 0 then emit dashes 0 2;
      emit dashes 0 w)
    t.widths;
  emit "\n" 0 1;
  for r = 1 to (t.count / t.ncols) - 1 do
    row r
  done

let render t =
  let buf = Buffer.create (((t.count / t.ncols) + 1) * line_length t) in
  emit_lines t (Buffer.add_substring buf);
  Buffer.contents buf

let print t = emit_lines t (output_substring stdout)

let csv_cell cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let render_csv t =
  let cells = Buffer.contents t.cells in
  let buf = Buffer.create (String.length cells + t.count) in
  for k = 0 to t.count - 1 do
    let start = if k = 0 then 0 else t.ends.(k - 1) in
    Buffer.add_string buf (csv_cell (String.sub cells start (t.ends.(k) - start)));
    Buffer.add_char buf (if (k + 1) mod t.ncols = 0 then '\n' else ',')
  done;
  Buffer.contents buf
