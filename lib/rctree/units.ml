let prefixes =
  [
    (1e-15, "f"); (1e-12, "p"); (1e-9, "n"); (1e-6, "u"); (1e-3, "m");
    (1., ""); (1e3, "k"); (1e6, "M"); (1e9, "G"); (1e12, "T");
  ]

(* the C formatter behind Printf's "%.*g", called directly: a CLI table
   formats three of these per row, and the Printf interpreter costs
   about as much as the row's arithmetic *)
external format_float : string -> float -> string = "caml_format_float"

let format_si ?(digits = 4) x =
  if digits < 0 then invalid_arg "Units.format_si: negative digits";
  if x = 0. then "0"
  else if not (Float.is_finite x) then Printf.sprintf "%f" x
  else begin
    let mag = Float.abs x in
    let scale, prefix =
      let rec pick = function
        | [] -> (1., "")
        | [ (s, p) ] -> (s, p)
        | (s, p) :: rest ->
            (* choose the largest prefix not exceeding the magnitude,
               so that the mantissa lands in [1, 1000) *)
            if mag < s *. 1000. then (s, p) else pick rest
      in
      if mag < 1e-15 then (1., "") else pick prefixes
    in
    let mantissa = x /. scale in
    let g = if digits = 4 then "%.4g" else "%." ^ string_of_int digits ^ "g" in
    format_float g mantissa ^ prefix
  end

let format_quantity ?digits ~unit_symbol x = format_si ?digits x ^ unit_symbol

let suffix_scale s =
  match String.lowercase_ascii s with
  | "" -> Some 1.
  | "f" -> Some 1e-15
  | "p" -> Some 1e-12
  | "n" -> Some 1e-9
  | "u" -> Some 1e-6
  | "m" -> Some 1e-3
  | "k" -> Some 1e3
  | "meg" -> Some 1e6
  | "g" -> Some 1e9
  | "t" -> Some 1e12
  | _ -> None

(* end of the leading numeric part of [s] from [i]: digits, '.', signs,
   and an 'e'/'E' only when a digit or sign follows it *)
let rec num_end s n i =
  if i >= n then i
  else
    match s.[i] with
    | 'e' | 'E' ->
        if i + 1 < n && match s.[i + 1] with '0' .. '9' | '+' | '-' -> true | _ -> false then
          num_end s n (i + 2)
        else i
    | '0' .. '9' | '.' | '-' | '+' -> num_end s n (i + 1)
    | _ -> i

(* uppercase "M" is SI mega; lowercase "m" stays SPICE milli *)
let parse_si_suffixed s =
  let s = String.trim s in
  let n = String.length s in
  let split = num_end s n 0 in
  if split = 0 then None
  else
    match float_of_string_opt (String.sub s 0 split) with
    | None -> None
    | Some v ->
        (* SPICE convention: "meg" beats "m"; any other trailing unit
           letters after a recognized prefix are ignored *)
        let rest = String.sub s split (n - split) in
        let rest_l = String.lowercase_ascii rest in
        let scale =
          if String.length rest_l >= 3 && String.sub rest_l 0 3 = "meg" then 1e6
          else if rest_l = "" then 1.
          else if rest.[0] = 'M' then 1e6 (* SI mega, distinct from milli *)
          else (* a bare unit like "F" scales by one *)
            Option.value (suffix_scale (String.sub rest_l 0 1)) ~default:1.
        in
        Some (v *. scale)

(* the common case — a plain number, as in every generated deck — skips
   the trim, the copies and the suffix lookup *)
let parse_si s =
  let n = String.length s in
  if n > 0 && num_end s n 0 = n then float_of_string_opt s else parse_si_suffixed s

let ohms_per_square ~sheet ~squares =
  if sheet < 0. || squares < 0. then invalid_arg "Units.ohms_per_square: negative argument";
  sheet *. squares
