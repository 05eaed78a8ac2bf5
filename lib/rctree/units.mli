(** Engineering-notation formatting and parsing of physical quantities.

    The project works in SI base units throughout (ohms, farads,
    seconds); these helpers only matter at the text boundary — SPICE
    decks, reports and tables. *)

val format_si : ?digits:int -> float -> string
(** [format_si x] renders [x] with an SI prefix: [1.5e-12 -> "1.5p"],
    [2.2e4 -> "22k"].  [digits] is the number of significant digits
    (default 4).  Zero renders as ["0"].  Raises [Invalid_argument]
    when [digits] is negative. *)

val format_quantity : ?digits:int -> unit_symbol:string -> float -> string
(** [format_quantity ~unit_symbol:"s" 1.5e-9] is ["1.5ns"]. *)

val parse_si : string -> float option
(** Parse a number with an optional SI suffix, SPICE-style: ["100"],
    ["1.5k"], ["0.01p"], ["2meg"], ["3u"].  Suffix matching is
    case-insensitive; ["meg"] is mega (1e6) while a bare ["m"] is milli
    (1e-3), as in SPICE.  Trailing unit letters after the prefix are
    ignored (["10pF"] parses as [1e-11]).  [None] on malformed input. *)

val ohms_per_square : sheet:float -> squares:float -> float
(** Resistance of a wire segment from sheet resistance and the number of
    squares (length/width). *)
