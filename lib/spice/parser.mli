(** Parser for the deck format of {!Deck}.

    Accepts classic SPICE conventions: ['*'] comments, [';'] and ['$']
    trailing comments, ['+'] continuation lines, case-insensitive card
    letters, a first line treated as the title when it parses as no
    known card, [.title]/[.output]/[.end] directives.  Negative values
    are rejected at their token. *)

type error = { line : int; column : int; message : string }
(** Parsing never raises: every malformed deck comes back as [Error].
    When one token is to blame (a bad or negative value, an unknown
    card or directive, a card of the wrong shape, an [.include]
    cycle) [line] and [column] are that token's own 1-based position,
    also when it sits on a [+] continuation line; otherwise [column]
    is [0] and [line] is the first line of the offending card. *)

val parse_string : string -> (Deck.t, error) result

val parse_lines : string list -> (Deck.t, error) result

val parse_file : ?max_include_depth:int -> string -> (Deck.t, error) result
(** Reads the file in one piece and scans it in place.  Raises
    [Sys_error] when a file cannot be read.  Errors inside an included
    file carry that file's line number and name its path in the
    message.  An [.include] of a file that is already being read is a
    cycle, reported once at the offending directive with the chain of
    files; chains that are not cycles stop at [max_include_depth]
    (default 16). *)

val error_to_string : error -> string
