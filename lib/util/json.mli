(** Minimal JSON construction and parsing.

    H-SYN emits JSON in several places — [hsyn synth --json], the
    [--events-json] NDJSON stream, the [--trace] Perfetto export, the
    [--metrics] snapshot and the [hsyn serve] answers — and all must
    agree on escaping and number formatting. This module is the single
    writer they share. The parser reads the daemon's request lines
    (untrusted bytes) and the files [hsyn report] reads back; it
    accepts exactly the subset this module emits (RFC 8259 with BMP
    [\u] escapes), nested at most {!max_depth} deep. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values render as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering with RFC 8259 string escaping.
    Floats use ["%.12g"], which round-trips every value the cost
    models produce while staying readable. *)

val to_buffer : Buffer.t -> t -> unit

val max_depth : int
(** 256: the deepest nesting of arrays and objects {!of_string}
    accepts. Every document H-SYN writes or reads nests a few levels
    deep; the limit bounds the parser's recursion, so a hostile line of
    millions of [\[] is rejected at offset [max_depth + 1]. *)

val of_string : string -> (t, string) result
(** Parse one JSON value. Numbers without a fraction or exponent that
    fit in [int] parse as {!Int}, everything else as {!Float}. Errors
    carry a byte offset; a value nested deeper than {!max_depth} is an
    error that names the limit. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the value bound to [key], if any;
    [None] on every other constructor. *)

val to_int_opt : t -> int option
(** [Int], or an integral [Float] (the writer renders integral floats
    as [x.0], so round-trips land here). *)

val to_float_opt : t -> float option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
