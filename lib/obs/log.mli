(** Leveled, structured NDJSON logger.

    One record per line:
    [{"ts":<epoch s>,"level":"info","msg":"request",<scope>,<fields>}].
    When the calling domain carries an ambient {!Scope} (a served
    request), its [request_id] — and [tenant], if any — are injected
    into every record automatically, which is what makes the serve
    daemon's log attributable per request without threading ids
    through call sites.

    Filtering is one atomic load ({!Gate.log_level}; default [Warn],
    so libraries stay quiet until a front-end opts in). Records are
    rendered to the current {!Report.Sink} (stderr by default,
    {!set_sink} to redirect, e.g. [hsyn serve --log FILE]); the sink's
    mutex and single buffered write keep lines atomic across
    concurrently logging domains. A write failure (vanished reader)
    drops the record, never raises. *)

module Json = Hsyn_util.Json

type level = Debug | Info | Warn | Error

val level_int : level -> int
(** [Debug 0, Info 1, Warn 2, Error 3] — the {!Gate.log_level}
    ordering. *)

val level_name : level -> string
val set_level : level -> unit
(** Emit records at this level and above. *)

val enabled : level -> bool
(** Whether a record at [level] would currently be emitted — the one
    atomic load a filtered call costs. *)

val set_sink : Report.Sink.t -> unit
val sink : unit -> Report.Sink.t
(** Where records go. The previous sink is not closed — callers that
    opened a file sink own its lifetime. *)

val log : level -> ?fields:(string * Json.t) list -> string -> unit
val debug : ?fields:(string * Json.t) list -> string -> unit
val info : ?fields:(string * Json.t) list -> string -> unit
val warn : ?fields:(string * Json.t) list -> string -> unit
val error : ?fields:(string * Json.t) list -> string -> unit
(** [fields] are appended after the [ts]/[level]/[msg]/scope keys;
    keep keys lowercase snake_case (DESIGN.md §11 naming). *)
