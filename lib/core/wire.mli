(** Wire codec for the request API.

    One JSON vocabulary — built on {!Hsyn_util.Json} — describes a
    complete synthesis request: the problem source (a built-in
    benchmark name or an inline textual program), the objective and
    timing constraint, the {!Synthesize.Config.t} and the {!Budget.t}.
    The CLI builds its [hsyn synth] invocations through this codec
    (and can dump them with [--dump-request]); the [hsyn serve] daemon
    parses the very same documents off its socket. Whatever front-end
    produced the document, {!to_request} turns it into the same
    validated {!Synthesize.Request.t}, which is what makes a served
    run bit-identical to a solo CLI run of the same document.

    Parsing is strict: unknown fields, wrong types and out-of-range
    values are reported as [Error] with the offending field named, so
    a daemon can answer with a typed {!error} instead of dying or
    guessing. All documents are versioned with {!schema_version};
    field additions keep the version, renames/removals bump it. *)

module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry
module Library = Hsyn_modlib.Library
module Json = Hsyn_util.Json

val schema_version : int

(** {1 Typed error responses}

    The error half of the wire vocabulary: every failure a front-end
    can hand back (malformed request, admission-control reject,
    failed synthesis) is one of these, rendered as a single
    [{"kind":"hsyn.error",…}] NDJSON line. *)

type error_code =
  | Bad_request  (** unparseable or invalid request document *)
  | Overloaded  (** admission control rejected the request; retry later *)
  | Shutting_down  (** the daemon is draining and accepts no new work *)
  | Failed  (** the synthesis ran and returned an error (e.g. infeasible) *)
  | Internal  (** unexpected server-side exception *)

val error_code_name : error_code -> string
val error_code_of_name : string -> error_code option

type error = {
  code : error_code;
  message : string;
  retry_after_s : float option;
      (** with {!Overloaded}: how long the client should wait before
          retrying (the 429 [Retry-After] of this protocol) *)
}

val error : ?retry_after_s:float -> error_code -> string -> error
val error_to_json : error -> Json.t
val error_of_json : Json.t -> (error, string) result

(** {1 Config and budget codecs}

    Round-trip codecs: [of_json (to_json c) = Ok c] up to the
    unserializable [clib_effort.trace] function (which always
    round-trips to the identity default). [of_json] starts from
    {!Synthesize.Config.default} / {!Budget.unlimited}, overrides the
    fields present, rejects fields it does not know, and runs the
    usual validation, so a document can carry just the overrides it
    cares about. *)

val config_to_json : Synthesize.Config.t -> Json.t
val config_of_json : Json.t -> (Synthesize.Config.t, string) result
val budget_to_json : Budget.t -> Json.t
val budget_of_json : Json.t -> (Budget.t, string) result

(** {1 Request documents} *)

type source =
  | Bench of string  (** a built-in benchmark, resolved by the front-end *)
  | Program of { text : string; graph : string option }
      (** an inline program in the textual DFG exchange format;
          [graph] selects the top graph of a multi-dfg program *)

type timing =
  | Sampling_ns of float  (** absolute sampling period *)
  | Laxity of float
      (** sampling period as a multiple of the behavior's minimum
          ({!Synthesize.min_sampling_ns}), resolved by {!to_request} *)

type doc = {
  source : source;
  objective : Cost.objective;
  timing : timing;
  flatten : bool;  (** the flattened baseline mode *)
  config : Synthesize.Config.t;
  budget : Budget.t;
  cache : string option;
      (** persistent cost-cache directory for warm starts. Honored by
          the CLI; the daemon ignores a client-supplied value (its
          cache location is operator-controlled via [serve --cache]) *)
  tenant : string option;
      (** optional caller identity, purely observational: the daemon
          labels its per-request metrics and log records with it
          (DESIGN.md §11). Never influences the synthesis result.
          Serialized only when present, so existing documents are
          unchanged *)
}

val make_doc :
  ?objective:Cost.objective ->
  ?timing:timing ->
  ?flatten:bool ->
  ?config:Synthesize.Config.t ->
  ?budget:Budget.t ->
  ?cache:string ->
  ?tenant:string ->
  source ->
  doc
(** Defaults: area objective, laxity 2.2, hierarchical mode, default
    config, unlimited budget, no cache directory, no tenant. *)

val doc_to_json : doc -> Json.t
(** One [{"kind":"hsyn.request","schema_version":…}] object — the
    line a client sends to [hsyn serve], and what [hsyn synth
    --dump-request] prints. *)

val doc_of_json : Json.t -> (doc, string) result
val doc_of_string : string -> (doc, string) result

val to_request :
  ?session:Session.t ->
  ?resolve_bench:(string -> (Registry.t * Dfg.t) option) ->
  lib:Library.t ->
  doc ->
  (Synthesize.Request.t, string) result
(** Resolve the document against a module library: look up or parse
    the source, resolve a {!Laxity} timing against the behavior's
    minimum sampling period, and build the validated request.
    [resolve_bench] maps benchmark names (the CLI and the daemon pass
    the built-in suite; it defaults to rejecting every name, since
    [lib/core] cannot depend on the benchmark library). [session] is
    threaded into the request for shared-memoization front-ends. *)
