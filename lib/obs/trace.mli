(** Span tracer: categorized begin/end spans and instant events in
    per-domain ring buffers, exported as Chrome/Perfetto trace-event
    JSON ([hsyn synth --trace out.trace.json]).

    {!span} through a {!probe} is the permanent instrument of the
    synthesis pipeline. A probe is made once per call site, at module
    initialization. With everything off a span costs one atomic load.
    Armed, one pair of monotonic clock reads (integer nanoseconds)
    feeds, when metrics are on, the probe's [stage.<name>] duration
    histogram and its exact self-time total in the metrics registry
    (what [--profile], [--metrics] and [hsyn report] read), and — when
    tracing proper is on — a trace event under the recording domain's
    tid. An armed span builds no string, looks nothing up in the
    registry and takes no lock.

    Rings are bounded ({!set_capacity}, default 65536 events per
    domain); overflow overwrites the oldest events and is reported in
    the export's [otherData.dropped_events]. Collection ({!events},
    {!to_json}, {!write}) merges the rings sorted by timestamp and is
    exact once writers have quiesced. *)

module Json = Hsyn_util.Json

type category = Pass | Move | Schedule | Power | Embed | Checkpoint

val category_name : category -> string
(** Stable machine name, e.g. ["schedule"] — the [cat] field of the
    exported events. *)

type phase = Complete | Instant

type event = {
  ev_name : string;
  ev_cat : category;
  ev_phase : phase;
  ev_ts_us : float;  (** microseconds since process start *)
  ev_dur_us : float;  (** [Complete] spans only *)
  ev_tid : int;  (** the recording domain's id *)
  ev_scope : int;
      (** request id of the {!Scope} ambient on the recording domain at
          the moment of recording; [0] when unscoped (solo runs, pool
          workers) *)
}

val set_enabled : bool -> unit
val is_enabled : unit -> bool

type probe
(** One span site: its category and name, and its metrics handles. *)

val probe : category -> string -> probe
(** [probe cat name] registers the site's metrics: the [stage.<name>]
    histogram of inclusive milliseconds per call (default edges; its
    count is the number of calls, its sum the inclusive time) and the
    counter [stage.<name>.self_ns], the exclusive time in integer
    nanoseconds. Self time is a span's time minus that of the spans
    opened directly inside it on the same domain, computed from the
    integer clock, so a span's inclusive nanoseconds (its trace event's
    duration) are exactly its self time plus its direct children's.
    Make a probe once per call site, e.g. at top level:
    [let probe = Trace.probe Trace.Schedule "schedule"]; probes with one
    name share their metrics. *)

val span : probe -> (unit -> 'a) -> 'a
(** [span p f] runs [f], recording its duration to every armed
    consumer (also when [f] raises, which closes the span and lets the
    exception escape). Safe from any domain; each domain keeps its own
    stack of open spans, which the threads of one domain share, so self
    times are exact when one thread per domain runs spans, as the CLI,
    the evaluation pool and the serve daemon's workers do. *)

val instant : category -> string -> unit
(** A zero-duration marker event; recorded only when tracing is on. *)

val set_capacity : int -> unit
(** Ring capacity for domains that have not recorded yet (min 16). *)

val events : unit -> event list
(** All retained events, merged across domains, ascending timestamp. *)

val scoped_events : int -> event list
(** {!events} restricted to one request id — the spans recorded on
    domains that carried that {!Scope} (the serve driver domain; pool
    workers record unscoped). *)

val render_tree : event list -> string
(** Human-readable indented span tree, grouped per domain, nesting
    recovered from interval containment — the [span_tree] payload of
    the serve daemon's slow-request log. *)

val dropped : unit -> int
(** Events lost to ring overflow since the last {!reset}. *)

val to_json : unit -> Json.t
(** [{"displayTimeUnit":"ms","traceEvents":[...],"otherData":{...}}] —
    loadable by Perfetto / chrome://tracing. Complete spans use
    [ph:"X"] with [ts]/[dur] in microseconds; instants use [ph:"i"].
    [pid] is the OS process, [tid] the OCaml domain. *)

val write : string -> unit
(** {!to_json} to a file. *)

val reset : unit -> unit
(** Drop all rings. Must not race active recording. *)
