(** Unified metrics registry: counters, gauges and fixed-bucket
    histograms, named, optionally labeled, process-wide, domain-safe.

    Writers bump per-domain shards (lock-free CAS-appended lists of
    atomics, following the evaluation-pool worker model), so recording
    from pool workers never contends with the driving domain; readers
    merge the shards on demand. All writes are gated on
    {!Gate.set_metrics}: when metrics are off a write costs one atomic
    load.

    Handles are interned by name — [counter "engine.generated"] returns
    the same counter everywhere. Interning takes the registry's lock,
    so a hot path resolves its handles once, where it is defined, and
    only writes them. The naming convention is
    dot-separated lowercase segments, most general first, with an
    optional move-family suffix ([engine.generated.A:select]); see
    DESIGN.md §Observability. Re-registering a name with a different
    kind (or a histogram with different edges) raises [Invalid_argument].

    A handle may additionally carry a low-cardinality label set
    ([counter ~labels:[("objective","power")] "serve.requests"]). Labels
    are canonicalized by key order, and the full exported name is
    [base{k="v",...}], so labeled series flow through the existing
    snapshot schema unchanged. Per base name at most {!max_label_sets}
    distinct label sets are interned; beyond the cap new label sets
    collapse into the reserved [base{overflow="true"}] series — an
    unbounded labeler degrades accuracy, never memory.

    {!snapshot} renders every metric written since the last {!reset}
    as one versioned JSON object — the export behind
    [hsyn synth --metrics], the flight-recorder NDJSON line, and
    [hsyn report]; {!Prom.render} re-renders every registered series as
    Prometheus text exposition. *)

module Json = Hsyn_util.Json

val set_enabled : bool -> unit
val is_enabled : unit -> bool
val schema_version : int
(** 2: a snapshot has the sections [counters], [gauges] and
    [histograms] (version 1 also had an always-empty [fcounters]). *)

type labels = (string * string) list
(** Label key/value pairs; sorted by key on intern, so
    [[("a","1");("b","2")]] and its permutation are the same series. *)

val max_label_sets : int
(** Cardinality cap per base name (overflow series excluded). *)

type counter
type gauge
type histogram

val counter : ?labels:labels -> string -> counter
val gauge : ?labels:labels -> string -> gauge

val default_duration_edges_ms : float array
(** Bucket upper edges (ms) used for stage-duration histograms. *)

val histogram : ?edges:float array -> ?labels:labels -> string -> histogram
(** Fixed upper-bound bucket edges (sorted internally); an implicit
    +inf overflow bucket is appended. Defaults to
    {!default_duration_edges_ms}. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit
(** All writes are no-ops while metrics are disabled. Each marks its
    metric written, so a {!snapshot} lists it; [add c 0] changes no
    value but publishes [c] at zero. *)

val counter_value : counter -> int
val gauge_value : gauge -> float option

type hist_view = {
  edges : float array;
  counts : int array;  (** one per edge plus a final +inf overflow bucket *)
  count : int;
  sum : float;
  min : float;  (** [infinity] when empty *)
  max : float;  (** [neg_infinity] when empty *)
}

val histogram_view : histogram -> hist_view
(** Shards merged at the moment of the call. Exact whenever the
    writers have quiesced (e.g. after [Pool.map_array] returned). *)

val hist_quantile : float -> hist_view -> float
(** [hist_quantile p v] with [p] in [0..100]: bucketed estimate — the
    upper edge of the bucket containing the rank, clamped to the
    observed [min, max] (overflow bucket reports [max]). [nan] when
    the view is empty. *)

type view =
  | Counter_view of int
  | Gauge_view of float option
  | Histogram_view of hist_view

val fold : (base:string -> labels:labels -> view -> 'a -> 'a) -> 'a -> 'a
(** Fold over every registered metric in full-name order with its
    merged value — the iteration behind {!Prom.render}. *)

val snapshot : unit -> Json.t
(** Versioned JSON of every metric written since the last {!reset} (or
    since start), keys sorted; labeled series appear under their full
    [base{k="v"}] key. A handle registered but not written since is
    absent, so a snapshot describes the run that wrote it. *)

val reset : unit -> unit
(** Zero every registered metric and mark it unwritten (handles stay
    valid). *)

val intern_count : unit -> int
(** Handle requests ({!counter}, {!gauge}, {!histogram})
    served since start. Each takes the registry's lock, so a hot path
    that makes none leaves this count unchanged. *)
