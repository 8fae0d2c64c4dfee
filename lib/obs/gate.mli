(** Enable switches of the observability layer.

    Two independent features — span tracing and the metrics registry
    (which also backs [hsyn synth --profile]) — share one [armed]
    atomic that is true when either is on. Probes ({!Trace.span}) read
    only [armed] on the disabled path, which is the whole overhead
    budget: one atomic load per probe when observability is off. *)

val armed : bool Atomic.t
(** [trace || metrics]; read-only for probes. *)

val log_level : int Atomic.t
(** Integer threshold of the structured logger ({!Log.level_int}
    ordering: debug 0 … error 3; default 2 = warn). A filtered log
    call costs exactly this one atomic load. Set via
    {!Log.set_level}. *)

val set_trace : bool -> unit
val set_metrics : bool -> unit

val trace_enabled : unit -> bool
val metrics_enabled : unit -> bool
