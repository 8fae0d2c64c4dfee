(* The single hot-path switch of the observability layer.

   Every permanently-embedded probe (Trace.span, Metrics counters via
   their own flag) must cost one atomic load when everything is off.
   [armed] is that load: it is the disjunction of the two feature
   flags, recomputed on every set_* call (cold path), so probes never
   have to consult more than one atomic on the disabled path. *)

let trace_flag = Atomic.make false
let metrics_flag = Atomic.make false
let armed = Atomic.make false

(* Threshold of the structured logger (see Log.level): a record is
   emitted when its level's integer is >= this value, so a filtered
   [Log.debug] costs exactly this one atomic load. Kept here rather
   than in Log so the whole disabled-path budget of the observability
   layer lives in one module. Default 2 = warn: libraries are quiet,
   the serve CLI lowers it to info. *)
let log_level = Atomic.make 2

let refresh () = Atomic.set armed (Atomic.get trace_flag || Atomic.get metrics_flag)

let set_trace b =
  Atomic.set trace_flag b;
  refresh ()

let set_metrics b =
  Atomic.set metrics_flag b;
  refresh ()

let trace_enabled () = Atomic.get trace_flag
let metrics_enabled () = Atomic.get metrics_flag
