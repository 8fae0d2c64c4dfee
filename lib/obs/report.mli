(** Flight recorder: aggregates a run's NDJSON artifact (the
    [--events-json] stream plus its trailing [metrics_snapshot] line)
    into a per-move-family gain-attribution report, cross-checked
    against the run's own [run_finished] result. Behind [hsyn report]. *)

module Json = Hsyn_util.Json

(** Line-atomic NDJSON writer: each {!Sink.line} renders into a single
    [output_string] followed by a flush, so an interrupted run leaves
    at most the final line incomplete. A sink is domain-safe — writes
    from concurrent domains are serialized by an internal mutex, so
    multiplexed writers (the serve daemon's per-client event streams,
    multi-domain benchmarks) never interleave partial lines. *)
module Sink : sig
  type t

  val of_channel : out_channel -> t
  (** Wrap (and never close) an existing channel, e.g. stdout. *)

  val create : string -> t
  (** Open [path] for writing; {!close} closes it. *)

  val line : t -> string -> unit
  (** Write [s] plus a newline in one buffered write, then flush.
      Safe to call from multiple domains on the same sink. *)

  val json : t -> Json.t -> unit
  (** [line] of the compact rendering. *)

  val close : t -> unit
end

type family = {
  fam : string;  (** move-family name, e.g. ["A:select"] *)
  proposed : int;  (** [engine.generated.<fam>] counter *)
  evaluated : int;  (** [engine.evaluated.<fam>] counter *)
  committed : int;  (** [move_committed] events across all contexts *)
  reverted : int;  (** [moves.reverted.<fam>] counter *)
  gain : float;  (** cumulative committed gain *)
  cache_hits : int;
  cache_misses : int;
  power_sims : int;
  power_skipped : int;
}

type stage = {
  stage : string;  (** probe name, e.g. ["schedule"] *)
  calls : int;  (** [stage.<name>] histogram count *)
  total_ms : float;  (** inclusive: the histogram's sum *)
  self_ms : float;
      (** exclusive: [stage.<name>.self_ns], the stage's time minus that
          of the spans opened directly inside it *)
}

type winner = {
  w_context : int option;
      (** index of the context matching the result's (vdd, clk, deadline) *)
  w_committed : int;  (** committed-move events in that context *)
  w_value : float option;  (** objective value after its last committed move *)
  w_result_committed : int option;  (** the run's own [stats.moves_committed] *)
  w_result_area : float option;
  w_result_power : float option;
}

type t = {
  dfg : string option;
  objective : string option;
  completed : bool option;
  elapsed_s : float option;
  contexts : int;
  passes : int;
  families : family list;  (** sorted by family name *)
  total_committed : int;
  total_gain : float;
  winner : winner option;
  stages : stage list;
      (** the self-time table of the metrics snapshot
          ({!stages_of_snapshot}) *)
  cache_hit_rate : float option;
  has_metrics : bool;
  skipped_lines : int;  (** unparseable (e.g. truncated) lines ignored *)
  consistent : bool option;
      (** whether the recorder agrees with the run's own result: the
          winning context resolved and its committed-move count equals
          [stats.moves_committed]. [None] when the stream has no
          [run_finished] line, so there is nothing to check against
          (the wrong file, or a run that did not finish). *)
}

val schema_version : int

val stages_of_snapshot : Json.t -> stage list
(** One row per [stage.<name>] histogram of a {!Metrics.snapshot}, in
    descending self time. *)

val render_stages : ?wall_s:float -> stage list -> string
(** The self-time table: calls, self ms, share and inclusive ms per
    stage. Given the run's wall time it ends with an "(outside any
    span)" row, the wall time minus every stage's self time, so the
    self column and that row sum to the wall time. Self times add over
    domains: with one job (every span on the driving domain) the
    outside row is the time spent in no span; with pool workers the
    rows can exceed the wall time. [hsyn synth --profile] and
    [hsyn report] print this table. *)

val render_stats : Json.t -> string
(** The [hsyn synth --stats] block of a {!Metrics.snapshot}: the
    engine's total row ([engine.<field>], then [engine.batches]), one
    row per move family ([engine.<field>.<family>], sorted by family
    name), one [[sched]] line ([sched.*]) and two [[session]] lines,
    one per session table ([session.<table>.*] gauges, and
    [session.contexts]); a table's [capacity] gauge of 0 prints no
    bound. A name the snapshot lacks reads 0, as a snapshot omits what
    the run never wrote. *)

val of_lines : string list -> (t, string) result
(** Fold NDJSON lines (blank lines ignored, unparseable lines counted
    in [skipped_lines]) into a report. [Error] only when no line
    parses. *)

val load : string -> (t, string) result
(** {!of_lines} of a file's lines. Every error message names the path
    once. *)

val to_json : t -> Json.t
(** Versioned ([kind = "hsyn.report"]) machine-readable form;
    deterministic for a fixed input stream. [consistent] is [null]
    when nothing was checked. *)

val render : t -> string
(** Human-readable report: attribution table, self-time table
    ({!render_stages} with the run's [elapsed_s]), winner summary,
    consistency verdict ([ok], [MISMATCH] or [not checked]). *)

