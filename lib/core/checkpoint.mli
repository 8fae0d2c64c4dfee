(** Synthesis checkpoints: resumable snapshots of an interrupted sweep.

    The anytime driver walks a deterministic list of (V{_dd}, clock)
    contexts. A checkpoint records how far that walk got — the cursor
    of fully finished contexts, the work counters, and the incumbent
    (best feasible design so far, with everything needed to rebuild a
    full {!Synthesize.result}). Resuming seeds the sweep with the
    incumbent and skips the first [cursor] contexts; because each
    context is synthesized independently from the run seed, a resumed
    run converges to bit-identical results with an uninterrupted one.

    Snapshots are written with [Marshal] behind a magic string and an
    explicit schema version, and sealed with a digest of their bytes
    ({!Hsyn_util.Sealed}); {!load} rejects foreign files, stale
    versions and damaged bytes instead of crashing. Writes go through a temporary file
    and [rename], so a checkpoint on disk is never torn. *)

module Design = Hsyn_rtl.Design

type incumbent = {
  design : Design.t;
  ctx : Design.ctx;
  eval : Cost.eval;
      (** its objective value ranks incumbents — lower wins, ties keep
          the earlier context *)
  deadline_cycles : int;
  stats : Pass.stats;
  clib : Clib.t;
}

type t = {
  dfg_name : string;
  objective : Cost.objective;
  sampling_ns : float;
  flattened : bool;
  contexts_planned : int;
  cursor : int;  (** contexts fully finished (plan-order prefix) *)
  passes_run : int;
      (** {!Pass.stats.passes} summed over every context run so far;
          a resumed run adds its own contexts' to it *)
  moves_tried : int;  (** the same sum of {!Pass.stats.moves_tried} *)
  incumbent : incumbent option;
}

val schema_version : int

val compatible : t -> dfg_name:string -> objective:Cost.objective -> sampling_ns:float -> flattened:bool -> (unit, string) result
(** A checkpoint may only resume the run shape it was taken from. *)

val save : string -> t -> unit
(** Atomic write (temp file + rename).
    @raise Sys_error on I/O failure. *)

val load : string -> (t, string) result
(** Rejects missing files, bad magic, version mismatches, truncated
    data and payload digest mismatches with a descriptive error. *)
