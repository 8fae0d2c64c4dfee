(** Differential oracles.

    Each oracle checks one equivalence the codebase promises — two
    implementations, or two paths through one implementation, that
    must agree bit-for-bit on every program. Oracles take the sample
    program plus a private {!Hsyn_util.Rng.t} (for traces, seeds and
    deadline jitter) so every failure is reproducible from the run's
    seed alone.

    The registered oracles:
    - [roundtrip] — [Text.to_string] then [parse_string] reproduces
      the program, for LF and CRLF line endings.
    - [sched-diff] — [Sched.schedule] (the event-driven kernel) and
      the time-stepped reference {!Sched_ref.schedule} produce
      identical schedules, probed at a relaxed deadline, the exact
      makespan, and one cycle below it,
      on the initial design and on variants of it with shared
      registers, with operations merged onto shared units, and with
      both.
    - [engine-direct] — [Engine.evaluate] (fresh and cached) is
      bit-identical to direct [Cost.evaluate], and [Engine.best_of]
      agrees with a sequential fold, for both objectives, over a
      neighborhood of the initial design: unit swaps, register moves,
      calls moved to modules built from other variants, and calls of
      one behavior moved onto one module.
    - [checkpoint-resume] — a sweep interrupted after one context and
      resumed from its checkpoint converges to the uninterrupted
      result.
    - [jobs] — synthesis results are independent of the engine's
      worker count, and [Pool.map_array] stays deterministic and
      usable across task exceptions.
    - [embed] — [Embed.merge_modules] preserves every constituent
      behavior's function (checked through [Sim]) and the
      shared-resource module invariants. Module {e profiles} may
      legitimately change (unit upgrades), so they are deliberately
      not compared. *)

module Rng = Hsyn_util.Rng
module Text = Hsyn_dfg.Text

type t = {
  name : string;  (** stable identifier, usable with [hsyn fuzz --oracle] *)
  doc : string;  (** one-line description of the checked equivalence *)
  check : Rng.t -> Text.program -> (unit, string) result;
      (** [Error msg] describes the divergence; exceptions escaping
          [check] are treated as failures by the runner. *)
}

val all : t list
(** Every registered oracle, in stable order. *)

val find : string -> t option
val names : string list
