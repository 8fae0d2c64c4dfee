(** Differential fuzzing runner.

    Draws {!Fuzz.config.runs} random programs from {!Gen}, runs every
    selected {!Oracle} on each, shrinks failing samples with {!Shrink}
    and writes them to the corpus directory as commented [.hsyn] repro
    files. Fully deterministic: seed [N] always produces the same
    programs and the same per-oracle RNG streams. Each oracle's stream
    is derived from the run's generator and the oracle's name
    ({!Hsyn_util.Rng.derive}), so it depends neither on which oracles
    are selected nor on which are registered: a failure found by a
    full run can be re-examined with [--oracle] alone, and adding or
    deleting an oracle leaves every other oracle's stream as it was.

    Pass/fail counts are also published through {!Hsyn_obs.Metrics}
    (when metrics are enabled) as [fuzz.runs], [fuzz.pass.<oracle>]
    and [fuzz.fail.<oracle>]. *)

type config = {
  seed : int;
  runs : int;
  oracles : string list;  (** names to run; [[]] means all *)
  corpus : string option;  (** directory for shrunk repro files *)
  params : Gen.params;
  shrink_checks : int;  (** oracle re-run budget per shrink *)
}

val default_config : config
(** seed 0, 100 runs, all oracles, no corpus, {!Gen.default_params}. *)

val validate_oracles : string list -> (unit, string) result
(** Check the names against the oracle registry; the error message
    lists the known names. *)

type failure = {
  oracle : string;
  run : int;  (** 0-based run index within the campaign *)
  message : string;  (** the oracle's divergence description *)
  repro_path : string option;  (** written repro file, if a corpus was given *)
  shrink : Shrink.stats;
}

type oracle_summary = { o_name : string; passed : int; failed : int }
type report = { total_runs : int; summaries : oracle_summary list; failures : failure list }

val run : ?progress:(int -> unit) -> config -> report
(** Execute the campaign. [progress] is called with the run index
    before each run (for UI ticking). Never raises on oracle failures
    — including oracle exceptions, which are converted to failures. *)
