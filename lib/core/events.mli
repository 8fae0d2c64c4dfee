(** Structured progress events of a synthesis run.

    The anytime driver ({!Synthesize.synthesize}) emits one {!t} per
    milestone to a caller-supplied {!sink}. The CLI renders them as
    human-readable [--progress] lines ({!to_string}) or as one NDJSON
    object per line ({!to_json}); services can consume the typed
    values directly. Events are emitted from the domain driving the
    synthesis loop, in order, with timestamps relative to run start.

    A sink must not raise (an exception would abort the run it is
    observing); it may call {!Budget.cancel} on the run's token, which
    is the supported way to stop a run from a progress callback. *)

type payload =
  | Run_started of {
      dfg : string;
      objective : string;
      sampling_ns : float;
      contexts_planned : int;
      budget : Budget.t;
    }
  | Context_started of { index : int; total : int; vdd : float; clk_ns : float; deadline_cycles : int }
  | Pass_done of { context : int; pass : int; moves_committed : int; value : float }
      (** one top-level improvement pass finished in context [context];
          [value] is the current objective value of that context's
          design *)
  | Move_committed of {
      context : int;
      pass : int;
      family : string;  (** {!Moves.kind_name}, e.g. ["A:select"] *)
      description : string;
      gain : float;
      value : float;  (** objective value after this move *)
    }
      (** one move of the winning prefix of a top-level pass was
          committed; emitted in commit order at the end of that pass —
          the flight recorder's gain-attribution source *)
  | New_incumbent of {
      context : int;
      vdd : float;
      clk_ns : float;
      value : float;
      area : float;
      power : float;
    }  (** a context finished with the best feasible design so far *)
  | Context_finished of { index : int; feasible : bool }
  | Checkpoint_saved of { path : string; contexts_done : int }
  | Cache_loaded of { dir : string; entries : int; warning : string option }
      (** the persistent cost cache under [dir] was loaded into the
          run's session ([entries] added), or skipped with a warning
          (corrupt/version-mismatched file — the run continues cold) *)
  | Cache_saved of { dir : string; entries : int; warning : string option }
      (** the session cost cache was snapshotted to [dir] after the
          run, or the write failed with a warning *)
  | Budget_exhausted of { reason : string }
  | Run_finished of {
      completed : bool;
      contexts_done : int;
      contexts_planned : int;
      elapsed_s : float;
      result : Hsyn_util.Json.t option;
          (** the stable {!Synthesize.Result.to_json_value} rendering of
              the final result, when one exists *)
    }

type t = { at_s : float;  (** seconds since run start *) payload : payload }

type sink = t -> unit

val null : sink
(** Drops every event. *)

val kind_name : payload -> string
(** Stable machine name, e.g. ["context_started"]. *)

val to_string : t -> string
(** One human-readable progress line (no trailing newline). *)

val to_json_value : t -> Hsyn_util.Json.t
val to_json : t -> string
(** One NDJSON object: [{"at_s":…,"event":…,…}]. *)
