(** Variable-depth iterative improvement (Figure 4, statements 3–16).

    Each pass applies a bounded sequence of tentative moves — the best
    available A/B move or the best sharing move per step, falling back
    to splitting when sharing has negative gain — allowing individual
    moves to worsen the design. At the end of the pass the prefix with
    the best cumulative gain is committed if it is positive; otherwise
    the pass (and the improvement loop) terminates. This is the
    mechanism that lets the optimizer escape local minima.

    The loop is {e anytime}: when the env's engine was created with a
    {!Budget.token}, it polls the token's deadline and cancellation
    ({!Engine.interrupted}) at every pass and move boundary and, when
    one fires (or aborts a candidate batch mid-move), it commits the
    best prefix found so far and returns — the result is always at
    least as good as the input design. Its effort is bounded by
    [max_moves] and [max_passes] alone; the budget's context quota is
    the driver's business. *)

module Design = Hsyn_rtl.Design

type committed_move = {
  cm_pass : int;  (** 1-based pass ordinal within this improvement run *)
  cm_family : string;  (** {!Moves.kind_name}, e.g. ["A:select"] *)
  cm_description : string;
  cm_gain : float;
  cm_value : float;  (** objective value after this move *)
}

type stats = {
  passes : int;
  moves_tried : int;
      (** steps whose candidate batches ran to the end; a step aborted
          mid-batch by an interruption is not counted *)
  interrupted : bool;  (** the run was cut short by a deadline or cancellation *)
  committed : committed_move list;
      (** the committed moves, oldest first — the raw material of the
          flight recorder's gain attribution *)
  engine : Session.counters;
      (** engine work attributed to this improvement run (delta over
          the run, not process totals) *)
}

val moves_committed : stats -> int
(** The number of {!stats.committed} moves. *)

val rewrite_kinds : stats -> (string * int) list
(** Committed family-E moves per rewrite kind (see
    {!Hsyn_dfg.Rewrite.kinds}), classified from the move description's
    kind prefix; sorted by kind, kinds with no commits omitted. *)

val improve :
  ?on_pass:(int -> int -> float -> unit) ->
  ?on_commit:(committed_move -> unit) ->
  Moves.env ->
  max_moves:int ->
  max_passes:int ->
  Design.t ->
  Design.t * stats
(** Refine a design until no pass yields positive cumulative gain (or
    [max_passes] passes have run). The result is always feasible if the
    input is; if the input is infeasible the input is returned
    unchanged.

    The engine's token is polled by the same rule at the top level, in
    nested resynthesis and in library construction.

    [on_pass pass moves_committed value] fires after each completed
    pass with the pass ordinal, the total moves committed so far in
    this run, and the current objective value.
    [on_commit] fires once per committed move, in commit order, at the
    end of the pass that committed it (tentative moves that are rolled
    back never reach it). *)
