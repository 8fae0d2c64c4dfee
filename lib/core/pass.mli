(** Variable-depth iterative improvement (Figure 4, statements 3–16).

    Each pass applies a bounded sequence of tentative moves — the best
    available A/B move or the best sharing move per step, falling back
    to splitting when sharing has negative gain — allowing individual
    moves to worsen the design. At the end of the pass the prefix with
    the best cumulative gain is committed if it is positive; otherwise
    the pass (and the improvement loop) terminates. This is the
    mechanism that lets the optimizer escape local minima.

    The loop is {e anytime}: with a {!Budget.token} it checks the
    budget at every pass and move boundary and, when the budget fires
    (or a hard interruption aborts a candidate batch mid-move), it
    commits the best prefix found so far and returns — the result is
    always at least as good as the input design. *)

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
  moves_committed : int;
  moves_tried : int;
  interrupted : bool;  (** the run was cut short by its budget *)
  committed : committed_move list;
      (** the committed moves, oldest first — the raw material of the
          flight recorder's gain attribution *)
  rewrite_kinds : (string * int) list;
      (** committed family-E moves per rewrite kind (see
          {!Hsyn_dfg.Rewrite.kinds}), classified from the move
          description's kind prefix; sorted by kind, kinds with no
          commits omitted *)
  engine : Session.counters;
      (** engine work attributed to this improvement run (delta over
          the run, not process totals) *)
  sched : Hsyn_sched.Sched.stats;
      (** scheduler-kernel work attributed to this improvement run
          (delta over the run, not process totals) *)
}

val improve :
  ?token:Budget.token ->
  ?in_quota:bool ->
  ?on_pass:(int -> int -> float -> unit) ->
  ?on_commit:(committed_move -> unit) ->
  Moves.env ->
  max_moves:int ->
  max_passes:int ->
  Design.t ->
  Design.t * stats
(** Refine a design until no pass yields positive cumulative gain (or
    the pass budget runs out). The result is always feasible if the
    input is; if the input is infeasible the input is returned
    unchanged.

    [token]: poll this budget; [in_quota] (default false) additionally
    charges this run's moves and passes against the token's quotas and
    stops on quota exhaustion — enable it for top-level improvement
    only, so nested resynthesis and library construction stay
    responsive to deadline/cancel without perturbing the deterministic
    quota accounting. [on_pass pass moves_committed value] fires after
    each completed pass with the pass ordinal, the total moves
    committed so far in this run, and the current objective value.
    [on_commit] fires once per committed move, in commit order, at the
    end of the pass that committed it (tentative moves that are rolled
    back never reach it). *)
