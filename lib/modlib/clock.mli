(** Clock-period selection.

    The synthesizer iterates over a pruned set of candidate clock
    periods (footnote 2 of the paper: the V{_dd} × clock grid is
    pruned before the inner iterative-improvement loops run). Useful
    clock periods are those that align with module delays — a period
    of d or d/k for some module delay d wastes no slack to
    quantization. *)

val spread : int -> float list -> float list
(** [spread n l] picks [n] entries evenly spaced across [l] (which
    must be sorted descending); returns [l] when it is short enough.
    Used to subsample candidate sets without biasing toward one end of
    the range. *)

val candidates : Library.t -> Voltage.t -> float list
(** Clock periods worth trying for the library at the given supply
    voltage: for each distinct unit delay d, the values d, d/2, d/3,
    rounded {e up} to a 0.5 ns grid (so delay d still fits in k cycles
    of the d/k candidate), clamped to [5, 80] ns, deduplicated, sorted
    descending, subsampled to 8 spread entries. *)

val cycles_of_ns : clk_ns:float -> float -> int
(** Whole cycles needed to cover a duration: ⌈t/clk⌉ with a small
    epsilon against floating-point jitter; durations ≤ 0 give 0. *)
