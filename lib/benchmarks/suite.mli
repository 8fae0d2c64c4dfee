(** The benchmark suite of the paper's Section 5.

    Each benchmark bundles a hierarchical DFG with the registry of
    behaviors it calls. The HYPER-derived filters (avenhaus_cascade,
    dct, iir, lat), Paulin's differential-equation solver, and the
    paper's own Figure 1 example (test1) are reconstructed from the
    literature as described in DESIGN.md; flattened versions for the
    baseline synthesizer are obtained with {!Hsyn_dfg.Flatten}. *)

module Registry = Hsyn_dfg.Registry
module Dfg = Hsyn_dfg.Dfg

type t = {
  name : string;
  description : string;
  registry : Registry.t;
  dfg : Dfg.t;
}

val paulin : unit -> t
(** Flat HAL differential-equation solver (state in top-level delays;
    no hierarchy — included for parity checks). *)

val hier_paulin : unit -> t
(** Paulin unrolled twice; each iteration is a hierarchical node. *)

val dct : unit -> t
(** 8-point DCT as a butterfly/rotator hierarchy. *)

val iir : unit -> t
(** Cascade-form IIR filter: four biquad sections. *)

val lat : unit -> t
(** Normalized lattice filter: five lattice stages. *)

val avenhaus_cascade : unit -> t
(** Avenhaus cascade filter: five biquad sections with feed-forward
    taps summed at the output. *)

val test1 : unit -> t
(** The hierarchical DFG of Figure 1(a), reconstructed. *)

val all : unit -> t list
(** Every benchmark, in the paper's Table 3 row order. *)

val by_name : string -> t option

val resolve : string -> (Registry.t * Dfg.t) option
(** The problem a benchmark name denotes, in the shape the request
    API's [resolve_bench] takes ([Hsyn_core.Wire.to_request]): [hsyn
    synth] and the [hsyn serve] daemon both resolve names with it, so
    a dumped request document served later is the very same
    problem. *)
