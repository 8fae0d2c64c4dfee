(** Reusable building-block behaviors.

    The paper's hierarchical DFGs are constructed from "commonly-used
    building blocks like dot-product, butterfly, etc.", with several
    user-declared functionally equivalent DFG variants per block (the
    knowledge moves of type A exploit). Each registration function
    installs a behavior and all its variants into a registry; they are
    idempotent per registry. *)

module Registry = Hsyn_dfg.Registry

val sum4 : Registry.t -> unit
(** [sum4]: 4 inputs → their sum. Variants: balanced tree
    ([sum4_tree], depth 2) and linear chain ([sum4_chain], maps onto a
    chained 3-adder). *)

val prod4 : Registry.t -> unit
(** [prod4]: 4 inputs → their product. Variants: balanced tree
    ([prod4_tree]) and serial chain ([prod4_chain]) — the paper's
    C1/C2 pair of functionally equivalent multiplier structures. *)

val butterfly : Registry.t -> unit
(** [butterfly]: (a,b) → (a+b, a−b). Single variant. *)

val rot : Registry.t -> unit
(** [rot]: (x,y,c,s) → (c·x + s·y, c·y − s·x), a plane rotation.
    Variants: 4-multiplier direct form ([rot_4m]) and 3-multiplier
    factored form ([rot_3m], fewer multipliers, longer adder path). *)

val biquad : Registry.t -> unit
(** [biquad]: (x, s1, s2, a1, a2, b0, b1, b2) → (y, t): one
    direct-form-II second-order filter section with its two state
    words and five coefficients passed in (states live at the caller,
    keeping the behavior stateless). Variants: [biquad_df2] and a
    re-associated [biquad_df2r]. *)

val lattice_stage : Registry.t -> unit
(** [lattice_stage]: (x, g, k) → (x − k·g, g + k·(x − k·g)): one
    normalized-lattice section. Single variant. *)

val paulin_body : Registry.t -> unit
(** [paulin_body]: (x, y, u, dx) → (x', y', u'): one iteration of the
    HAL differential-equation solver. Single variant. *)

val dual2 : Registry.t -> unit
(** [dual2]: (a,b,c,d) → (a·b + c·d, (a+b)·(c−d)): the two-output
    block of Figure 1's DFG2 reconstruction. Single variant. *)

val sop4 : Registry.t -> unit
(** [sop4]: (a,b,c,d) → ((a·b + c)·d): serial sum-of-products with the
    staggered input profile of Figure 1's DFG3. Single variant. *)
