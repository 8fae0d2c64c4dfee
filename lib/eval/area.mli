(** Analytical RTL area model.

    Replaces the paper's SIS + OCTTOOLS layout flow (see DESIGN.md).
    Area = functional units + registers + multiplexing (one increment
    per steered source beyond the first on any functional-unit input
    port or register input) + interconnect (per distinct point-to-point
    net) + controller (per FSM state). Nested RTL modules contribute
    their shared datapath once, with steering counted over the union
    of all behaviors mapped to them — which is precisely what makes
    RTL embedding (merging two modules) cheaper than keeping both. *)

module Design = Hsyn_rtl.Design

type source = Reg of int | Const_wire of int | Direct of int * int
(** What a functional-unit input port is steered from: a register, a
    hardwired constant, or an unregistered unit output. *)

val source_of_value : Design.t -> Hsyn_dfg.Dfg.port -> source

val source_equal : source -> source -> bool
(** Equality of sources, without polymorphic compare. *)

val iter_feeds : Design.t -> (int -> int -> Hsyn_dfg.Dfg.port -> unit) -> unit
(** [iter_feeds d f] calls [f inst key port] for every external input
    feed of the design's instances, in one sweep over the bindings in
    ascending node order (the {e feed order}), each node's inputs in
    port order. Plain units and modules key a feed by the node's own
    input index; chain groups number their external inputs (sources
    not bound to the chain itself) consecutively in member order. The
    feeds of one key are an instance port: the basis for both
    mux-area counting and per-port activity streams in {!Power}. *)

val port_feeds : Design.t -> int -> (int * Hsyn_dfg.Dfg.port) list
(** The (port key, feeding value) pairs of one instance, in feed
    order ({!iter_feeds} restricted to it). *)

type breakdown = {
  units : float;
  registers : float;
  muxes : float;
  wires : float;
  controller : float;
}

val grand_total : breakdown -> float

type memo
(** Module areas of one technology context, kept across calls. A
    module's area (its datapath with steering over all of its parts,
    plus one controller state per busy cycle of each behavior's
    profile) depends only on the context and the module, so the memo
    computes it once per module. The key is the module's physical
    identity, not its name: two modules with one name keep separate
    areas. Bounded (256 modules, second-chance eviction) and
    domain-safe; results are bit-identical with and without it. *)

val memo : Design.ctx -> memo
(** An empty memo for one technology context, compared physically on
    every use. The evaluation engine creates one per engine and drops
    it with the engine. *)

val datapath :
  ?sched_cache:Hsyn_sched.Sched.Cache.t -> ?memo:memo -> Design.ctx -> Design.t -> breakdown
(** Area of the design's datapath (controller field 0; add it with
    {!total} once the schedule length is known). Recurses into module
    instances. Module controllers need module profiles, so a scheduler
    cache can be supplied for memoization across calls; without one a
    fresh cache scoped to this call is used. [?memo] reuses module
    areas across calls; without it every module's area is computed
    again.
    @raise Invalid_argument if [memo] was made for another context. *)

val total :
  ?sched_cache:Hsyn_sched.Sched.Cache.t ->
  ?memo:memo ->
  Design.ctx ->
  Design.t ->
  n_states:int ->
  breakdown
(** [datapath] plus the top-level controller ([n_states] is the
    schedule makespan). *)

val module_area : ?sched_cache:Hsyn_sched.Sched.Cache.t -> Design.ctx -> Design.rtl_module -> float
(** Area of one complex RTL module: shared units and registers,
    steering unioned over all behaviors, plus its internal controller
    (one state per cycle of each behavior's schedule). *)
