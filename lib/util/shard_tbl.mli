(** Domain-safe hash table with bounded, second-chance eviction.

    One hash table under one mutex. A FIFO of resident keys drives
    eviction: a key hit since it was filed gets one more round before
    it goes (second chance, the classic clock approximation of LRU).
    The FIFO holds exactly the resident keys, each once — asserted
    after every mutation, so queue/table drift is impossible rather
    than merely unlikely.

    [find_or_build] is the primitive that memoization callers want:
    each key is built {e exactly once} per residency, even under
    concurrent lookups. The builder runs {e outside} the lock (builders
    may recurse into the same table for other keys), with an in-flight
    marker making concurrent requesters of the same key wait for the
    winner instead of duplicating work.

    Hit/miss/eviction counters are read by {!stats}; they are what the
    session layer exports as [session.*] metrics. The name is older
    than the single lock (the table was once split into shards); it
    stays because the benchmark harness ([bench/perf/workload.ml])
    names the module, and that harness changes only with the
    benchmark itself. *)

type stats = {
  hits : int;
  misses : int;  (** lookups that had to build or returned nothing *)
  evictions : int;
  insertions : int;
  size : int;  (** resident entries at the time of the call *)
  capacity : int;  (** the bound; 0 means unbounded *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module Make (K : KEY) : sig
  type 'a t

  val create : capacity:int -> unit -> 'a t
  (** [capacity] is the most entries the table holds ([<= 0] means
      unbounded); it holds that many whatever the keys hash to. *)

  val find_opt : 'a t -> K.t -> 'a option
  (** Counts a hit or a miss; a hit marks the entry recently-used, so
      the next eviction passes it over once. *)

  val find_or_build : 'a t -> K.t -> (K.t -> 'a) -> 'a
  (** Memoized lookup: returns the resident value, or runs the builder
      and inserts its result. The builder runs without the lock held;
      concurrent callers for the same key block until the single
      builder finishes (waiters count as hits). If the builder raises,
      the exception propagates to the builder's caller and one waiter
      is promoted to retry the build. *)

  val set : 'a t -> K.t -> 'a -> int
  (** Insert or replace, evicting as needed to respect the capacity;
      returns the number of entries evicted (0 or 1 — replacement of a
      resident key never evicts). *)

  val mem : 'a t -> K.t -> bool
  val length : 'a t -> int

  val iter : (K.t -> 'a -> unit) -> 'a t -> unit
  (** Visit every resident entry. The table is locked while its
      entries are visited, so [f] must not touch this same table. *)

  val stats : 'a t -> stats

  val validate : 'a t -> unit
  (** Re-checks the FIFO/table agreement invariant; raises
      [Assert_failure] on drift. For tests. *)
end
