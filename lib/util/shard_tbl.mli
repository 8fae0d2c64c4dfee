(** Sharded, domain-safe hash table with bounded eviction.

    The table is split into [shards] independent segments, each guarded
    by its own mutex, so concurrent readers and writers only contend
    when their keys land on the same shard. Every shard keeps a FIFO of
    resident keys for eviction ([Fifo] evicts strictly oldest-first;
    [Second_chance] gives recently-hit entries one extra round, the
    classic clock approximation of LRU) and the invariant that the FIFO
    holds exactly the resident keys, each once — asserted after every
    mutation, so queue/table drift is impossible rather than merely
    unlikely.

    [find_or_build] is the primitive that memoization callers want:
    each key is built {e exactly once} per residency, even under
    concurrent lookups. The builder runs {e outside} the shard lock
    (builders may recurse into the same table for other keys), with an
    in-flight marker making concurrent requesters of the same key wait
    for the winner instead of duplicating work.

    Hit/miss/eviction counters are maintained per shard and aggregated
    by {!stats}; they are what the session layer exports as [session.*]
    metrics. *)

type eviction = Fifo | Second_chance

type stats = {
  hits : int;
  misses : int;  (** lookups that had to build or returned nothing *)
  evictions : int;
  insertions : int;
  size : int;  (** resident entries at the time of the call *)
  capacity : int;  (** total bound; 0 means unbounded *)
  occupancy : int array;  (** resident entries per shard *)
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

  val create : ?shards:int -> ?eviction:eviction -> capacity:int -> unit -> 'a t
  (** [shards] is rounded up to a power of two (default 8; clamped to
      at least 1, and down so it never exceeds a positive [capacity]).
      [capacity] is a strict bound on the {e total} resident entries
      across all shards ([<= 0] means unbounded); each shard gets an
      equal floored slice, so a capacity that is not a multiple of the
      shard count leaves a few slots unused rather than ever
      overshooting. *)

  val find_opt : 'a t -> K.t -> 'a option
  (** Counts a hit or a miss; a hit marks the entry recently-used for
      [Second_chance] eviction. *)

  val find_or_build : 'a t -> K.t -> (K.t -> 'a) -> 'a
  (** Memoized lookup: returns the resident value, or runs the builder
      and inserts its result. The builder runs without the shard lock
      held; concurrent callers for the same key block until the single
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
  (** Visit every resident entry. Each shard is locked while its
      entries are visited, so [f] must not touch this same table. *)

  val stats : 'a t -> stats

  val validate : 'a t -> unit
  (** Re-checks the FIFO/table agreement invariant on every shard;
      raises [Assert_failure] on drift. For tests. *)
end
