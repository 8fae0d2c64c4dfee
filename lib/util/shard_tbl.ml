type eviction = Fifo | Second_chance

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  size : int;
  capacity : int;
  occupancy : int array;
}

let zero_stats =
  { hits = 0; misses = 0; evictions = 0; insertions = 0; size = 0; capacity = 0; occupancy = [||] }

let add_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    insertions = a.insertions + b.insertions;
    size = a.size + b.size;
    capacity = a.capacity + b.capacity;
    occupancy = Array.append a.occupancy b.occupancy;
  }

module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module Make (K : KEY) = struct
  module H = Hashtbl.Make (K)

  type 'a slot = { value : 'a; mutable referenced : bool }

  type 'a shard = {
    lock : Mutex.t;
    done_building : Condition.t;
    tbl : 'a slot H.t;
    fifo : K.t Queue.t;  (* exactly the resident keys, insertion order *)
    building : unit H.t;  (* keys whose builder is running off-lock *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable insertions : int;
  }

  type 'a t = {
    shards : 'a shard array;
    mask : int;
    shard_capacity : int;  (* max_int when unbounded *)
    capacity : int;
    eviction : eviction;
  }

  let rec pow2_ge n k = if k >= n then k else pow2_ge n (k * 2)

  let create ?(shards = 8) ?(eviction = Fifo) ~capacity () =
    let n = pow2_ge (max 1 shards) 1 in
    (* a bounded table never gets more shards than capacity, and each
       shard's slice is floored, so the total resident count can never
       exceed [capacity] no matter how keys hash *)
    let n =
      if capacity <= 0 then n
      else
        let rec down k = if k <= capacity || k = 1 then k else down (k / 2) in
        down n
    in
    let shard_capacity = if capacity <= 0 then max_int else max 1 (capacity / n) in
    {
      shards =
        Array.init n (fun _ ->
            {
              lock = Mutex.create ();
              done_building = Condition.create ();
              tbl = H.create 16;
              fifo = Queue.create ();
              building = H.create 4;
              hits = 0;
              misses = 0;
              evictions = 0;
              insertions = 0;
            });
      mask = n - 1;
      shard_capacity;
      capacity = max 0 capacity;
      eviction;
    }

  let shard t k = t.shards.((K.hash k land max_int) land t.mask)

  (* The load-bearing invariant: the FIFO and the table agree. Checked
     after every mutation — Queue.length is O(1), so this is free. *)
  let check_locked s = assert (Queue.length s.fifo = H.length s.tbl)

  let evict_one_locked t s =
    (* Pop until one resident entry is removed. [Second_chance] re-files
       recently-hit keys, but at most one full lap: the budget guarantees
       termination even if every slot is marked. *)
    let rec go budget =
      match Queue.take_opt s.fifo with
      | None -> ()
      | Some k -> (
          match H.find_opt s.tbl k with
          | None ->
              (* cannot happen: fifo holds exactly the resident keys *)
              assert false
          | Some slot ->
              if t.eviction = Second_chance && slot.referenced && budget > 0 then begin
                slot.referenced <- false;
                Queue.add k s.fifo;
                go (budget - 1)
              end
              else begin
                H.remove s.tbl k;
                s.evictions <- s.evictions + 1
              end)
    in
    go (Queue.length s.fifo)

  (* Insert or replace under the shard lock; returns entries evicted. *)
  let set_locked t s k v =
    let evicted0 = s.evictions in
    if H.mem s.tbl k then H.replace s.tbl k { value = v; referenced = false }
    else begin
      while H.length s.tbl >= t.shard_capacity do
        evict_one_locked t s
      done;
      H.add s.tbl k { value = v; referenced = false };
      Queue.add k s.fifo;
      s.insertions <- s.insertions + 1
    end;
    check_locked s;
    s.evictions - evicted0

  let set t k v =
    let s = shard t k in
    Mutex.lock s.lock;
    let evicted = set_locked t s k v in
    Mutex.unlock s.lock;
    evicted

  let find_opt t k =
    let s = shard t k in
    Mutex.lock s.lock;
    let r =
      match H.find_opt s.tbl k with
      | Some slot ->
          slot.referenced <- true;
          s.hits <- s.hits + 1;
          Some slot.value
      | None ->
          s.misses <- s.misses + 1;
          None
    in
    Mutex.unlock s.lock;
    r

  let mem t k =
    let s = shard t k in
    Mutex.lock s.lock;
    let r = H.mem s.tbl k in
    Mutex.unlock s.lock;
    r

  let find_or_build t k build =
    let s = shard t k in
    Mutex.lock s.lock;
    let rec loop () =
      match H.find_opt s.tbl k with
      | Some slot ->
          slot.referenced <- true;
          s.hits <- s.hits + 1;
          let v = slot.value in
          Mutex.unlock s.lock;
          v
      | None when H.mem s.building k ->
          (* someone else is building this key; wait for them rather
             than duplicating the work *)
          Condition.wait s.done_building s.lock;
          loop ()
      | None ->
          s.misses <- s.misses + 1;
          H.add s.building k ();
          Mutex.unlock s.lock;
          let v =
            try build k
            with e ->
              Mutex.lock s.lock;
              H.remove s.building k;
              Condition.broadcast s.done_building;
              Mutex.unlock s.lock;
              raise e
          in
          Mutex.lock s.lock;
          H.remove s.building k;
          ignore (set_locked t s k v : int);
          Condition.broadcast s.done_building;
          Mutex.unlock s.lock;
          v
    in
    loop ()

  let iter f t =
    Array.iter
      (fun s ->
        Mutex.lock s.lock;
        H.iter (fun k slot -> f k slot.value) s.tbl;
        Mutex.unlock s.lock)
      t.shards

  let length t =
    Array.fold_left
      (fun acc s ->
        Mutex.lock s.lock;
        let n = H.length s.tbl in
        Mutex.unlock s.lock;
        acc + n)
      0 t.shards

  let stats t =
    let occupancy = Array.make (Array.length t.shards) 0 in
    let acc = ref { zero_stats with capacity = t.capacity } in
    Array.iteri
      (fun i s ->
        Mutex.lock s.lock;
        occupancy.(i) <- H.length s.tbl;
        acc :=
          {
            !acc with
            hits = !acc.hits + s.hits;
            misses = !acc.misses + s.misses;
            evictions = !acc.evictions + s.evictions;
            insertions = !acc.insertions + s.insertions;
            size = !acc.size + H.length s.tbl;
          };
        Mutex.unlock s.lock)
      t.shards;
    { !acc with occupancy }

  let validate t =
    Array.iter
      (fun s ->
        Mutex.lock s.lock;
        check_locked s;
        (* every FIFO key resident, each exactly once *)
        let seen = H.create 16 in
        Queue.iter
          (fun k ->
            assert (H.mem s.tbl k);
            assert (not (H.mem seen k));
            H.add seen k ())
          s.fifo;
        Mutex.unlock s.lock)
      t.shards
end
