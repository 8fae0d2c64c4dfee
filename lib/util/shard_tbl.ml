type stats = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  size : int;
  capacity : int;
}

let zero_stats = { hits = 0; misses = 0; evictions = 0; insertions = 0; size = 0; capacity = 0 }

let add_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    insertions = a.insertions + b.insertions;
    size = a.size + b.size;
    capacity = a.capacity + b.capacity;
  }

module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module Make (K : KEY) = struct
  module H = Hashtbl.Make (K)

  type 'a slot = { value : 'a; mutable referenced : bool }

  type 'a t = {
    lock : Mutex.t;
    done_building : Condition.t;
    tbl : 'a slot H.t;
    fifo : K.t Queue.t;  (* exactly the resident keys, insertion order *)
    building : unit H.t;  (* keys whose builder is running off-lock *)
    capacity : int;  (* 0 when unbounded *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable insertions : int;
  }

  let create ~capacity () =
    {
      lock = Mutex.create ();
      done_building = Condition.create ();
      tbl = H.create 16;
      fifo = Queue.create ();
      building = H.create 4;
      capacity = max 0 capacity;
      hits = 0;
      misses = 0;
      evictions = 0;
      insertions = 0;
    }

  (* The load-bearing invariant: the FIFO and the table agree. Checked
     after every mutation — Queue.length is O(1), so this is free. *)
  let check_locked t = assert (Queue.length t.fifo = H.length t.tbl)

  let evict_one_locked t =
    (* Pop until one resident entry is removed, re-filing recently-hit
       keys once. At most one full lap: the budget guarantees
       termination even if every slot is marked. *)
    let rec go budget =
      match Queue.take_opt t.fifo with
      | None -> ()
      | Some k -> (
          match H.find_opt t.tbl k with
          | None ->
              (* cannot happen: fifo holds exactly the resident keys *)
              assert false
          | Some slot ->
              if slot.referenced && budget > 0 then begin
                slot.referenced <- false;
                Queue.add k t.fifo;
                go (budget - 1)
              end
              else begin
                H.remove t.tbl k;
                t.evictions <- t.evictions + 1
              end)
    in
    go (Queue.length t.fifo)

  (* Insert or replace under the lock; returns entries evicted. *)
  let set_locked t k v =
    let evicted0 = t.evictions in
    if H.mem t.tbl k then H.replace t.tbl k { value = v; referenced = false }
    else begin
      while t.capacity > 0 && H.length t.tbl >= t.capacity do
        evict_one_locked t
      done;
      H.add t.tbl k { value = v; referenced = false };
      Queue.add k t.fifo;
      t.insertions <- t.insertions + 1
    end;
    check_locked t;
    t.evictions - evicted0

  let set t k v =
    Mutex.lock t.lock;
    let evicted = set_locked t k v in
    Mutex.unlock t.lock;
    evicted

  let find_opt t k =
    Mutex.lock t.lock;
    let r =
      match H.find_opt t.tbl k with
      | Some slot ->
          slot.referenced <- true;
          t.hits <- t.hits + 1;
          Some slot.value
      | None ->
          t.misses <- t.misses + 1;
          None
    in
    Mutex.unlock t.lock;
    r

  let mem t k =
    Mutex.lock t.lock;
    let r = H.mem t.tbl k in
    Mutex.unlock t.lock;
    r

  let find_or_build t k build =
    Mutex.lock t.lock;
    let rec loop () =
      match H.find_opt t.tbl k with
      | Some slot ->
          slot.referenced <- true;
          t.hits <- t.hits + 1;
          let v = slot.value in
          Mutex.unlock t.lock;
          v
      | None when H.mem t.building k ->
          (* someone else is building this key; wait for them rather
             than duplicating the work *)
          Condition.wait t.done_building t.lock;
          loop ()
      | None ->
          t.misses <- t.misses + 1;
          H.add t.building k ();
          Mutex.unlock t.lock;
          let v =
            try build k
            with e ->
              Mutex.lock t.lock;
              H.remove t.building k;
              Condition.broadcast t.done_building;
              Mutex.unlock t.lock;
              raise e
          in
          Mutex.lock t.lock;
          H.remove t.building k;
          ignore (set_locked t k v : int);
          Condition.broadcast t.done_building;
          Mutex.unlock t.lock;
          v
    in
    loop ()

  (* [f] and the assertions in [validate] may raise; the lock must not
     stay held *)
  let iter f t = Mutex.protect t.lock (fun () -> H.iter (fun k slot -> f k slot.value) t.tbl)

  let length t =
    Mutex.lock t.lock;
    let n = H.length t.tbl in
    Mutex.unlock t.lock;
    n

  let stats t =
    Mutex.lock t.lock;
    let s =
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        insertions = t.insertions;
        size = H.length t.tbl;
        capacity = t.capacity;
      }
    in
    Mutex.unlock t.lock;
    s

  let validate t =
    Mutex.protect t.lock (fun () ->
        check_locked t;
        (* every FIFO key resident, each exactly once *)
        let seen = H.create 16 in
        Queue.iter
          (fun k ->
            assert (H.mem t.tbl k);
            assert (not (H.mem seen k));
            H.add seen k ())
          t.fifo)
end
