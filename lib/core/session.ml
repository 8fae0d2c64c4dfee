module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Shard_tbl = Hsyn_util.Shard_tbl
module Metrics = Hsyn_obs.Metrics

(* -- evaluation counters ------------------------------------------------ *)

type counters = {
  generated : int;
  evaluated : int;
  cache_hits : int;
  cache_misses : int;
  evictions : int;
  power_sims : int;
  power_skipped : int;
  batches : int;
  disk_hits : int;
}

let zero =
  {
    generated = 0;
    evaluated = 0;
    cache_hits = 0;
    cache_misses = 0;
    evictions = 0;
    power_sims = 0;
    power_skipped = 0;
    batches = 0;
    disk_hits = 0;
  }

let add a b =
  {
    generated = a.generated + b.generated;
    evaluated = a.evaluated + b.evaluated;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    evictions = a.evictions + b.evictions;
    power_sims = a.power_sims + b.power_sims;
    power_skipped = a.power_skipped + b.power_skipped;
    batches = a.batches + b.batches;
    disk_hits = a.disk_hits + b.disk_hits;
  }

let sub a b =
  {
    generated = a.generated - b.generated;
    evaluated = a.evaluated - b.evaluated;
    cache_hits = a.cache_hits - b.cache_hits;
    cache_misses = a.cache_misses - b.cache_misses;
    evictions = a.evictions - b.evictions;
    power_sims = a.power_sims - b.power_sims;
    power_skipped = a.power_skipped - b.power_skipped;
    batches = a.batches - b.batches;
    disk_hits = a.disk_hits - b.disk_hits;
  }

let rate num denom = if denom <= 0 then 0. else 100. *. Float.of_int num /. Float.of_int denom

let pp_counters ppf c =
  Format.fprintf ppf
    "gen %d  eval %d  cache %d/%d (%.1f%% hit)  disk %d  evict %d  sims %d  skipped %d (%.1f%%)"
    c.generated c.evaluated c.cache_hits
    (c.cache_hits + c.cache_misses)
    (rate c.cache_hits (c.cache_hits + c.cache_misses))
    c.disk_hits c.evictions c.power_sims c.power_skipped
    (rate c.power_skipped (c.power_sims + c.power_skipped))

let pp_totals ppf c = Format.fprintf ppf "%a  batches %d" pp_counters c c.batches

(* -- cost cache entries ------------------------------------------------- *)

(* An entry keeps the design it was computed from so a fingerprint
   collision is caught by structural comparison and falls through to
   recomputation — the cache can be stale-free but never wrong. The
   state is one atomic value rather than a mutable eval plus a "power
   done" flag: concurrent engines sharing a session may race to
   upgrade an entry from [Partial] to [Full], and a single pointer
   swap means a reader sees either the complete old state or the
   complete new one, never a mix. Both racers compute the same bits
   (evals are deterministic functions of context and design), so the
   race only ever duplicates work. *)

type entry_state = Partial of Cost.eval | Full of Cost.eval

(* [e_from_disk] marks entries repopulated from a persistent cache file
   (see [load_into]); engines count hits on them separately so warm
   starts are observable ([disk_hits]). It changes accounting only,
   never lookup semantics. *)
type entry = { e_design : Design.t; e_state : entry_state Atomic.t; e_from_disk : bool }

let entry_eval e = match Atomic.get e.e_state with Partial v | Full v -> v

module Fp_key = struct
  type t = int64

  let equal = Int64.equal
  let hash k = Int64.to_int (Int64.logxor k (Int64.shift_right_logical k 32)) land max_int
end

module Cost_tbl = Shard_tbl.Make (Fp_key)

type cost_cache = entry Cost_tbl.t

(* The full evaluation context an entry depends on. Two engines with
   equal keys may share entries; anything that could change an eval is
   part of the key. The objective deliberately is not: it selects
   which stage runs, not what either stage computes. Libraries are
   compared physically — distinct-but-equal libraries simply get
   separate caches, which is always safe. *)
type ctx_key = {
  k_lib : Hsyn_modlib.Library.t;
  k_vdd : Hsyn_modlib.Voltage.t;
  k_clk_ns : float;
  k_cs : Sched.constraints;
  k_sampling_ns : float;
  k_trace : int array list;
}

module Ctx_key = struct
  type t = ctx_key

  let equal a b =
    a.k_lib == b.k_lib && a.k_vdd = b.k_vdd && a.k_clk_ns = b.k_clk_ns
    && a.k_sampling_ns = b.k_sampling_ns && a.k_cs = b.k_cs
    && (a.k_trace == b.k_trace || a.k_trace = b.k_trace)

  let hash k = Hashtbl.hash (k.k_vdd, k.k_clk_ns, k.k_sampling_ns, k.k_cs.Sched.deadline)
end

module Ctx_tbl = Shard_tbl.Make (Ctx_key)

(* -- sessions ----------------------------------------------------------- *)

type t = {
  sc : Sched.Cache.t;
  contexts : cost_cache Ctx_tbl.t;
  acc_lock : Mutex.t;
  mutable acc_totals : counters;
  acc_families : (string, counters) Hashtbl.t;
}

let create () =
  {
    sc = Sched.Cache.create ();
    (* at most 64 contexts keep a live cost cache (FIFO beyond that) *)
    contexts = Ctx_tbl.create ~shards:4 ~capacity:64 ();
    acc_lock = Mutex.create ();
    acc_totals = zero;
    acc_families = Hashtbl.create 16;
  }

let sched_cache t = t.sc

let bump t ?family d =
  Mutex.lock t.acc_lock;
  t.acc_totals <- add t.acc_totals d;
  (match family with
  | None -> ()
  | Some f ->
      let cur = match Hashtbl.find_opt t.acc_families f with Some c -> c | None -> zero in
      Hashtbl.replace t.acc_families f (add cur d));
  Mutex.unlock t.acc_lock

let totals t =
  Mutex.lock t.acc_lock;
  let c = t.acc_totals in
  Mutex.unlock t.acc_lock;
  c

let family_totals t =
  Mutex.lock t.acc_lock;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.acc_families [] in
  Mutex.unlock t.acc_lock;
  List.sort (fun (a, _) (b, _) -> compare a b) l

let cost_cache t ~capacity ~ctx ~cs ~sampling_ns ~trace =
  let key =
    {
      k_lib = ctx.Design.lib;
      k_vdd = ctx.Design.vdd;
      k_clk_ns = ctx.Design.clk_ns;
      k_cs = cs;
      k_sampling_ns = sampling_ns;
      k_trace = trace;
    }
  in
  Ctx_tbl.find_or_build t.contexts key (fun _ ->
      Cost_tbl.create ~shards:8 ~capacity ())

let cost_find cache fp design =
  match Cost_tbl.find_opt cache fp with
  | Some e when Design.equal e.e_design design -> Some e
  | _ -> None

let cost_insert cache fp e = Cost_tbl.set cache fp e
let cost_size cache = Cost_tbl.length cache

(* -- persistence -------------------------------------------------------- *)

(* Snapshot every live context cache into one [Cache_file] payload per
   library (the on-disk partition key is the library's content digest;
   in memory libraries are compared physically, which cannot survive a
   process boundary). Entries are collected first and written after, so
   no shard lock is held across disk I/O. *)
let save t ~dir =
  let by_digest = Hashtbl.create 4 in
  Ctx_tbl.iter
    (fun key cache ->
      let entries = ref [] in
      Cost_tbl.iter
        (fun fp e ->
          let se_full, se_eval =
            match Atomic.get e.e_state with Full v -> (true, v) | Partial v -> (false, v)
          in
          entries :=
            { Cache_file.se_fp = fp; se_design = e.e_design; se_full; se_eval } :: !entries)
        cache;
      let sc =
        {
          Cache_file.sc_vdd = key.k_vdd;
          sc_clk_ns = key.k_clk_ns;
          sc_cs = key.k_cs;
          sc_sampling_ns = key.k_sampling_ns;
          sc_trace = key.k_trace;
          sc_entries = !entries;
        }
      in
      let dg = Cache_file.lib_digest key.k_lib in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_digest dg) in
      Hashtbl.replace by_digest dg (sc :: prev))
    t.contexts;
  Hashtbl.fold
    (fun dg ctxs acc ->
      match acc with
      | Error _ as e -> e
      | Ok n -> (
          match Cache_file.save ~dir ~lib_digest:dg ctxs with
          | Ok () ->
              Ok
                (n
                + List.fold_left
                    (fun a (c : Cache_file.saved_context) -> a + List.length c.sc_entries)
                    0 ctxs)
          | Error _ as e -> e))
    by_digest (Ok 0)

let load_into ?(capacity = 4096) t ~lib ~dir =
  match Cache_file.load ~dir ~lib_digest:(Cache_file.lib_digest lib) with
  | Error _ as e -> e
  | Ok None -> Ok 0
  | Ok (Some ctxs) ->
      let n = ref 0 in
      List.iter
        (fun (c : Cache_file.saved_context) ->
          let ctx = { Design.lib; vdd = c.sc_vdd; clk_ns = c.sc_clk_ns } in
          let cache =
            cost_cache t ~capacity ~ctx ~cs:c.sc_cs ~sampling_ns:c.sc_sampling_ns
              ~trace:c.sc_trace
          in
          List.iter
            (fun (e : Cache_file.saved_entry) ->
              (* Never clobber a live entry; disk only fills gaps. A
                 mis-fingerprinted entry (corruption, collision) is
                 harmless: [cost_find] verifies the stored design
                 structurally on every probe. *)
              match Cost_tbl.find_opt cache e.se_fp with
              | Some _ -> ()
              | None ->
                  incr n;
                  ignore
                    (cost_insert cache e.se_fp
                       {
                         e_design = e.se_design;
                         e_state =
                           Atomic.make
                             (if e.se_full then Full e.se_eval else Partial e.se_eval);
                         e_from_disk = true;
                       }))
            c.sc_entries)
        ctxs;
      Ok !n

(* -- statistics --------------------------------------------------------- *)

type stats = {
  cost_tbl : Shard_tbl.stats;
  contexts : int;
  prepared_tbl : Shard_tbl.stats;
  profile_tbl : Shard_tbl.stats;
}

let stats (t : t) =
  let cost = ref Shard_tbl.zero_stats in
  let n = ref 0 in
  Ctx_tbl.iter
    (fun _ cache ->
      incr n;
      cost := Shard_tbl.add_stats !cost (Cost_tbl.stats cache))
    t.contexts;
  let sc = Sched.Cache.stats t.sc in
  {
    cost_tbl = !cost;
    contexts = !n;
    prepared_tbl = sc.Sched.Cache.prepared_tbl;
    profile_tbl = sc.Sched.Cache.profile_tbl;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>[session] cost cache (%d ctx): %a@,[session] prepared: %a@,[session] profiles: %a@]"
    s.contexts Shard_tbl.pp_stats s.cost_tbl Shard_tbl.pp_stats s.prepared_tbl Shard_tbl.pp_stats
    s.profile_tbl

(* session.<table>.<field> gauges of one table, resolved once *)
type table_gauges = {
  g_hits : Metrics.gauge;
  g_misses : Metrics.gauge;
  g_evictions : Metrics.gauge;
  g_size : Metrics.gauge;
  g_shard_min : Metrics.gauge;
  g_shard_max : Metrics.gauge;
}

let table_gauges name =
  let g suffix = Metrics.gauge ("session." ^ name ^ "." ^ suffix) in
  {
    g_hits = g "hits";
    g_misses = g "misses";
    g_evictions = g "evictions";
    g_size = g "size";
    g_shard_min = g "shard_min";
    g_shard_max = g "shard_max";
  }

let cost_gauges = table_gauges "cost"
let prepared_gauges = table_gauges "prepared"
let profiles_gauges = table_gauges "profiles"
let contexts_gauge = Metrics.gauge "session.contexts"

let export_metrics t =
  if Metrics.is_enabled () then begin
    let s = stats t in
    let table g (st : Shard_tbl.stats) =
      let set gauge n = Metrics.set gauge (Float.of_int n) in
      set g.g_hits st.Shard_tbl.hits;
      set g.g_misses st.Shard_tbl.misses;
      set g.g_evictions st.Shard_tbl.evictions;
      set g.g_size st.Shard_tbl.size;
      (* Shard balance as two aggregates rather than one gauge per
         shard: a per-shard series scales the export with the shard
         count (16 per table x 3 tables) while all a reader ever did
         with it was eyeball the spread. *)
      let occ = st.Shard_tbl.occupancy in
      if Array.length occ > 0 then begin
        set g.g_shard_min (Array.fold_left min occ.(0) occ);
        set g.g_shard_max (Array.fold_left max occ.(0) occ)
      end
    in
    table cost_gauges s.cost_tbl;
    table prepared_gauges s.prepared_tbl;
    table profiles_gauges s.profile_tbl;
    Metrics.set contexts_gauge (Float.of_int s.contexts)
  end
