(* Unified metrics registry: named counters, gauges and fixed-bucket
   histograms, optionally carrying a low-cardinality label dimension.

   Domain-safety follows the worker-pool model: writers bump a
   per-domain shard (found or CAS-appended in a lock-free list), so the
   hot path after the enabled check is one atomic RMW with no
   contention between the driving domain and pool workers. Readers
   merge shards on demand; a merge performed after the writing
   map_array has joined (the only way the synthesis code reads) sees
   exact totals.

   Handles are registered by full name in a process-wide registry. A
   labeled handle's full name is [base{k="v",...}] with keys sorted —
   the key the snapshot exports, so labeled series merge into the
   existing schema without a new section. Label sets are interned and
   capped per base name (max_label_sets): once a base has that many
   distinct label sets, further new label sets collapse into the
   reserved [base{overflow="true"}] series, so a hostile or buggy
   labeler (e.g. unbounded tenant names) degrades accuracy, never
   memory.

   The versioned JSON {!snapshot} is the single machine-readable export
   (written by [hsyn synth --metrics], teed into the flight-recorder
   NDJSON, consumed by [hsyn report]); {!Prom} renders the same
   registry as Prometheus text exposition for the serve daemon. *)

module Json = Hsyn_util.Json

let set_enabled = Gate.set_metrics
let is_enabled = Gate.metrics_enabled

let schema_version = 2

(* -- names and labels -------------------------------------------------- *)

type labels = (string * string) list

let max_label_sets = 64

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label_value v ^ "\"") labels)

let render_name base labels =
  match labels with [] -> base | ls -> base ^ "{" ^ render_labels ls ^ "}"

type id = { base : string; labels : labels; full : string }

let make_id base labels =
  let labels = List.stable_sort (fun (a, _) (b, _) -> compare a b) labels in
  { base; labels; full = render_name base labels }

let overflow_labels = [ ("overflow", "true") ]
let overflow_id base = make_id base overflow_labels

(* -- lock-free per-domain shard lists ---------------------------------- *)

type 'a shards = (int * 'a) list Atomic.t

(* the write path allocates nothing: no option, no closure; a domain
   with no shard yet is the rare [Not_found] *)
let rec find_shard dom = function
  | [] -> raise_notrace Not_found
  | (d, s) :: tl -> if d = dom then s else find_shard dom tl

(* [mk arg] makes a domain's first shard; passing [arg] apart keeps the
   write path free of a closure *)
let shard_for (type a b) (shards : a shards) (mk : b -> a) (arg : b) : a =
  let dom = (Domain.self () :> int) in
  match find_shard dom (Atomic.get shards) with
  | s -> s
  | exception Not_found ->
      let rec add () =
        let cur = Atomic.get shards in
        match List.assoc_opt dom cur with
        | Some s -> s
        | None ->
            let s = mk arg in
            if Atomic.compare_and_set shards cur ((dom, s) :: cur) then s else add ()
      in
      add ()

let fold_shards shards f init =
  List.fold_left (fun acc (_, s) -> f acc s) init (Atomic.get shards)

(* atomic float accumulate via CAS, for histogram sums *)
let rec fadd (a : float Atomic.t) x =
  let v = Atomic.get a in
  if not (Atomic.compare_and_set a v (v +. x)) then fadd a x

let rec fmin (a : float Atomic.t) x =
  let v = Atomic.get a in
  if x < v && not (Atomic.compare_and_set a v x) then fmin a x

let rec fmax (a : float Atomic.t) x =
  let v = Atomic.get a in
  if x > v && not (Atomic.compare_and_set a v x) then fmax a x

(* -- metric kinds ------------------------------------------------------ *)

type counter = { c_id : id; c_shards : int Atomic.t shards }
type gauge = { g_id : id; g_cell : float option Atomic.t }

type hshard = {
  h_buckets : int Atomic.t array;  (* one per upper edge, plus +inf overflow *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_min : float Atomic.t;
  h_max : float Atomic.t;
}

type histogram = { h_id : id; h_edges : float array; h_shards : hshard shards }

type metric = C of counter | G of gauge | H of histogram

let metric_id = function C c -> c.c_id | G g -> g.g_id | H h -> h.h_id
let metric_name m = (metric_id m).full

(* A metric is written since the last [reset] (or since start) when a
   domain holds a shard of it, or a gauge holds a value: [reset] drops
   both and the first write makes them. Only written metrics enter a
   snapshot. *)
let is_written m =
  let has = function [] -> false | _ :: _ -> true in
  match m with
  | C c -> has (Atomic.get c.c_shards)
  | G g -> Option.is_some (Atomic.get g.g_cell)
  | H h -> has (Atomic.get h.h_shards)

(* -- registry ---------------------------------------------------------- *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* distinct label sets registered per base name, for the cardinality
   cap; the reserved overflow series is not counted *)
let label_sets : (string, int) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()

(* handle requests served, each under [registry_lock] *)
let interns = Atomic.make 0
let intern_count () = Atomic.get interns

(* under registry_lock *)
let admit_id id =
  if id.labels = [] || Hashtbl.mem registry id.full || id.labels = overflow_labels then id
  else
    let n = Option.value ~default:0 (Hashtbl.find_opt label_sets id.base) in
    if n >= max_label_sets then overflow_id id.base
    else begin
      Hashtbl.replace label_sets id.base (n + 1);
      id
    end

let intern id mk classify =
  Atomic.incr interns;
  Mutex.lock registry_lock;
  let id = admit_id id in
  let r =
    match Hashtbl.find_opt registry id.full with
    | Some m -> (
        match classify m with
        | Some v -> v
        | None ->
            Mutex.unlock registry_lock;
            invalid_arg
              (Printf.sprintf "Metrics: %S already registered with another kind" id.full))
    | None ->
        let m, v = mk id in
        Hashtbl.add registry id.full m;
        v
  in
  Mutex.unlock registry_lock;
  r

let counter ?(labels = []) name =
  intern (make_id name labels)
    (fun id ->
      let c = { c_id = id; c_shards = Atomic.make [] } in
      (C c, c))
    (function C c -> Some c | _ -> None)

let gauge ?(labels = []) name =
  intern (make_id name labels)
    (fun id ->
      let g = { g_id = id; g_cell = Atomic.make None } in
      (G g, g))
    (function G g -> Some g | _ -> None)

let default_duration_edges_ms =
  [| 0.01; 0.05; 0.1; 0.5; 1.; 5.; 10.; 50.; 100.; 500.; 1000.; 5000. |]

let histogram ?(edges = default_duration_edges_ms) ?(labels = []) name =
  let edges = Array.copy edges in
  Array.sort compare edges;
  intern (make_id name labels)
    (fun id ->
      let h = { h_id = id; h_edges = edges; h_shards = Atomic.make [] } in
      (H h, h))
    (function
      | H h ->
          if h.h_edges <> edges && edges <> default_duration_edges_ms then
            invalid_arg
              (Printf.sprintf "Metrics: histogram %S re-registered with different edges" name)
          else Some h
      | _ -> None)

(* -- writes (enabled-checked by the caller for batch sites, or here) --- *)

let new_int_cell () = Atomic.make 0

(* [add c 0] still makes the domain's shard: the counter is written *)
let add c n =
  if Gate.metrics_enabled () then begin
    let s = shard_for c.c_shards new_int_cell () in
    if n <> 0 then ignore (Atomic.fetch_and_add s n : int)
  end

let incr c = add c 1

let set g x = if Gate.metrics_enabled () then Atomic.set g.g_cell (Some x)

let fresh_hshard edges =
  {
    h_buckets = Array.init (Array.length edges + 1) (fun _ -> Atomic.make 0);
    h_count = Atomic.make 0;
    h_sum = Atomic.make 0.;
    h_min = Atomic.make infinity;
    h_max = Atomic.make neg_infinity;
  }

let rec bucket_index (edges : float array) (v : float) i =
  if i >= Array.length edges || v <= edges.(i) then i else bucket_index edges v (i + 1)

let observe h v =
  if Gate.metrics_enabled () then begin
    let s = shard_for h.h_shards fresh_hshard h.h_edges in
    ignore (Atomic.fetch_and_add s.h_buckets.(bucket_index h.h_edges v 0) 1 : int);
    ignore (Atomic.fetch_and_add s.h_count 1 : int);
    fadd s.h_sum v;
    fmin s.h_min v;
    fmax s.h_max v
  end

(* -- merged reads ------------------------------------------------------ *)

let counter_value c = fold_shards c.c_shards (fun acc s -> acc + Atomic.get s) 0
let gauge_value g = Atomic.get g.g_cell

type hist_view = {
  edges : float array;
  counts : int array;  (* length = Array.length edges + 1; last is overflow *)
  count : int;
  sum : float;
  min : float;
  max : float;
}

let histogram_view h =
  let n = Array.length h.h_edges + 1 in
  let counts = Array.make n 0 in
  let count = ref 0 and sum = ref 0. and mn = ref infinity and mx = ref neg_infinity in
  fold_shards h.h_shards
    (fun () s ->
      Array.iteri (fun i b -> counts.(i) <- counts.(i) + Atomic.get b) s.h_buckets;
      count := !count + Atomic.get s.h_count;
      sum := !sum +. Atomic.get s.h_sum;
      mn := Float.min !mn (Atomic.get s.h_min);
      mx := Float.max !mx (Atomic.get s.h_max))
    ();
  { edges = Array.copy h.h_edges; counts; count = !count; sum = !sum; min = !mn; max = !mx }

(* Bucketed quantile estimate: the upper edge of the first bucket whose
   cumulative count reaches the target rank, clamped to the observed
   [min, max] so tiny samples don't report a whole empty bucket; the
   +inf overflow bucket reports the observed max. Good enough for a
   dashboard (resolution = bucket width), exact at the extremes. *)
let hist_quantile p (v : hist_view) =
  if v.count = 0 then Float.nan
  else begin
    let p = Float.max 0. (Float.min 100. p) in
    let target = Float.max 1. (Float.of_int v.count *. p /. 100.) in
    let n = Array.length v.counts in
    let rec go i cum =
      if i >= n - 1 then v.max
      else
        let cum = cum + v.counts.(i) in
        if Float.of_int cum >= target then v.edges.(i) else go (i + 1) cum
    in
    Float.max v.min (Float.min v.max (go 0 0))
  end

(* -- iteration (snapshot + Prometheus rendering) ----------------------- *)

(* the registered metrics [keep] admits, in no order *)
let collect keep =
  Mutex.lock registry_lock;
  let ms = Hashtbl.fold (fun _ m acc -> if keep m then m :: acc else acc) registry [] in
  Mutex.unlock registry_lock;
  ms

let all _ = true

let by_name ms = List.sort (fun a b -> String.compare (metric_name a) (metric_name b)) ms

type view =
  | Counter_view of int
  | Gauge_view of float option
  | Histogram_view of hist_view

let fold f init =
  List.fold_left
    (fun acc m ->
      let id = metric_id m in
      let view =
        match m with
        | C c -> Counter_view (counter_value c)
        | G g -> Gauge_view (gauge_value g)
        | H h -> Histogram_view (histogram_view h)
      in
      f ~base:id.base ~labels:id.labels view acc)
    init (by_name (collect all))

(* -- snapshot ---------------------------------------------------------- *)

let snapshot () =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun m ->
      match m with
      | C c -> counters := (c.c_id.full, Json.Int (counter_value c)) :: !counters
      | G g ->
          gauges :=
            (g.g_id.full, match gauge_value g with Some v -> Json.Float v | None -> Json.Null)
            :: !gauges
      | H h ->
          let v = histogram_view h in
          hists :=
            ( h.h_id.full,
              Json.Obj
                [
                  ("edges", Json.List (Array.to_list (Array.map (fun e -> Json.Float e) v.edges)));
                  ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) v.counts)));
                  ("count", Json.Int v.count);
                  ("sum", Json.Float v.sum);
                  ("min", if v.count = 0 then Json.Null else Json.Float v.min);
                  ("max", if v.count = 0 then Json.Null else Json.Float v.max);
                ] )
            :: !hists)
    (by_name (collect is_written));
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("kind", Json.String "hsyn.metrics");
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !hists));
    ]

let reset () =
  List.iter
    (function
      | C c -> Atomic.set c.c_shards []
      | G g -> Atomic.set g.g_cell None
      | H h -> Atomic.set h.h_shards [])
    (collect all)
