(* Span tracer with Chrome/Perfetto trace-event export.

   A span is timed through a probe: a handle made once per call site,
   at module initialization, that carries the site's category, name and
   metrics handles. Disabled — the default — a span costs exactly one
   atomic load ({!Gate.armed}). Armed, it reads a monotonic clock in
   integer nanoseconds on entry and exit and feeds up to two consumers:

     - the probe's metrics (read by --profile, --metrics and hsyn
       report): the [stage.<name>] duration histogram (calls and
       inclusive time) and the exact exclusive (self) total
       [stage.<name>.self_ns];
     - a trace event in this domain's ring buffer.

   Self time is kept online: each domain has a stack of open spans, and
   a closing span adds its inclusive time to its parent's children
   total, so self = inclusive - direct children's inclusive, exactly,
   in integer nanoseconds. An armed span builds no string, looks up no
   registry entry, takes no lock and allocates a constant few words
   (the histogram's boxed sample and sum, and the event when tracing).

   Ring buffers are per-domain (pool workers record their own spans
   under their own tid) and bounded: when full the oldest events are
   overwritten and counted as dropped. Collection merges and sorts the
   rings; it is exact when writers have quiesced, which is how the CLI
   uses it (export after synthesis returns). *)

module Json = Hsyn_util.Json

type category = Pass | Move | Schedule | Power | Embed | Checkpoint

let category_name = function
  | Pass -> "pass"
  | Move -> "move"
  | Schedule -> "schedule"
  | Power -> "power"
  | Embed -> "embed"
  | Checkpoint -> "checkpoint"

type phase = Complete | Instant

type event = {
  ev_name : string;
  ev_cat : category;
  ev_phase : phase;
  ev_ts_us : float;  (* since process epoch *)
  ev_dur_us : float;  (* Complete only *)
  ev_tid : int;  (* recording domain *)
  ev_scope : int;  (* request id of the ambient Scope; 0 = unscoped *)
}

let set_enabled = Gate.set_trace
let is_enabled = Gate.trace_enabled

(* clock_gettime(CLOCK_MONOTONIC) in integer nanoseconds *)
external now_ns : unit -> (int[@untagged]) = "hsyn_clock_ns_byte" "hsyn_clock_ns" [@@noalloc]

let epoch_ns = now_ns ()
let us_since_epoch t_ns = Float.of_int (t_ns - epoch_ns) *. 1e-3

(* -- per-domain rings -------------------------------------------------- *)

let default_capacity = 65_536
let capacity = Atomic.make default_capacity
let set_capacity n = Atomic.set capacity (max 16 n)

type ring = { buf : event array; cap : int; mutable n : int (* total ever written *) }

let dummy =
  {
    ev_name = "";
    ev_cat = Pass;
    ev_phase = Instant;
    ev_ts_us = 0.;
    ev_dur_us = 0.;
    ev_tid = 0;
    ev_scope = 0;
  }

let current_scope () = match Scope.current_id () with Some id -> id | None -> 0

let rings : (int, ring) Hashtbl.t = Hashtbl.create 8
let rings_lock = Mutex.create ()

let ring_for dom =
  match Hashtbl.find rings dom with
  | r -> r
  | exception Not_found ->
      Mutex.lock rings_lock;
      let r =
        match Hashtbl.find_opt rings dom with
        | Some r -> r
        | None ->
            let r = { buf = Array.make (Atomic.get capacity) dummy; cap = Atomic.get capacity; n = 0 } in
            Hashtbl.add rings dom r;
            r
      in
      Mutex.unlock rings_lock;
      r

(* Only the owning domain writes its ring, so no lock on the push path.
   The unlocked [Hashtbl.find] fast path is safe because rings are
   only ever added (never removed) outside [reset], and reset must not
   race recording. *)
let push ev =
  let r = ring_for ev.ev_tid in
  r.buf.(r.n mod r.cap) <- ev;
  r.n <- r.n + 1

let instant cat name =
  if Gate.trace_enabled () then
    push
      {
        ev_name = name;
        ev_cat = cat;
        ev_phase = Instant;
        ev_ts_us = us_since_epoch (now_ns ());
        ev_dur_us = 0.;
        ev_tid = (Domain.self () :> int);
        ev_scope = current_scope ();
      }

(* -- probes ------------------------------------------------------------ *)

type probe = {
  p_name : string;
  p_cat : category;
  p_hist : Metrics.histogram;  (* stage.<name>: inclusive ms per call *)
  p_self : Metrics.counter;  (* stage.<name>.self_ns: exclusive *)
}

let probe cat name =
  let stage = "stage." ^ name in
  {
    p_name = name;
    p_cat = cat;
    p_hist = Metrics.histogram stage;
    p_self = Metrics.counter (stage ^ ".self_ns");
  }

(* The open spans of one domain: [children.(i)] is the inclusive time of
   the closed direct children of the i-th open span, outermost first. *)
type stack = { mutable depth : int; mutable children : int array }

let stack_key = Domain.DLS.new_key (fun () -> { depth = 0; children = Array.make 16 0 })

let grow st =
  let a = Array.make (2 * Array.length st.children) 0 in
  Array.blit st.children 0 a 0 (Array.length st.children);
  st.children <- a

let close p st d t0 =
  let dt = now_ns () - t0 in
  let self = dt - st.children.(d) in
  st.depth <- d;
  if d > 0 then st.children.(d - 1) <- st.children.(d - 1) + dt;
  if Gate.metrics_enabled () then begin
    Metrics.observe p.p_hist (Float.of_int dt *. 1e-6);
    Metrics.add p.p_self self
  end;
  if Gate.trace_enabled () then
    push
      {
        ev_name = p.p_name;
        ev_cat = p.p_cat;
        ev_phase = Complete;
        ev_ts_us = us_since_epoch t0;
        ev_dur_us = Float.of_int dt *. 1e-3;
        ev_tid = (Domain.self () :> int);
        ev_scope = current_scope ();
      }

(* The span is closed on the way out whether [f] returns or raises, so
   the stack stays balanced; the exception escapes with its backtrace. *)
let span_armed p f =
  let st = Domain.DLS.get stack_key in
  let d = st.depth in
  if d = Array.length st.children then grow st;
  st.children.(d) <- 0;
  st.depth <- d + 1;
  let t0 = now_ns () in
  match f () with
  | v ->
      close p st d t0;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close p st d t0;
      Printexc.raise_with_backtrace e bt

let span p f = if not (Atomic.get Gate.armed) then f () else span_armed p f

(* -- collection and export --------------------------------------------- *)

let events () =
  Mutex.lock rings_lock;
  let rs = Hashtbl.fold (fun _ r acc -> r :: acc) rings [] in
  Mutex.unlock rings_lock;
  let evs =
    List.concat_map
      (fun r ->
        let kept = min r.n r.cap in
        List.init kept (fun i -> r.buf.((r.n - kept + i) mod r.cap)))
      rs
  in
  List.sort
    (fun a b ->
      match compare a.ev_ts_us b.ev_ts_us with 0 -> compare a.ev_tid b.ev_tid | c -> c)
    evs

let scoped_events id = List.filter (fun ev -> ev.ev_scope = id) (events ())

(* Indented per-domain span tree, for the serve daemon's slow-request
   log. Events arrive sorted by timestamp; within a domain, nesting is
   recovered from interval containment (a stack of open span end
   times), which is exact because spans on one domain are properly
   nested by construction. *)
let render_tree evs =
  let buf = Buffer.create 512 in
  let tids = List.sort_uniq compare (List.map (fun ev -> ev.ev_tid) evs) in
  List.iter
    (fun tid ->
      Buffer.add_string buf (Printf.sprintf "domain %d:\n" tid);
      let mine = List.filter (fun ev -> ev.ev_tid = tid) evs in
      let mine =
        List.sort
          (fun a b ->
            match compare a.ev_ts_us b.ev_ts_us with
            | 0 -> compare b.ev_dur_us a.ev_dur_us  (* outer span first *)
            | c -> c)
          mine
      in
      let stack = ref [] in
      List.iter
        (fun ev ->
          let rec pop () =
            match !stack with
            | end_us :: tl when ev.ev_ts_us >= end_us ->
                stack := tl;
                pop ()
            | _ -> ()
          in
          pop ();
          let indent = String.make (2 * (1 + List.length !stack)) ' ' in
          (match ev.ev_phase with
          | Complete ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s [%s] %.3f ms\n" indent ev.ev_name
                   (category_name ev.ev_cat) (ev.ev_dur_us /. 1000.));
              stack := (ev.ev_ts_us +. ev.ev_dur_us) :: !stack
          | Instant ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s [%s] (instant)\n" indent ev.ev_name
                   (category_name ev.ev_cat))))
        mine)
    tids;
  Buffer.contents buf

let dropped () =
  Mutex.lock rings_lock;
  let d = Hashtbl.fold (fun _ r acc -> acc + max 0 (r.n - r.cap)) rings 0 in
  Mutex.unlock rings_lock;
  d

let event_json pid ev =
  let base =
    [
      ("name", Json.String ev.ev_name);
      ("cat", Json.String (category_name ev.ev_cat));
      ("ts", Json.Float ev.ev_ts_us);
      ("pid", Json.Int pid);
      ("tid", Json.Int ev.ev_tid);
    ]
  in
  let base =
    if ev.ev_scope = 0 then base
    else base @ [ ("args", Json.Obj [ ("request_id", Json.Int ev.ev_scope) ]) ]
  in
  match ev.ev_phase with
  | Complete -> Json.Obj (("ph", Json.String "X") :: base @ [ ("dur", Json.Float ev.ev_dur_us) ])
  | Instant -> Json.Obj (("ph", Json.String "i") :: ("s", Json.String "t") :: base)

let to_json () =
  let pid = Unix.getpid () in
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.List (List.map (event_json pid) (events ())));
      ("otherData", Json.Obj [ ("dropped_events", Json.Int (dropped ())) ]);
    ]

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (to_json ()));
      output_char oc '\n')

let reset () =
  Mutex.lock rings_lock;
  Hashtbl.reset rings;
  Mutex.unlock rings_lock
