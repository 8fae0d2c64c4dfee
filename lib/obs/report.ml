(* Flight recorder: the consumer side of the observability layer.

   A synthesis run writes one NDJSON artifact (the [--events-json]
   stream: typed progress events, per-committed-move attribution lines,
   and a final [metrics_snapshot] line). [of_lines] folds that stream
   into a per-move-family gain-attribution report — moves proposed /
   evaluated / committed / reverted, cumulative committed gain, cache
   hit rates, the self-time table — rendered as text ([render])
   and versioned JSON ([to_json]), and cross-checked against the
   run's own [run_finished] result so drift between the recorder and
   the synthesizer is caught rather than printed. *)

module Json = Hsyn_util.Json
module Table = Hsyn_util.Table

(* -- NDJSON sink ------------------------------------------------------- *)

(* Line-atomic writer for the events stream: each line is rendered into
   one buffer, written with a single [output_string] and flushed, so a
   cancelled (SIGINT) run leaves an artifact whose every line but at
   worst the very last is complete and parseable — and the last only if
   the process is killed mid-write. *)
module Sink = struct
  type t = { oc : out_channel; owns : bool; buf : Buffer.t; lock : Mutex.t }

  let of_channel oc = { oc; owns = false; buf = Buffer.create 512; lock = Mutex.create () }

  let create path =
    { oc = open_out path; owns = true; buf = Buffer.create 512; lock = Mutex.create () }

  (* The single [output_string] keeps a line contiguous within one
     writer; the mutex keeps lines contiguous across writers when a
     multi-domain producer (e.g. the serve daemon's per-client sinks
     sharing stderr) funnels into one sink. [Fun.protect] because the
     write itself may raise (EPIPE on a vanished reader) and the sink
     must stay usable/lockable for the next writer. *)
  let line t s =
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        Buffer.clear t.buf;
        Buffer.add_string t.buf s;
        Buffer.add_char t.buf '\n';
        output_string t.oc (Buffer.contents t.buf);
        flush t.oc)

  let json t v = line t (Json.to_string v)

  let close t =
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () -> if t.owns then close_out t.oc else flush t.oc)
end

(* -- aggregation ------------------------------------------------------- *)

type family = {
  fam : string;
  proposed : int;
  evaluated : int;
  committed : int;
  reverted : int;
  gain : float;
  cache_hits : int;
  cache_misses : int;
  power_sims : int;
  power_skipped : int;
}

type stage = { stage : string; calls : int; total_ms : float; self_ms : float }

type winner = {
  w_context : int option;  (* resolved via the result's (vdd, clk, deadline) *)
  w_committed : int;  (* move_committed events in that context *)
  w_value : float option;  (* objective value after the last committed move *)
  w_result_committed : int option;  (* run_finished.result.stats.moves_committed *)
  w_result_area : float option;
  w_result_power : float option;
}

type t = {
  dfg : string option;
  objective : string option;
  completed : bool option;
  elapsed_s : float option;
  contexts : int;
  passes : int;
  families : family list;  (* sorted by family name *)
  total_committed : int;
  total_gain : float;
  winner : winner option;
  stages : stage list;  (* descending self time *)
  cache_hit_rate : float option;
  has_metrics : bool;
  skipped_lines : int;
  consistent : bool option;
}

let schema_version = 2

let geti k j = Option.bind (Json.member k j) Json.to_int_opt
let getf k j = Option.bind (Json.member k j) Json.to_float_opt
let gets k j = Option.bind (Json.member k j) Json.to_string_opt
let getb k j = match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None

(* counters of the metrics snapshot whose name extends [prefix ^ "."],
   as (suffix, value) *)
let suffixed counters prefix =
  let p = prefix ^ "." in
  let pl = String.length p in
  List.filter_map
    (fun (name, v) ->
      if String.length name > pl && String.sub name 0 pl = p then
        Option.map (fun i -> (String.sub name pl (String.length name - pl), i)) (Json.to_int_opt v)
      else None)
    counters

(* -- the self-time table -------------------------------------------------- *)

(* One row per [stage.<name>] histogram: its count and sum, and the
   probe's [stage.<name>.self_ns] counter. *)
let stages_of_snapshot snap =
  let section k =
    match Json.member k snap with Some (Json.Obj fields) -> fields | _ -> []
  in
  let counters = section "counters" in
  let ns name =
    Option.map
      (fun n -> Float.of_int n /. 1e6)
      (Option.bind (List.assoc_opt name counters) Json.to_int_opt)
  in
  List.filter_map
    (fun (name, h) ->
      match (String.starts_with ~prefix:"stage." name, geti "count" h) with
      | true, Some calls ->
          Some
            {
              stage = String.sub name 6 (String.length name - 6);
              calls;
              total_ms = Option.value ~default:0. (getf "sum" h);
              self_ms = Option.value ~default:0. (ns (name ^ ".self_ns"));
            }
      | _ -> None)
    (section "histograms")
  |> List.stable_sort (fun a b -> compare b.self_ms a.self_ms)

let outside_row = "(outside any span)"

let render_stages ?wall_s stages =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let self_sum = List.fold_left (fun acc s -> acc +. s.self_ms) 0. stages in
  let wall_ms = Option.map (fun s -> s *. 1000.) wall_s in
  let base = match wall_ms with Some w -> w | None -> self_sum in
  let share ms = if base > 0. then 100. *. ms /. base else 0. in
  (match wall_ms with
  | Some w -> pr "self time per stage (wall %.1f ms):\n" w
  | None -> pr "self time per stage:\n");
  pr "  %-24s %9s %11s %7s %11s\n" "stage" "calls" "self ms" "self %" "total ms";
  List.iter
    (fun s ->
      pr "  %-24s %9d %11.1f %6.1f%% %11.1f\n" s.stage s.calls s.self_ms (share s.self_ms)
        s.total_ms)
    stages;
  Option.iter
    (fun w ->
      let outside = w -. self_sum in
      pr "  %-24s %9s %11.1f %6.1f%%\n" outside_row "-" outside (share outside))
    wall_ms;
  Buffer.contents buf

(* -- the --stats block ------------------------------------------------------ *)

let rate num denom = if denom <= 0 then 0. else 100. *. Float.of_int num /. Float.of_int denom

let render_stats snap =
  let section k =
    match Json.member k snap with Some (Json.Obj fields) -> fields | _ -> []
  in
  let counters = section "counters" and gauges = section "gauges" in
  let read conv fields name =
    Option.value ~default:0 (Option.bind (List.assoc_opt name fields) conv)
  in
  let c = read Json.to_int_opt counters in
  let g = read (fun v -> Option.map Float.to_int (Json.to_float_opt v)) gauges in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* one engine row: every field but [batches], which no family owns *)
  let row suffix =
    let f field = c ("engine." ^ field ^ suffix) in
    let hits = f "cache_hits" and skipped = f "power_skipped" in
    let lookups = hits + f "cache_misses" and sims = f "power_sims" in
    Printf.sprintf
      "gen %d  eval %d  cache %d/%d (%.1f%% hit)  disk %d  evict %d  sims %d  skipped %d (%.1f%%)"
      (f "generated") (f "evaluated") hits lookups (rate hits lookups) (f "disk_hits")
      (f "evictions") sims skipped (rate skipped (sims + skipped))
  in
  pr "  total        %s  batches %d\n" (row "") (c "engine.batches");
  (* every family the engine counted generated a candidate *)
  List.iter
    (fun (fam, _) -> pr "  %-12s %s\n" fam (row ("." ^ fam)))
    (List.sort compare (suffixed counters "engine.generated"));
  pr "[sched] schedules: %d, events popped: %d\n" (c "sched.schedules") (c "sched.events_popped");
  let table label name =
    let f field = g ("session." ^ name ^ "." ^ field) in
    let hits = f "hits" and capacity = f "capacity" in
    let lookups = hits + f "misses" in
    pr "[session] %s: %d/%d (%.1f%% hit)  evict %d  size %d%s\n" label hits lookups
      (rate hits lookups) (f "evictions") (f "size")
      (if capacity > 0 then Printf.sprintf "/%d" capacity else "")
  in
  table (Printf.sprintf "cost cache (%d ctx)" (g "session.contexts")) "cost";
  table "profiles" "profiles";
  Buffer.contents buf

let of_lines lines =
  let skipped = ref 0 in
  let parsed =
    List.filter_map
      (fun l ->
        let l = String.trim l in
        if l = "" then None
        else
          match Json.of_string l with
          | Ok v -> Some v
          | Error _ ->
              incr skipped;
              None)
      lines
  in
  if parsed = [] then Error "no parseable NDJSON lines"
  else begin
    let dfg = ref None
    and objective = ref None
    and completed = ref None
    and elapsed = ref None in
    let contexts = ref 0 and passes = ref 0 in
    let moves = ref [] (* (context, family, gain, value), oldest first at the end *) in
    let ctx_started = ref [] (* (index, vdd, clk_ns, deadline) *) in
    let result = ref None in
    let metrics = ref None in
    List.iter
      (fun j ->
        match gets "event" j with
        | Some "run_started" ->
            dfg := gets "dfg" j;
            objective := gets "objective" j
        | Some "context_started" -> (
            incr contexts;
            match (geti "index" j, getf "vdd" j, getf "clk_ns" j, geti "deadline_cycles" j) with
            | Some i, Some v, Some c, Some d -> ctx_started := (i, v, c, d) :: !ctx_started
            | _ -> ())
        | Some "pass_done" -> incr passes
        | Some "move_committed" -> (
            match (geti "context" j, gets "family" j, getf "gain" j, getf "value" j) with
            | Some c, Some f, Some g, Some v -> moves := (c, f, g, v) :: !moves
            | _ -> incr skipped)
        | Some "run_finished" ->
            completed := getb "completed" j;
            elapsed := getf "elapsed_s" j;
            (match Json.member "result" j with
            | Some (Json.Obj _ as r) -> result := Some r
            | _ -> ())
        | Some "metrics_snapshot" -> metrics := Json.member "snapshot" j
        | _ -> ())
      parsed;
    let moves = List.rev !moves in
    let counters =
      match Option.bind !metrics (Json.member "counters") with
      | Some (Json.Obj fields) -> fields
      | _ -> []
    in
    let cval name = Option.bind (List.assoc_opt name counters) Json.to_int_opt in
    (* family universe: move events plus the metric suffixes the run
       wrote *)
    let fam_tbl = Hashtbl.create 8 in
    let touch f = if not (Hashtbl.mem fam_tbl f) then Hashtbl.add fam_tbl f () in
    List.iter (fun (_, f, _, _) -> touch f) moves;
    List.iter
      (fun pfx -> List.iter (fun (f, _) -> touch f) (suffixed counters pfx))
      [ "engine.generated"; "engine.evaluated"; "moves.committed"; "moves.reverted" ];
    let fam_names = Hashtbl.fold (fun f () acc -> f :: acc) fam_tbl [] |> List.sort compare in
    let families =
      List.map
        (fun f ->
          let committed = List.length (List.filter (fun (_, f', _, _) -> f' = f) moves) in
          let gain =
            List.fold_left (fun acc (_, f', g, _) -> if f' = f then acc +. g else acc) 0. moves
          in
          let c name = Option.value ~default:0 (cval (name ^ "." ^ f)) in
          {
            fam = f;
            proposed = c "engine.generated";
            evaluated = c "engine.evaluated";
            committed;
            reverted = c "moves.reverted";
            gain;
            cache_hits = c "engine.cache_hits";
            cache_misses = c "engine.cache_misses";
            power_sims = c "engine.power_sims";
            power_skipped = c "engine.power_skipped";
          })
        fam_names
    in
    let stages = match !metrics with Some snap -> stages_of_snapshot snap | None -> [] in
    let cache_hit_rate =
      match (cval "engine.cache_hits", cval "engine.cache_misses") with
      | Some h, Some m when h + m > 0 -> Some (Float.of_int h /. Float.of_int (h + m))
      | _ -> None
    in
    (* the winning context: match the result's (vdd, clk, deadline)
       against context_started events *)
    let winner =
      match !result with
      | None -> None
      | Some r ->
          let rc = Json.member "context" r in
          let w_context =
            Option.bind rc (fun rc ->
                match (getf "vdd" rc, getf "clk_ns" rc, geti "deadline_cycles" rc) with
                | Some v, Some c, Some d ->
                    List.find_opt (fun (_, v', c', d') -> v' = v && c' = c && d' = d) !ctx_started
                    |> Option.map (fun (i, _, _, _) -> i)
                | _ -> None)
          in
          let in_winner =
            match w_context with
            | None -> []
            | Some i -> List.filter (fun (c, _, _, _) -> c = i) moves
          in
          let w_value =
            match List.rev in_winner with (_, _, _, v) :: _ -> Some v | [] -> None
          in
          let stats = Json.member "stats" r in
          let eval = Json.member "eval" r in
          Some
            {
              w_context;
              w_committed = List.length in_winner;
              w_value;
              w_result_committed = Option.bind stats (geti "moves_committed");
              w_result_area = Option.bind eval (getf "area");
              w_result_power = Option.bind eval (getf "power");
            }
    in
    let consistent =
      match winner with
      | None -> None (* nothing to check against *)
      | Some w -> (
          match w.w_result_committed with
          | Some n -> Some (w.w_context <> None && w.w_committed = n)
          | None -> Some false)
    in
    Ok
      {
        dfg = !dfg;
        objective = !objective;
        completed = !completed;
        elapsed_s = !elapsed;
        contexts = !contexts;
        passes = !passes;
        families;
        total_committed = List.length moves;
        total_gain = List.fold_left (fun acc (_, _, g, _) -> acc +. g) 0. moves;
        winner;
        stages;
        cache_hit_rate;
        has_metrics = !metrics <> None;
        skipped_lines = !skipped;
        consistent;
      }
  end

(* [open_in]'s message names the path already; the others do not *)
let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      let lines = ref [] in
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            try
              while true do
                lines := input_line ic :: !lines
              done
            with End_of_file -> ())
      with
      | exception Sys_error msg -> Error (path ^ ": " ^ msg)
      | () -> Result.map_error (fun e -> path ^ ": " ^ e) (of_lines (List.rev !lines)))

(* -- rendering --------------------------------------------------------- *)

let opt_json f = function Some v -> f v | None -> Json.Null

let to_json (t : t) =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("kind", Json.String "hsyn.report");
      ("dfg", opt_json (fun s -> Json.String s) t.dfg);
      ("objective", opt_json (fun s -> Json.String s) t.objective);
      ("completed", opt_json (fun b -> Json.Bool b) t.completed);
      ("elapsed_s", opt_json (fun f -> Json.Float f) t.elapsed_s);
      ("contexts", Json.Int t.contexts);
      ("passes", Json.Int t.passes);
      ( "families",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("family", Json.String f.fam);
                   ("proposed", Json.Int f.proposed);
                   ("evaluated", Json.Int f.evaluated);
                   ("committed", Json.Int f.committed);
                   ("reverted", Json.Int f.reverted);
                   ("gain", Json.Float f.gain);
                   ("cache_hits", Json.Int f.cache_hits);
                   ("cache_misses", Json.Int f.cache_misses);
                   ("power_sims", Json.Int f.power_sims);
                   ("power_skipped", Json.Int f.power_skipped);
                 ])
             t.families) );
      ("total_committed", Json.Int t.total_committed);
      ("total_gain", Json.Float t.total_gain);
      ( "winner",
        opt_json
          (fun w ->
            Json.Obj
              [
                ("context", opt_json (fun i -> Json.Int i) w.w_context);
                ("committed", Json.Int w.w_committed);
                ("value", opt_json (fun f -> Json.Float f) w.w_value);
                ("result_moves_committed", opt_json (fun i -> Json.Int i) w.w_result_committed);
                ("result_area", opt_json (fun f -> Json.Float f) w.w_result_area);
                ("result_power", opt_json (fun f -> Json.Float f) w.w_result_power);
              ])
          t.winner );
      ( "stages",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("stage", Json.String s.stage);
                   ("calls", Json.Int s.calls);
                   ("total_ms", Json.Float s.total_ms);
                   ("self_ms", Json.Float s.self_ms);
                 ])
             t.stages) );
      ("cache_hit_rate", opt_json (fun f -> Json.Float f) t.cache_hit_rate);
      ("has_metrics", Json.Bool t.has_metrics);
      ("skipped_lines", Json.Int t.skipped_lines);
      ("consistent", opt_json (fun b -> Json.Bool b) t.consistent);
    ]

let render (t : t) =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "flight recorder report: %s, objective %s\n"
    (Option.value ~default:"?" t.dfg)
    (Option.value ~default:"?" t.objective);
  pr "contexts %d, passes %d, moves committed %d (cumulative gain %.3f)%s\n" t.contexts t.passes
    t.total_committed t.total_gain
    (match t.elapsed_s with Some s -> Printf.sprintf ", %.2fs" s | None -> "");
  if t.skipped_lines > 0 then pr "warning: %d unparseable line(s) skipped\n" t.skipped_lines;
  pr "\nper-move-family gain attribution:\n";
  let tab =
    Table.create
      ~header:
        [ "family"; "proposed"; "evaluated"; "committed"; "reverted"; "gain"; "cache hit%"; "sims skipped" ]
  in
  List.iter
    (fun f ->
      let probes = f.cache_hits + f.cache_misses in
      let hitp =
        if probes = 0 then "-"
        else Printf.sprintf "%.1f" (100. *. Float.of_int f.cache_hits /. Float.of_int probes)
      in
      let sims = f.power_sims + f.power_skipped in
      let skipped = if sims = 0 then "-" else Printf.sprintf "%d/%d" f.power_skipped sims in
      Table.add_row tab
        [
          f.fam;
          string_of_int f.proposed;
          string_of_int f.evaluated;
          string_of_int f.committed;
          string_of_int f.reverted;
          Table.cell_f ~digits:3 f.gain;
          hitp;
          skipped;
        ])
    t.families;
  Buffer.add_string buf (Table.render tab);
  (match t.cache_hit_rate with
  | Some r -> pr "\noverall cache hit rate: %.1f%%\n" (100. *. r)
  | None -> ());
  if t.stages <> [] then begin
    pr "\n";
    Buffer.add_string buf (render_stages ?wall_s:t.elapsed_s t.stages)
  end
  else if not t.has_metrics then
    pr "\n(no metrics_snapshot line — run with --metrics for proposed/evaluated/cache/stage data)\n";
  (match t.winner with
  | Some w ->
      pr "\nwinning context: %s, %d moves committed%s\n"
        (match w.w_context with Some i -> Printf.sprintf "#%d" (i + 1) | None -> "?")
        w.w_committed
        (match w.w_value with Some v -> Printf.sprintf ", final value %.6g" v | None -> "");
      (match (w.w_result_area, w.w_result_power) with
      | Some a, Some p -> pr "result: area %.1f, power %.3f\n" a p
      | _ -> ())
  | None -> pr "\n(no run_finished result in the stream)\n");
  pr "consistency with the run's own result: %s\n"
    (match t.consistent with
    | Some true -> "ok"
    | Some false -> "MISMATCH"
    | None -> "not checked");
  Buffer.contents buf
