module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry
module Library = Hsyn_modlib.Library
module Voltage = Hsyn_modlib.Voltage
module Clock = Hsyn_modlib.Clock
module Sched = Hsyn_sched.Sched
module Flatten = Hsyn_dfg.Flatten
module Trace = Hsyn_eval.Trace
module Rng = Hsyn_util.Rng
module Json = Hsyn_util.Json

type config = {
  max_moves : int;
  max_passes : int;
  max_candidates : int;
  trace_length : int;
  trace_kind : Trace.kind;
  seed : int;
  vdd_candidates : float list;
  max_clocks : int;
  enable_resynth : bool;
  enable_embed : bool;
  enable_split : bool;
  enable_rewrite : bool;
  clib_effort : Clib.effort;
  engine : Engine.policy;
}

let default_config =
  {
    max_moves = 10;
    max_passes = 4;
    max_candidates = 60;
    trace_length = 16;
    trace_kind = Trace.default_kind;
    seed = 42;
    vdd_candidates = Voltage.candidates;
    max_clocks = 3;
    enable_resynth = true;
    enable_embed = true;
    enable_split = true;
    enable_rewrite = true;
    clib_effort = Clib.default_effort;
    engine = Engine.default_policy;
  }

module Config = struct
  type t = config

  let default = default_config

  let validate (c : t) =
    let err fmt = Printf.ksprintf (fun m -> Error ("config: " ^ m)) fmt in
    if c.max_moves <= 0 then err "max_moves must be positive (got %d)" c.max_moves
    else if c.max_passes <= 0 then err "max_passes must be positive (got %d)" c.max_passes
    else if c.max_candidates <= 0 then
      err "max_candidates must be positive (got %d)" c.max_candidates
    else if c.trace_length <= 0 then err "trace_length must be positive (got %d)" c.trace_length
    else if c.max_clocks <= 0 then err "max_clocks must be positive (got %d)" c.max_clocks
    else if c.vdd_candidates = [] then err "vdd_candidates must not be empty"
    else if List.exists (fun v -> v <= 0.) c.vdd_candidates then
      err "vdd_candidates must all be positive"
    else if c.clib_effort.Clib.max_moves <= 0 then err "clib_effort.max_moves must be positive"
    else if c.clib_effort.Clib.max_passes <= 0 then err "clib_effort.max_passes must be positive"
    else if c.clib_effort.Clib.max_candidates <= 0 then
      err "clib_effort.max_candidates must be positive"
    else if c.engine.Engine.jobs < 1 then err "engine.jobs must be at least 1"
    else if c.engine.Engine.cache_capacity < 0 then err "engine.cache_capacity must be >= 0"
    else Ok c
end

let min_sampling_ns lib registry dfg =
  let flat = if Dfg.n_calls dfg = 0 then dfg else Flatten.flatten registry dfg in
  Sched.critical_path_ns lib flat

module Request = struct
  type t = {
    lib : Library.t;
    registry : Registry.t;
    dfg : Dfg.t;
    objective : Cost.objective;
    sampling_ns : float;
    config : Config.t;
    budget : Budget.t;
    flatten : bool;
    session : Session.t option;
        (* memoization session shared with other requests; [None] gives
           the run a fresh private session *)
  }

  let make ?(config = default_config) ?(budget = Budget.unlimited) ?(flatten = false) ?session
      ~lib ~registry ~dfg ~objective ~sampling_ns () =
    match Config.validate config with
    | Error msg -> Error msg
    | Ok config ->
        if sampling_ns <= 0. then Error "request: sampling_ns must be positive"
        else Ok { lib; registry; dfg; objective; sampling_ns; config; budget; flatten; session }

  let effective_dfg t =
    if t.flatten && Dfg.n_calls t.dfg > 0 then Flatten.flatten t.registry t.dfg else t.dfg

  (* The deterministic (V_dd, clock period, deadline) walk order of the
     sweep: the checkpoint cursor indexes into exactly this list. *)
  let plan t =
    let config = t.config in
    let dfg = effective_dfg t in
    let min_ns = min_sampling_ns t.lib t.registry dfg in
    let vdds =
      match t.objective with Cost.Area -> [ Voltage.nominal ] | Cost.Power -> config.vdd_candidates
    in
    List.concat_map
      (fun vdd ->
        (* prune: even the fastest design misses the sampling period *)
        if min_ns *. Voltage.delay_factor vdd <= t.sampling_ns then
          List.filter_map
            (fun clk_ns ->
              let deadline = int_of_float (Float.floor (t.sampling_ns /. clk_ns +. 1e-9)) in
              if deadline >= 1 then Some (vdd, clk_ns, deadline) else None)
            (Clock.spread config.max_clocks (Clock.candidates t.lib vdd))
        else [])
      vdds
end

type coverage = {
  contexts_planned : int;
  contexts_started : int;
  contexts_done : int;
  passes_run : int;
  moves_tried : int;
  stop_reason : string option;
}

type result = {
  design : Design.t;
  ctx : Design.ctx;
  eval : Cost.eval;
  objective : Cost.objective;
  sampling_ns : float;
  deadline_cycles : int;
  elapsed_s : float;
  stats : Pass.stats;
  clib : Clib.t;
  completed : bool;
  coverage : coverage;
}

module Result = struct
  type t = result

  let schema_version = 2

  let counters_json (c : Session.counters) =
    Json.Obj
      [
        ("generated", Json.Int c.Session.generated);
        ("evaluated", Json.Int c.Session.evaluated);
        ("cache_hits", Json.Int c.Session.cache_hits);
        ("cache_misses", Json.Int c.Session.cache_misses);
        ("evictions", Json.Int c.Session.evictions);
        ("power_sims", Json.Int c.Session.power_sims);
        ("power_skipped", Json.Int c.Session.power_skipped);
        ("batches", Json.Int c.Session.batches);
        ("disk_hits", Json.Int c.Session.disk_hits);
        ("wall_s", Json.Float c.Session.wall_s);
      ]

  let to_json_value (r : t) =
    Json.Obj
      [
        ("schema_version", Json.Int schema_version);
        ("kind", Json.String "hsyn.result");
        ("objective", Json.String (Cost.objective_name r.objective));
        ("sampling_ns", Json.Float r.sampling_ns);
        ("completed", Json.Bool r.completed);
        ( "context",
          Json.Obj
            [
              ("vdd", Json.Float r.ctx.Design.vdd);
              ("clk_ns", Json.Float r.ctx.Design.clk_ns);
              ("deadline_cycles", Json.Int r.deadline_cycles);
            ] );
        ( "design",
          Json.Obj
            [
              ("dfg", Json.String r.design.Design.dfg.Dfg.name);
              ("instances", Json.Int (Array.length r.design.Design.insts));
              ("registers", Json.Int r.design.Design.n_regs);
              ("fingerprint", Json.String (Printf.sprintf "%016Lx" (Design.fingerprint r.design)));
            ] );
        ( "eval",
          Json.Obj
            [
              ("area", Json.Float r.eval.Cost.area);
              ("power", Json.Float r.eval.Cost.power);
              ("energy_sample", Json.Float r.eval.Cost.energy_sample);
              ("makespan", Json.Int r.eval.Cost.makespan);
              ("feasible", Json.Bool r.eval.Cost.feasible);
            ] );
        ( "coverage",
          Json.Obj
            [
              ("contexts_planned", Json.Int r.coverage.contexts_planned);
              ("contexts_started", Json.Int r.coverage.contexts_started);
              ("contexts_done", Json.Int r.coverage.contexts_done);
              ("passes_run", Json.Int r.coverage.passes_run);
              ("moves_tried", Json.Int r.coverage.moves_tried);
              ( "stop_reason",
                match r.coverage.stop_reason with None -> Json.Null | Some s -> Json.String s );
            ] );
        ( "stats",
          Json.Obj
            [
              ("passes", Json.Int r.stats.Pass.passes);
              ("moves_committed", Json.Int r.stats.Pass.moves_committed);
              ("moves_tried", Json.Int r.stats.Pass.moves_tried);
              ("interrupted", Json.Bool r.stats.Pass.interrupted);
              ("engine", counters_json r.stats.Pass.engine);
              ( "sched",
                Json.Obj
                  [
                    ("schedules", Json.Int r.stats.Pass.sched.Sched.schedules);
                    ("events_popped", Json.Int r.stats.Pass.sched.Sched.events_popped);
                    ("prepared_hits", Json.Int r.stats.Pass.sched.Sched.prepared_hits);
                    ("prepared_builds", Json.Int r.stats.Pass.sched.Sched.prepared_builds);
                  ] );
            ] );
        ("elapsed_s", Json.Float r.elapsed_s);
      ]

  let to_json r = Json.to_string (to_json_value r)
end

(* Move B's resynthesizer: a nested improvement run of the module part
   under its derived environment constraints, without another level of
   B moves, on a fresh trace per call. *)
let make_resynth ?session ?token config registry complexes =
  let counter = ref 0 in
  fun ctx cs objective (part : Design.t) ->
    incr counter;
    let trace =
      Trace.generate (Rng.create (config.seed + !counter)) config.trace_kind
        ~n_inputs:(Array.length part.Design.dfg.Dfg.inputs)
        ~length:config.trace_length
    in
    Clib.improve_part ?session ?token ctx registry ~complexes
      ~effort:{ config.clib_effort with Clib.engine = config.engine }
      ~trace ~allow_embed:config.enable_embed ~allow_split:config.enable_split
      ~allow_rewrite:config.enable_rewrite cs objective part

(* One (V_dd, clock) context of the sweep: build the complex library,
   the initial solution, and run budgeted variable-depth improvement.
   Raises [Budget.Interrupted] only from library construction; once
   improvement is underway an interruption surfaces as
   [stats.interrupted] with the best committed prefix. *)
let run_context ~session ?token ~events ~index (req : Request.t) dfg (vdd, clk_ns, deadline) =
  Hsyn_obs.Trace.(span Pass) "context" @@ fun () ->
  let config = req.Request.config in
  let ctx = { Design.lib = req.Request.lib; vdd; clk_ns } in
  let rng = Rng.create config.seed in
  let trace =
    Trace.generate rng config.trace_kind
      ~n_inputs:(Array.length dfg.Dfg.inputs)
      ~length:config.trace_length
  in
  let clib =
    Clib.build ~session ?token ctx req.Request.registry ~rng:(Rng.split rng)
      ~trace_length:config.trace_length ~effort:config.clib_effort ~top:dfg
  in
  let complexes = Clib.lookup clib in
  let cs = Sched.relaxed ~deadline dfg in
  let resynth =
    if config.enable_resynth then
      Some (make_resynth ~session ?token config req.Request.registry complexes)
    else None
  in
  let engine =
    Engine.create ~policy:config.engine ~session ?token ~ctx ~cs
      ~sampling_ns:req.Request.sampling_ns ~trace ~objective:req.Request.objective ()
  in
  let env =
    Moves.make_env ?resynth engine ~registry:req.Request.registry ~complexes
      ~max_candidates:config.max_candidates ~allow_embed:config.enable_embed
      ~allow_split:config.enable_split ~allow_rewrite:config.enable_rewrite
  in
  let initial =
    Initial.build ~sched_cache:(Session.sched_cache session) ctx ~complexes req.Request.registry
      dfg
  in
  (* larger designs need longer move sequences per pass *)
  let max_moves = max config.max_moves (min 40 (Array.length initial.Design.insts)) in
  let on_pass pass moves value =
    events (Events.Pass_done { context = index; pass; moves_committed = moves; value })
  in
  let on_commit (m : Pass.committed_move) =
    events
      (Events.Move_committed
         {
           context = index;
           pass = m.Pass.cm_pass;
           family = m.Pass.cm_family;
           description = m.Pass.cm_description;
           gain = m.Pass.cm_gain;
           value = m.Pass.cm_value;
         })
  in
  let improved, stats =
    Pass.improve ~on_pass ~on_commit env ~max_moves ~max_passes:config.max_passes initial
  in
  let eval = Engine.evaluate_with_power engine improved in
  (improved, ctx, eval, stats, clib)

exception Stop of Budget.reason

(* Persistent-cache plumbing (ROADMAP item 2). Both directions degrade,
   never fail: an unreadable cache file loads nothing and a failed save
   writes nothing, each surfaced as a [warning] on the event. *)
let load_cache ~session ~config ~lib ~emit dir =
  let capacity = config.engine.Engine.cache_capacity in
  if capacity <= 0 then
    emit
      (Events.Cache_loaded
         { dir; entries = 0; warning = Some "cost cache disabled (engine.cache_capacity = 0)" })
  else
    match Session.load_into ~capacity session ~lib ~dir with
    | Ok n -> emit (Events.Cache_loaded { dir; entries = n; warning = None })
    | Error msg -> emit (Events.Cache_loaded { dir; entries = 0; warning = Some msg })

let save_cache ~session ~emit dir =
  match Session.save session ~dir with
  | Ok n -> emit (Events.Cache_saved { dir; entries = n; warning = None })
  | Error msg -> emit (Events.Cache_saved { dir; entries = 0; warning = Some msg })

let synthesize ?(events = Events.null) ?token ?checkpoint ?(resume = false) ?cache_dir
    (req : Request.t) =
  let config = req.Request.config in
  let start_time = Unix.gettimeofday () in
  let token = match token with Some t -> t | None -> Budget.start req.Request.budget in
  (* every engine of this run (contexts, clib construction, nested
     resynthesis) borrows from one session — shared across runs
     when the request carries one *)
  let session =
    match req.Request.session with Some s -> s | None -> Session.create ()
  in
  let emit payload =
    events { Events.at_s = Unix.gettimeofday () -. start_time; payload }
  in
  (match cache_dir with
  | Some dir -> load_cache ~session ~config ~lib:req.Request.lib ~emit dir
  | None -> ());
  let dfg = Request.effective_dfg req in
  let plan = Request.plan req in
  let total = List.length plan in
  let fresh_snapshot =
    {
      Checkpoint.dfg_name = req.Request.dfg.Dfg.name;
      objective = req.Request.objective;
      sampling_ns = req.Request.sampling_ns;
      flattened = req.Request.flatten;
      contexts_planned = total;
      cursor = 0;
      passes_run = 0;
      moves_tried = 0;
      incumbent = None;
    }
  in
  let snapshot0 =
    if not resume then Ok fresh_snapshot
    else
      match checkpoint with
      | None -> Error "resume requested but no checkpoint path given"
      | Some path when not (Sys.file_exists path) ->
          (* a missing checkpoint is a cold start, not an error —
             this is what lets [--resume] be passed unconditionally *)
          Ok fresh_snapshot
      | Some path -> (
          match Checkpoint.load path with
          | Error msg -> Error msg
          | Ok ck -> (
              match
                Checkpoint.compatible ck ~dfg_name:req.Request.dfg.Dfg.name
                  ~objective:req.Request.objective ~sampling_ns:req.Request.sampling_ns
                  ~flattened:req.Request.flatten
              with
              | Error msg -> Error msg
              | Ok () ->
                  if ck.Checkpoint.contexts_planned <> total then
                    Error
                      (Printf.sprintf
                         "checkpoint plans %d contexts but this request plans %d (different \
                          config?)"
                         ck.Checkpoint.contexts_planned total)
                  else Ok ck))
  in
  match snapshot0 with
  | Error msg -> Error msg
  | Ok snap0 ->
      emit
        (Events.Run_started
           {
             dfg = dfg.Dfg.name;
             objective = Cost.objective_name req.Request.objective;
             sampling_ns = req.Request.sampling_ns;
             contexts_planned = total;
             budget = req.Request.budget;
           });
      (* [committed] is the resumable state: incumbent over fully
         finished contexts only — exactly what checkpoints store.
         [partial] is the design of a context the budget interrupted;
         it may be what the caller gets back but never what resume
         seeds from, keeping resumed runs bit-identical to
         uninterrupted ones. *)
      let committed = ref snap0.Checkpoint.incumbent in
      let partial = ref None in
      let cursor = ref snap0.Checkpoint.cursor in
      (* the work of every context run, finished or interrupted *)
      let passes_run = ref snap0.Checkpoint.passes_run in
      let moves_tried = ref snap0.Checkpoint.moves_tried in
      let started = ref 0 in
      let stop_reason = ref None in
      let save_checkpoint () =
        match checkpoint with
        | None -> ()
        | Some path ->
            Hsyn_obs.Trace.(span Checkpoint) "save" (fun () ->
                Checkpoint.save path
                  {
                    snap0 with
                    Checkpoint.cursor = !cursor;
                    passes_run = !passes_run;
                    moves_tried = !moves_tried;
                    incumbent = !committed;
                  });
            emit (Events.Checkpoint_saved { path; contexts_done = !cursor })
      in
      let better value inc =
        match inc with Some (i : Checkpoint.incumbent) -> value < i.Checkpoint.value | None -> true
      in
      (try
         List.iteri
           (fun index (vdd, clk_ns, deadline) ->
             if index >= snap0.Checkpoint.cursor then begin
               (match Budget.exhausted token with Some r -> raise (Stop r) | None -> ());
               incr started;
               emit
                 (Events.Context_started
                    { index; total; vdd; clk_ns; deadline_cycles = deadline });
               match
                 run_context ~session ~token ~events:emit ~index req dfg (vdd, clk_ns, deadline)
               with
               | exception Budget.Interrupted r ->
                   emit (Events.Context_finished { index; feasible = false });
                   raise (Stop r)
               | improved, ctx, eval, stats, clib ->
                   passes_run := !passes_run + stats.Pass.passes;
                   moves_tried := !moves_tried + stats.Pass.moves_tried;
                   let feasible = eval.Cost.feasible in
                   let value = Cost.objective_value req.Request.objective eval in
                   let inc =
                     if feasible then
                       Some
                         {
                           Checkpoint.design = improved;
                           ctx;
                           eval;
                           deadline_cycles = deadline;
                           value;
                           stats;
                           clib;
                         }
                     else None
                   in
                   emit (Events.Context_finished { index; feasible });
                   if stats.Pass.interrupted then begin
                     partial := inc;
                     raise
                       (Stop (Option.value ~default:Budget.Cancelled (Budget.interrupted token)))
                   end;
                   (match inc with
                   | Some i when better value !committed ->
                       committed := Some i;
                       Hsyn_obs.Trace.(instant Pass) "new_incumbent";
                       emit
                         (Events.New_incumbent
                            {
                              context = index;
                              vdd;
                              clk_ns;
                              value;
                              area = eval.Cost.area;
                              power = eval.Cost.power;
                            })
                   | _ -> ());
                   (* charged on completion, so the quota means
                      "finish at most N contexts" and never
                      interrupts the context it admitted *)
                   Budget.note_context token;
                   cursor := index + 1;
                   save_checkpoint ()
             end)
           plan
       with Stop r ->
         stop_reason := Some r;
         emit (Events.Budget_exhausted { reason = Budget.reason_name r });
         save_checkpoint ());
      let elapsed_s = Unix.gettimeofday () -. start_time in
      (match cache_dir with
      | Some dir -> save_cache ~session ~emit dir
      | None -> ());
      Session.export_metrics session;
      let completed = !stop_reason = None in
      let coverage =
        {
          contexts_planned = total;
          contexts_started = snap0.Checkpoint.cursor + !started;
          contexts_done = !cursor;
          passes_run = !passes_run;
          moves_tried = !moves_tried;
          stop_reason = Option.map Budget.reason_name !stop_reason;
        }
      in
      let finish_events result_json =
        emit
          (Events.Run_finished
             {
               completed;
               contexts_done = !cursor;
               contexts_planned = total;
               elapsed_s;
               result = result_json;
             })
      in
      (* the interrupted context's design wins only when strictly
         better: ties keep the earlier context *)
      let final =
        match !partial with
        | Some p when better p.Checkpoint.value !committed -> !partial
        | _ -> !committed
      in
      match final with
      | None ->
          finish_events None;
          if completed then
            Error
              (Printf.sprintf "no feasible design for %s at sampling %.1f ns" dfg.Dfg.name
                 req.Request.sampling_ns)
          else
            Error
              (Printf.sprintf "budget exhausted (%s) before any feasible design was found"
                 (Option.fold ~none:"?" ~some:Budget.reason_name !stop_reason))
      | Some (i : Checkpoint.incumbent) ->
          let r =
            {
              design = i.Checkpoint.design;
              ctx = i.Checkpoint.ctx;
              eval = i.Checkpoint.eval;
              objective = req.Request.objective;
              sampling_ns = req.Request.sampling_ns;
              deadline_cycles = i.Checkpoint.deadline_cycles;
              elapsed_s;
              stats = i.Checkpoint.stats;
              clib = i.Checkpoint.clib;
              completed;
              coverage;
            }
          in
          finish_events (Some (Result.to_json_value r));
          Ok r

let rescale_vdd ?(config = default_config) (r : result) vdds =
  let rng = Rng.create config.seed in
  let trace =
    Trace.generate rng config.trace_kind
      ~n_inputs:(Array.length r.design.Design.dfg.Dfg.inputs)
      ~length:config.trace_length
  in
  let candidates =
    List.filter (fun v -> v <= r.ctx.Design.vdd +. 1e-9) vdds |> List.sort compare
  in
  let best = ref r in
  (* the architecture is frozen; the clock may be re-picked so that a
     design that exactly filled its cycle budget can still slow down *)
  List.iter
    (fun vdd ->
      let clks = r.ctx.Design.clk_ns :: Clock.candidates r.ctx.Design.lib vdd in
      List.iter
        (fun clk_ns ->
          let deadline = int_of_float (Float.floor (r.sampling_ns /. clk_ns +. 1e-9)) in
          if deadline >= 1 then begin
            let ctx = { r.ctx with Design.vdd; clk_ns } in
            let cs = Sched.relaxed ~deadline r.design.Design.dfg in
            let eval = Cost.evaluate ctx cs ~sampling_ns:r.sampling_ns ~trace r.design in
            if eval.Cost.feasible && eval.Cost.power < !best.eval.Cost.power then
              best := { r with ctx; eval; deadline_cycles = deadline }
          end)
        (Clock.spread config.max_clocks clks))
    candidates;
  !best
