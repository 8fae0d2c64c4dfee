module Json = Hsyn_util.Json

type payload =
  | Run_started of {
      dfg : string;
      objective : string;
      sampling_ns : float;
      contexts_planned : int;
      budget : Budget.t;
    }
  | Context_started of { index : int; total : int; vdd : float; clk_ns : float; deadline_cycles : int }
  | Pass_done of { context : int; pass : int; moves_committed : int; value : float }
  | Move_committed of {
      context : int;
      pass : int;
      family : string;
      description : string;
      gain : float;
      value : float;
    }
  | New_incumbent of {
      context : int;
      vdd : float;
      clk_ns : float;
      value : float;
      area : float;
      power : float;
    }
  | Context_finished of { index : int; feasible : bool }
  | Checkpoint_saved of { path : string; contexts_done : int }
  | Cache_loaded of { dir : string; entries : int; warning : string option }
  | Cache_saved of { dir : string; entries : int; warning : string option }
  | Budget_exhausted of { reason : string }
  | Run_finished of {
      completed : bool;
      contexts_done : int;
      contexts_planned : int;
      elapsed_s : float;
      result : Json.t option;
    }

type t = { at_s : float; payload : payload }
type sink = t -> unit

let null (_ : t) = ()

let kind_name = function
  | Run_started _ -> "run_started"
  | Context_started _ -> "context_started"
  | Pass_done _ -> "pass_done"
  | Move_committed _ -> "move_committed"
  | New_incumbent _ -> "new_incumbent"
  | Context_finished _ -> "context_finished"
  | Checkpoint_saved _ -> "checkpoint_saved"
  | Cache_loaded _ -> "cache_loaded"
  | Cache_saved _ -> "cache_saved"
  | Budget_exhausted _ -> "budget_exhausted"
  | Run_finished _ -> "run_finished"

let to_string { at_s; payload } =
  let body =
    match payload with
    | Run_started e ->
        Format.asprintf "run %s objective=%s sampling=%.1fns contexts=%d budget=%a" e.dfg
          e.objective e.sampling_ns e.contexts_planned Budget.pp e.budget
    | Context_started e ->
        Printf.sprintf "context %d/%d start: vdd=%.1fV clk=%.1fns deadline=%d cycles"
          (e.index + 1) e.total e.vdd e.clk_ns e.deadline_cycles
    | Pass_done e ->
        Printf.sprintf "context %d pass %d done: %d moves committed, value %.3f" (e.context + 1)
          e.pass e.moves_committed e.value
    | Move_committed e ->
        Printf.sprintf "context %d pass %d commit [%s] %s (gain %.3f, value %.3f)" (e.context + 1)
          e.pass e.family e.description e.gain e.value
    | New_incumbent e ->
        Printf.sprintf "new incumbent from context %d: vdd=%.1fV clk=%.1fns value=%.3f area=%.1f power=%.3f"
          (e.context + 1) e.vdd e.clk_ns e.value e.area e.power
    | Context_finished e ->
        Printf.sprintf "context %d finished (%s)" (e.index + 1)
          (if e.feasible then "feasible" else "infeasible")
    | Checkpoint_saved e -> Printf.sprintf "checkpoint saved to %s (%d contexts done)" e.path e.contexts_done
    | Cache_loaded e -> (
        match e.warning with
        | Some w -> Printf.sprintf "cache load from %s skipped: %s" e.dir w
        | None -> Printf.sprintf "cache loaded from %s (%d entries)" e.dir e.entries)
    | Cache_saved e -> (
        match e.warning with
        | Some w -> Printf.sprintf "cache save to %s failed: %s" e.dir w
        | None -> Printf.sprintf "cache saved to %s (%d entries)" e.dir e.entries)
    | Budget_exhausted e -> Printf.sprintf "budget exhausted (%s)" e.reason
    | Run_finished e ->
        Printf.sprintf "run finished: %s, %d/%d contexts, %.2fs"
          (if e.completed then "complete" else "partial")
          e.contexts_done e.contexts_planned e.elapsed_s
  in
  Printf.sprintf "[%7.2fs] %s" at_s body

let to_json_value ({ at_s; payload } as _t) =
  let fields =
    match payload with
    | Run_started e ->
        [
          ("dfg", Json.String e.dfg);
          ("objective", Json.String e.objective);
          ("sampling_ns", Json.Float e.sampling_ns);
          ("contexts_planned", Json.Int e.contexts_planned);
          ("budget", Json.String (Format.asprintf "%a" Budget.pp e.budget));
        ]
    | Context_started e ->
        [
          ("index", Json.Int e.index);
          ("total", Json.Int e.total);
          ("vdd", Json.Float e.vdd);
          ("clk_ns", Json.Float e.clk_ns);
          ("deadline_cycles", Json.Int e.deadline_cycles);
        ]
    | Pass_done e ->
        [
          ("context", Json.Int e.context);
          ("pass", Json.Int e.pass);
          ("moves_committed", Json.Int e.moves_committed);
          ("value", Json.Float e.value);
        ]
    | Move_committed e ->
        [
          ("context", Json.Int e.context);
          ("pass", Json.Int e.pass);
          ("family", Json.String e.family);
          ("description", Json.String e.description);
          ("gain", Json.Float e.gain);
          ("value", Json.Float e.value);
        ]
    | New_incumbent e ->
        [
          ("context", Json.Int e.context);
          ("vdd", Json.Float e.vdd);
          ("clk_ns", Json.Float e.clk_ns);
          ("value", Json.Float e.value);
          ("area", Json.Float e.area);
          ("power", Json.Float e.power);
        ]
    | Context_finished e -> [ ("index", Json.Int e.index); ("feasible", Json.Bool e.feasible) ]
    | Checkpoint_saved e ->
        [ ("path", Json.String e.path); ("contexts_done", Json.Int e.contexts_done) ]
    | Cache_loaded e ->
        [
          ("dir", Json.String e.dir);
          ("entries", Json.Int e.entries);
          ("warning", match e.warning with Some w -> Json.String w | None -> Json.Null);
        ]
    | Cache_saved e ->
        [
          ("dir", Json.String e.dir);
          ("entries", Json.Int e.entries);
          ("warning", match e.warning with Some w -> Json.String w | None -> Json.Null);
        ]
    | Budget_exhausted e -> [ ("reason", Json.String e.reason) ]
    | Run_finished e ->
        [
          ("completed", Json.Bool e.completed);
          ("contexts_done", Json.Int e.contexts_done);
          ("contexts_planned", Json.Int e.contexts_planned);
          ("elapsed_s", Json.Float e.elapsed_s);
          ("result", Option.value ~default:Json.Null e.result);
        ]
  in
  (* A served request runs under an Hsyn_obs.Scope on the driving
     domain: tag its id onto every event line so a multiplexed event
     stream (the daemon's --log, interleaved tests) stays attributable.
     Solo runs carry no scope and their output is byte-identical to
     before. *)
  let fields =
    match Hsyn_obs.Scope.current () with
    | None -> fields
    | Some s -> fields @ [ ("request_id", Json.Int s.Hsyn_obs.Scope.id) ]
  in
  Json.Obj (("at_s", Json.Float at_s) :: ("event", Json.String (kind_name payload)) :: fields)

let to_json t = Json.to_string (to_json_value t)
