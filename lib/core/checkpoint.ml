module Design = Hsyn_rtl.Design
module Sealed = Hsyn_util.Sealed

type incumbent = {
  design : Design.t;
  ctx : Design.ctx;
  eval : Cost.eval;
  deadline_cycles : int;
  stats : Pass.stats;
  clib : Clib.t;
}

type t = {
  dfg_name : string;
  objective : Cost.objective;
  sampling_ns : float;
  flattened : bool;
  contexts_planned : int;
  cursor : int;
  passes_run : int;
  moves_tried : int;
  incumbent : incumbent option;
}

let magic = "HSYN-CKPT"
(* v2: Pass.stats gained the [sched] kernel counters (PR 3).
   v3: Pass.stats gained [committed] move records and per-family
   [reverted] counts (observability PR).
   v4: Engine.counters (embedded in Pass.stats) gained [disk_hits]
   (persistent-cache PR).
   v5: Pass.stats gained per-rewrite-kind committed counts
   [rewrite_kinds] (move family E PR).
   v6: Pass.stats lost [log], which duplicated [committed]. All change
   the Marshal layout of the incumbent record.
   v7: the snapshot is sealed ([Hsyn_util.Sealed]) with a digest of its
   bytes, checked before unmarshalling.
   v8: Pass.stats lost [reverted] and [engine_families], which nothing
   read.
   v9: Pass.stats.sched lost its count of time-stepped schedules; that
   kernel left the scheduler for the fuzz library.
   v10: Pass.stats lost [sched] (process-wide, not the run's own),
   [moves_committed] and [rewrite_kinds] (both derived from
   [committed]); Session.counters lost [wall_s]; the incumbent lost
   [value], its eval's objective value.
   v11: Dfg.t gained [index], the tables Builder.finish builds once
   per graph. *)
let schema_version = 11

let compatible t ~dfg_name ~objective ~sampling_ns ~flattened =
  if t.dfg_name <> dfg_name then
    Error (Printf.sprintf "checkpoint is for dfg %S, not %S" t.dfg_name dfg_name)
  else if t.objective <> objective then
    Error
      (Printf.sprintf "checkpoint optimizes %s, not %s"
         (Cost.objective_name t.objective) (Cost.objective_name objective))
  else if Float.abs (t.sampling_ns -. sampling_ns) > 1e-6 *. Float.max 1. sampling_ns then
    Error
      (Printf.sprintf "checkpoint sampling period %.3f ns does not match %.3f ns" t.sampling_ns
         sampling_ns)
  else if t.flattened <> flattened then Error "checkpoint mode (hier/flat) does not match"
  else Ok ()

let save path (t : t) = Sealed.write path ~magic ~version:schema_version t

let load path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "no checkpoint at %s" path)
  else
    (Sealed.read path ~magic ~version:schema_version () : (t, _) result)
    |> Result.map_error (function
         | Sealed.Foreign -> Printf.sprintf "%s is not an hsyn checkpoint" path
         | Version v ->
             Printf.sprintf "checkpoint schema version %d unsupported (expected %d)" v
               schema_version
         | Corrupt -> Printf.sprintf "checkpoint %s is corrupt (payload digest mismatch)" path
         | Truncated -> Printf.sprintf "checkpoint %s is truncated" path
         | Header msg | Io msg -> msg
         | Failed msg -> Printf.sprintf "checkpoint %s is corrupt: %s" path msg)
