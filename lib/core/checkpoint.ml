module Design = Hsyn_rtl.Design

type incumbent = {
  design : Design.t;
  ctx : Design.ctx;
  eval : Cost.eval;
  deadline_cycles : int;
  value : float;
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
   the Marshal layout of the incumbent record. *)
let schema_version = 6

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

let save path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_binary_int oc schema_version;
      Marshal.to_channel oc t []);
  Sys.rename tmp path

let load path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "no checkpoint at %s" path)
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let m = really_input_string ic (String.length magic) in
        if m <> magic then Error (Printf.sprintf "%s is not an hsyn checkpoint" path)
        else
          let v = input_binary_int ic in
          if v <> schema_version then
            Error
              (Printf.sprintf "checkpoint schema version %d unsupported (expected %d)" v
                 schema_version)
          else Ok (Marshal.from_channel ic : t))

let load path =
  try load path with
  | End_of_file -> Error (Printf.sprintf "checkpoint %s is truncated" path)
  | Sys_error msg -> Error msg
  | Failure msg -> Error (Printf.sprintf "checkpoint %s is corrupt: %s" path msg)
