(* Leveled, structured NDJSON logger (see log.mli).

   The hot path is the level check: one atomic load (Gate.log_level),
   so logging left at its default threshold costs the same as every
   other disabled probe of the observability layer. Emission renders
   one JSON object and hands it to the current Report.Sink, whose
   per-line mutex + single buffered write keep records line-atomic
   even when several domains log into one file. *)

module Json = Hsyn_util.Json

type level = Debug | Info | Warn | Error

let level_int = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

let set_level l = Atomic.set Gate.log_level (level_int l)
let enabled l = level_int l >= Atomic.get Gate.log_level

(* The default sink shares stderr with human-readable diagnostics;
   [set_sink] points the stream at a file (e.g. the serve daemon's
   --log). Swapping the sink is an atomic pointer store, so a record
   being written under the old sink's lock finishes there. *)
let sink_cell : Report.Sink.t Atomic.t = Atomic.make (Report.Sink.of_channel stderr)

let set_sink s = Atomic.set sink_cell s
let sink () = Atomic.get sink_cell

let emit lvl fields msg =
  let scoped =
    match Scope.current () with
    | None -> []
    | Some s ->
        ("request_id", Json.Int s.Scope.id)
        :: (match s.Scope.tenant with
           | Some t -> [ ("tenant", Json.String t) ]
           | None -> [])
  in
  let record =
    Json.Obj
      (("ts", Json.Float (Unix.gettimeofday ()))
      :: ("level", Json.String (level_name lvl))
      :: ("msg", Json.String msg)
      :: (scoped @ fields))
  in
  (* a logger must never take its process down with it: a vanished
     reader (EPIPE on a closed stderr/file) silently drops the line *)
  try Report.Sink.json (Atomic.get sink_cell) record with _ -> ()

let log lvl ?(fields = []) msg = if enabled lvl then emit lvl fields msg
let debug ?fields msg = log Debug ?fields msg
let info ?fields msg = log Info ?fields msg
let warn ?fields msg = log Warn ?fields msg
let error ?fields msg = log Error ?fields msg
