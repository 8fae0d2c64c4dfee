(* Wire codec: JSON documents for the request API (see wire.mli).

   Parsing is strict and field-by-field — every reader folds over the
   object's fields, fails on a name it does not know, and names the
   offending field in its error, so front-ends can turn any malformed
   input into a precise typed error response. *)

module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry
module Library = Hsyn_modlib.Library
module Text = Hsyn_dfg.Text
module Trace = Hsyn_eval.Trace
module Json = Hsyn_util.Json

let schema_version = 1

(* -- field plumbing ---------------------------------------------------- *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let as_obj what = function
  | Json.Obj fields -> Ok fields
  | _ -> err "%s must be a JSON object" what

(* Fold [f] over an object's fields, threading an accumulator;
   readers pass a [f] that errors on unknown names. *)
let fold_fields what fields init f =
  List.fold_left
    (fun acc (key, v) ->
      let* acc = acc in
      match f acc key v with
      | Ok acc -> Ok acc
      | Error m -> err "%s.%s: %s" what key m)
    (Ok init) fields

let as_int = function
  | v -> ( match Json.to_int_opt v with Some i -> Ok i | None -> Error "expected an integer")

let as_float = function
  | v -> ( match Json.to_float_opt v with Some f -> Ok f | None -> Error "expected a number")

let as_string = function
  | v -> ( match Json.to_string_opt v with Some s -> Ok s | None -> Error "expected a string")

let as_bool = function Json.Bool b -> Ok b | _ -> Error "expected a boolean"

let as_float_list v =
  match Json.to_list_opt v with
  | None -> Error "expected a list of numbers"
  | Some l ->
      List.fold_left
        (fun acc v ->
          let* acc = acc in
          let* f = as_float v in
          Ok (f :: acc))
        (Ok []) l
      |> Result.map List.rev

(* -- typed errors ------------------------------------------------------ *)

type error_code = Bad_request | Overloaded | Shutting_down | Failed | Internal

let error_code_name = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting_down"
  | Failed -> "failed"
  | Internal -> "internal"

let error_code_of_name = function
  | "bad_request" -> Some Bad_request
  | "overloaded" -> Some Overloaded
  | "shutting_down" -> Some Shutting_down
  | "failed" -> Some Failed
  | "internal" -> Some Internal
  | _ -> None

type error = { code : error_code; message : string; retry_after_s : float option }

let error ?retry_after_s code message = { code; message; retry_after_s }

let error_to_json e =
  Json.Obj
    ([
       ("kind", Json.String "hsyn.error");
       ("schema_version", Json.Int schema_version);
       ("code", Json.String (error_code_name e.code));
       ("message", Json.String e.message);
     ]
    @ match e.retry_after_s with None -> [] | Some s -> [ ("retry_after_s", Json.Float s) ])

let error_of_json v =
  let* fields = as_obj "error" v in
  let* code, message, retry =
    fold_fields "error" fields (None, None, None) (fun (code, message, retry) key v ->
        match key with
        | "kind" ->
            let* k = as_string v in
            if k = "hsyn.error" then Ok (code, message, retry)
            else err "expected \"hsyn.error\", got %S" k
        | "schema_version" ->
            let* n = as_int v in
            if n = schema_version then Ok (code, message, retry)
            else err "unsupported version %d (this reader speaks %d)" n schema_version
        | "code" ->
            let* name = as_string v in
            (match error_code_of_name name with
            | Some c -> Ok (Some c, message, retry)
            | None -> err "unknown error code %S" name)
        | "message" ->
            let* m = as_string v in
            Ok (code, Some m, retry)
        | "retry_after_s" ->
            let* s = as_float v in
            Ok (code, message, Some s)
        | _ -> Error "unknown field")
  in
  match (code, message) with
  | Some code, Some message -> Ok { code; message; retry_after_s = retry }
  | None, _ -> Error "error.code: missing"
  | _, None -> Error "error.message: missing"

(* -- trace kind -------------------------------------------------------- *)

let trace_kind_to_string = function
  | Trace.White -> "white"
  | Trace.Correlated rho -> Printf.sprintf "correlated:%.12g" rho
  | Trace.Ramp step -> Printf.sprintf "ramp:%d" step

let trace_kind_of_string s =
  match String.index_opt s ':' with
  | None -> if s = "white" then Ok Trace.White else err "unknown trace kind %S" s
  | Some i -> (
      let head = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match head with
      | "correlated" -> (
          match float_of_string_opt arg with
          | Some rho when rho >= 0. && rho < 1. -> Ok (Trace.Correlated rho)
          | _ -> err "correlated trace kind needs rho in [0,1), got %S" arg)
      | "ramp" -> (
          match int_of_string_opt arg with
          | Some step -> Ok (Trace.Ramp step)
          | None -> err "ramp trace kind needs an integer step, got %S" arg)
      | _ -> err "unknown trace kind %S" s)

(* -- engine policy ----------------------------------------------------- *)

let policy_to_json (p : Engine.policy) =
  Json.Obj
    [
      ("jobs", Json.Int p.Engine.jobs);
      ("cache_capacity", Json.Int p.Engine.cache_capacity);
      ("staged", Json.Bool p.Engine.staged);
    ]

let policy_of_json base v =
  let* fields = as_obj "engine" v in
  fold_fields "engine" fields base (fun (p : Engine.policy) key v ->
      match key with
      | "jobs" ->
          let* n = as_int v in
          Ok { p with Engine.jobs = n }
      | "cache_capacity" ->
          let* n = as_int v in
          Ok { p with Engine.cache_capacity = n }
      | "staged" ->
          let* b = as_bool v in
          Ok { p with Engine.staged = b }
      | _ -> Error "unknown field")

(* -- clib effort ------------------------------------------------------- *)

(* The [trace] trimming function is not serializable; it round-trips
   to the identity default, which is what every shipped configuration
   uses anyway. *)
let effort_to_json (e : Clib.effort) =
  Json.Obj
    [
      ("max_moves", Json.Int e.Clib.max_moves);
      ("max_passes", Json.Int e.Clib.max_passes);
      ("max_candidates", Json.Int e.Clib.max_candidates);
      ("engine", policy_to_json e.Clib.engine);
    ]

let effort_of_json base v =
  let* fields = as_obj "clib" v in
  fold_fields "clib" fields base (fun (e : Clib.effort) key v ->
      match key with
      | "max_moves" ->
          let* n = as_int v in
          Ok { e with Clib.max_moves = n }
      | "max_passes" ->
          let* n = as_int v in
          Ok { e with Clib.max_passes = n }
      | "max_candidates" ->
          let* n = as_int v in
          Ok { e with Clib.max_candidates = n }
      | "engine" ->
          let* p = policy_of_json e.Clib.engine v in
          Ok { e with Clib.engine = p }
      | _ -> Error "unknown field")

(* -- config ------------------------------------------------------------ *)

let config_to_json (c : Synthesize.Config.t) =
  Json.Obj
    [
      ("max_moves", Json.Int c.Synthesize.max_moves);
      ("max_passes", Json.Int c.Synthesize.max_passes);
      ("max_candidates", Json.Int c.Synthesize.max_candidates);
      ("trace_length", Json.Int c.Synthesize.trace_length);
      ("trace_kind", Json.String (trace_kind_to_string c.Synthesize.trace_kind));
      ("seed", Json.Int c.Synthesize.seed);
      ("vdd_candidates", Json.List (List.map (fun v -> Json.Float v) c.Synthesize.vdd_candidates));
      ( "clk_candidates",
        match c.Synthesize.clk_candidates with
        | None -> Json.Null
        | Some l -> Json.List (List.map (fun v -> Json.Float v) l) );
      ("max_clocks", Json.Int c.Synthesize.max_clocks);
      ("enable_resynth", Json.Bool c.Synthesize.enable_resynth);
      ("enable_embed", Json.Bool c.Synthesize.enable_embed);
      ("enable_split", Json.Bool c.Synthesize.enable_split);
      ("enable_rewrite", Json.Bool c.Synthesize.enable_rewrite);
      ("clib", effort_to_json c.Synthesize.clib_effort);
      ("engine", policy_to_json c.Synthesize.engine);
    ]

let config_of_json v =
  let* fields = as_obj "config" v in
  let* c =
    fold_fields "config" fields Synthesize.Config.default
      (fun (c : Synthesize.Config.t) key v ->
        match key with
        | "max_moves" ->
            let* n = as_int v in
            Ok { c with Synthesize.max_moves = n }
        | "max_passes" ->
            let* n = as_int v in
            Ok { c with Synthesize.max_passes = n }
        | "max_candidates" ->
            let* n = as_int v in
            Ok { c with Synthesize.max_candidates = n }
        | "trace_length" ->
            let* n = as_int v in
            Ok { c with Synthesize.trace_length = n }
        | "trace_kind" ->
            let* s = as_string v in
            let* k = trace_kind_of_string s in
            Ok { c with Synthesize.trace_kind = k }
        | "seed" ->
            let* n = as_int v in
            Ok { c with Synthesize.seed = n }
        | "vdd_candidates" ->
            let* l = as_float_list v in
            Ok { c with Synthesize.vdd_candidates = l }
        | "clk_candidates" -> (
            match v with
            | Json.Null -> Ok { c with Synthesize.clk_candidates = None }
            | v ->
                let* l = as_float_list v in
                Ok { c with Synthesize.clk_candidates = Some l })
        | "max_clocks" ->
            let* n = as_int v in
            Ok { c with Synthesize.max_clocks = n }
        | "enable_resynth" ->
            let* b = as_bool v in
            Ok { c with Synthesize.enable_resynth = b }
        | "enable_embed" ->
            let* b = as_bool v in
            Ok { c with Synthesize.enable_embed = b }
        | "enable_split" ->
            let* b = as_bool v in
            Ok { c with Synthesize.enable_split = b }
        | "enable_rewrite" ->
            let* b = as_bool v in
            Ok { c with Synthesize.enable_rewrite = b }
        | "clib" ->
            let* e = effort_of_json c.Synthesize.clib_effort v in
            Ok { c with Synthesize.clib_effort = e }
        | "engine" ->
            let* p = policy_of_json c.Synthesize.engine v in
            Ok { c with Synthesize.engine = p }
        | _ -> Error "unknown field")
  in
  Synthesize.Config.validate c

(* -- budget ------------------------------------------------------------ *)

let budget_to_json (b : Budget.t) =
  let opt name f v = match v with None -> [] | Some x -> [ (name, f x) ] in
  Json.Obj
    (opt "deadline_s" (fun s -> Json.Float s) b.Budget.deadline_s
    @ opt "max_moves" (fun n -> Json.Int n) b.Budget.max_moves
    @ opt "max_passes" (fun n -> Json.Int n) b.Budget.max_passes
    @ opt "max_contexts" (fun n -> Json.Int n) b.Budget.max_contexts)

let budget_of_json v =
  let* fields = as_obj "budget" v in
  let* deadline_s, max_moves, max_passes, max_contexts =
    fold_fields "budget" fields (None, None, None, None) (fun (d, m, p, c) key v ->
        let int_opt v = match v with Json.Null -> Ok None | v -> Result.map Option.some (as_int v) in
        match key with
        | "deadline_s" -> (
            match v with
            | Json.Null -> Ok (None, m, p, c)
            | v ->
                let* s = as_float v in
                Ok (Some s, m, p, c))
        | "max_moves" ->
            let* n = int_opt v in
            Ok (d, n, p, c)
        | "max_passes" ->
            let* n = int_opt v in
            Ok (d, m, n, c)
        | "max_contexts" ->
            let* n = int_opt v in
            Ok (d, m, p, n)
        | _ -> Error "unknown field")
  in
  Budget.make ?deadline_s ?max_moves ?max_passes ?max_contexts ()

(* -- request documents ------------------------------------------------- *)

type source = Bench of string | Program of { text : string; graph : string option }

type timing = Sampling_ns of float | Laxity of float

type doc = {
  source : source;
  objective : Cost.objective;
  timing : timing;
  flatten : bool;
  config : Synthesize.Config.t;
  budget : Budget.t;
  cache : string option;
  tenant : string option;
}

let make_doc ?(objective = Cost.Area) ?(timing = Laxity 2.2) ?(flatten = false)
    ?(config = Synthesize.Config.default) ?(budget = Budget.unlimited) ?cache ?tenant source =
  { source; objective; timing; flatten; config; budget; cache; tenant }

let source_to_json = function
  | Bench name -> Json.Obj [ ("bench", Json.String name) ]
  | Program { text; graph } ->
      Json.Obj
        (("program", Json.String text)
         :: (match graph with None -> [] | Some g -> [ ("graph", Json.String g) ]))

let source_of_json v =
  let* fields = as_obj "source" v in
  let* bench, text, graph =
    fold_fields "source" fields (None, None, None) (fun (bench, text, graph) key v ->
        match key with
        | "bench" ->
            let* s = as_string v in
            Ok (Some s, text, graph)
        | "program" ->
            let* s = as_string v in
            Ok (bench, Some s, graph)
        | "graph" ->
            let* s = as_string v in
            Ok (bench, text, Some s)
        | _ -> Error "unknown field")
  in
  match (bench, text, graph) with
  | Some name, None, None -> Ok (Bench name)
  | None, Some text, graph -> Ok (Program { text; graph })
  | Some _, Some _, _ -> Error "source: give either \"bench\" or \"program\", not both"
  | Some _, None, Some _ -> Error "source: \"graph\" only applies to \"program\" sources"
  | None, None, _ -> Error "source: one of \"bench\" or \"program\" is required"

let timing_to_json = function
  | Sampling_ns ns -> Json.Obj [ ("sampling_ns", Json.Float ns) ]
  | Laxity lf -> Json.Obj [ ("laxity", Json.Float lf) ]

let timing_of_json v =
  let* fields = as_obj "timing" v in
  let* t =
    fold_fields "timing" fields None (fun t key v ->
        match key with
        | "sampling_ns" ->
            let* ns = as_float v in
            if t = None then Ok (Some (Sampling_ns ns)) else Error "give one of sampling_ns/laxity"
        | "laxity" ->
            let* lf = as_float v in
            if t = None then Ok (Some (Laxity lf)) else Error "give one of sampling_ns/laxity"
        | _ -> Error "unknown field")
  in
  match t with
  | Some t -> Ok t
  | None -> Error "timing: one of \"sampling_ns\" or \"laxity\" is required"

let doc_to_json d =
  Json.Obj
    ([
       ("kind", Json.String "hsyn.request");
      ("schema_version", Json.Int schema_version);
       ("source", source_to_json d.source);
       ("objective", Json.String (Cost.objective_name d.objective));
       ("timing", timing_to_json d.timing);
       ("mode", Json.String (if d.flatten then "flat" else "hier"));
       ("config", config_to_json d.config);
       ("budget", budget_to_json d.budget);
     ]
    @ (match d.cache with None -> [] | Some dir -> [ ("cache", Json.String dir) ])
    @ match d.tenant with None -> [] | Some t -> [ ("tenant", Json.String t) ])

let doc_of_json v =
  let* fields = as_obj "request" v in
  let* kind, version, doc =
    fold_fields "request" fields (None, None, make_doc (Bench ""))
      (fun (kind, version, doc) key v ->
        match key with
        | "kind" ->
            let* k = as_string v in
            Ok (Some k, version, doc)
        | "schema_version" ->
            let* n = as_int v in
            Ok (kind, Some n, doc)
        | "source" ->
            let* s = source_of_json v in
            Ok (kind, version, { doc with source = s })
        | "objective" -> (
            let* s = as_string v in
            match Cost.objective_of_string s with
            | Some o -> Ok (kind, version, { doc with objective = o })
            | None -> err "unknown objective %S (expected \"area\" or \"power\")" s)
        | "timing" ->
            let* t = timing_of_json v in
            Ok (kind, version, { doc with timing = t })
        | "mode" -> (
            let* s = as_string v in
            match s with
            | "hier" -> Ok (kind, version, { doc with flatten = false })
            | "flat" -> Ok (kind, version, { doc with flatten = true })
            | _ -> err "unknown mode %S (expected \"hier\" or \"flat\")" s)
        | "config" ->
            let* c = config_of_json v in
            Ok (kind, version, { doc with config = c })
        | "budget" ->
            let* b = budget_of_json v in
            Ok (kind, version, { doc with budget = b })
        | "cache" -> (
            match v with
            | Json.Null -> Ok (kind, version, { doc with cache = None })
            | v ->
                let* dir = as_string v in
                Ok (kind, version, { doc with cache = Some dir }))
        | "tenant" -> (
            match v with
            | Json.Null -> Ok (kind, version, { doc with tenant = None })
            | v ->
                let* t = as_string v in
                if t = "" then Error "tenant must be non-empty"
                else Ok (kind, version, { doc with tenant = Some t }))
        | _ -> Error "unknown field")
  in
  match (kind, version) with
  | None, _ -> Error "request.kind: missing (expected \"hsyn.request\")"
  | Some k, _ when k <> "hsyn.request" -> err "request.kind: expected \"hsyn.request\", got %S" k
  | _, None -> Error "request.schema_version: missing"
  | _, Some n when n <> schema_version ->
      err "request.schema_version: unsupported version %d (this reader speaks %d)" n
        schema_version
  | Some _, Some _ -> (
      match doc.source with
      | Bench "" -> Error "request.source: missing"
      | _ -> Ok doc)

let doc_of_string s =
  match Json.of_string s with Error m -> err "invalid JSON: %s" m | Ok v -> doc_of_json v

(* -- resolution -------------------------------------------------------- *)

let resolve_source ?(resolve_bench = fun _ -> None) source =
  match source with
  | Bench name -> (
      match resolve_bench name with
      | Some (registry, dfg) -> Ok (registry, dfg)
      | None -> err "unknown benchmark %S" name)
  | Program { text; graph } -> (
      match Text.parse_string text with
      | exception Text.Parse_error (line, msg) -> err "program line %d: %s" line msg
      | program -> (
          match Text.select_graph ?name:graph program with
          | Ok g -> Ok (program.Text.registry, g)
          | Error msg -> Error msg))

let to_request ?session ?resolve_bench ~lib doc =
  let* registry, dfg = resolve_source ?resolve_bench doc.source in
  let* sampling_ns =
    match doc.timing with
    | Sampling_ns ns -> Ok ns
    | Laxity lf ->
        if lf <= 0. then err "timing.laxity must be positive (got %g)" lf
        else Ok (lf *. Synthesize.min_sampling_ns lib registry dfg)
  in
  Synthesize.Request.make ~config:doc.config ~budget:doc.budget ~flatten:doc.flatten ?session
    ~lib ~registry ~dfg ~objective:doc.objective ~sampling_ns ()
