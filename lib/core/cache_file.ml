module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Sealed = Hsyn_util.Sealed

(* One persisted cost-cache entry. The design is stored alongside the
   fingerprint so a reloaded entry keeps the collision guarantee of the
   in-memory cache: [Session.cost_find] verifies structural equality on
   every hit, so a colliding (or tampered) entry falls through to
   recomputation instead of producing a wrong eval. *)
type saved_entry = {
  se_fp : int64;
  se_design : Design.t;
  se_full : bool;  (** [Full] (power simulated) vs [Partial] entry state *)
  se_eval : Cost.eval;
}

(* A persisted evaluation context: everything in [Session.ctx_key]
   except the library, which is identified by the file's content digest
   (libraries are compared physically in memory; physical identity does
   not survive a process boundary, so on disk the partition key is the
   digest of the marshaled library). *)
type saved_context = {
  sc_vdd : Hsyn_modlib.Voltage.t;
  sc_clk_ns : float;
  sc_cs : Sched.constraints;
  sc_sampling_ns : float;
  sc_trace : int array list;
  sc_entries : saved_entry list;
}

type payload = saved_context list

let magic = "HSYN-CACHE"

(* v1: initial format — header is magic, schema version, library
   digest (length-prefixed hex), then the marshaled [payload].
   v2: the payload is sealed ([Hsyn_util.Sealed]) with a digest of its
   bytes, checked before unmarshalling.
   v3: Dfg.t (in each saved design) gained [index], the tables
   Builder.finish builds once per graph.
   Bump on any change to the Marshal layout of [payload] (so
   [Cost.eval], [Design.t] and [Sched.constraints] changes all
   count). *)
let schema_version = 3

let lib_digest (lib : Hsyn_modlib.Library.t) =
  Digest.to_hex (Digest.string (Marshal.to_string lib []))

let file_name ~lib_digest = Printf.sprintf "hsyn-cache-%s.bin" lib_digest
let file_path ~dir ~lib_digest = Filename.concat dir (file_name ~lib_digest)

let save ~dir ~lib_digest (p : payload) =
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Ok
      (Sealed.write (file_path ~dir ~lib_digest) ~magic ~version:schema_version
         ~header:(fun oc ->
           output_binary_int oc (String.length lib_digest);
           output_string oc lib_digest)
         p)
  with Sys_error msg | Failure msg -> Error msg

(* [Ok None] means "no cache file for this library" — a cold start, not
   an error. Anything unreadable (bad magic, unsupported schema
   version, truncation, library or payload digest mismatch) is
   reported as [Error], which callers treat as a warning and skip. *)
let load ~dir ~lib_digest:dg =
  let file = file_path ~dir ~lib_digest:dg in
  let header ic =
    let n = input_binary_int ic in
    if n < 0 || n > 1024 then Error (Printf.sprintf "cache file %s is corrupt" file)
    else if really_input_string ic n <> dg then
      Error (Printf.sprintf "cache file %s is for a different library" file)
    else Ok ()
  in
  if not (Sys.file_exists file) then Ok None
  else
    (Sealed.read file ~magic ~version:schema_version ~header () : (payload, _) result)
    |> Result.map Option.some
    |> Result.map_error (function
         | Sealed.Foreign -> Printf.sprintf "%s is not an hsyn cache file" file
         | Version v ->
             Printf.sprintf "cache file schema version %d unsupported (expected %d)" v
               schema_version
         | Corrupt -> Printf.sprintf "cache file %s is corrupt (payload digest mismatch)" file
         | Truncated -> Printf.sprintf "cache file under %s is truncated" dir
         | Header msg | Io msg -> msg
         | Failed msg -> Printf.sprintf "cache file under %s is corrupt: %s" dir msg)
