module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched

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
   Bump on any change to the Marshal layout of [payload] (so
   [Cost.eval], [Design.t] and [Sched.constraints] changes all
   count). *)
let schema_version = 2

let lib_digest (lib : Hsyn_modlib.Library.t) =
  Digest.to_hex (Digest.string (Marshal.to_string lib []))

let file_name ~lib_digest = Printf.sprintf "hsyn-cache-%s.bin" lib_digest
let file_path ~dir ~lib_digest = Filename.concat dir (file_name ~lib_digest)

let save ~dir ~lib_digest (p : payload) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = file_path ~dir ~lib_digest in
  let tmp = file ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_binary_int oc schema_version;
      output_binary_int oc (String.length lib_digest);
      output_string oc lib_digest;
      Hsyn_util.Sealed.output oc p);
  Sys.rename tmp file

let save ~dir ~lib_digest p =
  try Ok (save ~dir ~lib_digest p) with
  | Sys_error msg -> Error msg
  | Failure msg -> Error msg

(* [Ok None] means "no cache file for this library" — a cold start, not
   an error. Anything unreadable (bad magic, unsupported schema
   version, truncation, library or payload digest mismatch) is
   reported as [Error], which callers treat as a warning and skip. *)
let load ~dir ~lib_digest:dg =
  let file = file_path ~dir ~lib_digest:dg in
  if not (Sys.file_exists file) then Ok None
  else
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let m = really_input_string ic (String.length magic) in
        if m <> magic then Error (Printf.sprintf "%s is not an hsyn cache file" file)
        else
          let v = input_binary_int ic in
          if v <> schema_version then
            Error
              (Printf.sprintf "cache file schema version %d unsupported (expected %d)" v
                 schema_version)
          else
            let n = input_binary_int ic in
            if n < 0 || n > 1024 then Error (Printf.sprintf "cache file %s is corrupt" file)
            else
              let d = really_input_string ic n in
              if d <> dg then
                Error (Printf.sprintf "cache file %s is for a different library" file)
              else
                match (Hsyn_util.Sealed.input ic : payload option) with
                | Some p -> Ok (Some p)
                | None ->
                    Error (Printf.sprintf "cache file %s is corrupt (payload digest mismatch)" file))

let load ~dir ~lib_digest =
  try load ~dir ~lib_digest with
  | End_of_file -> Error (Printf.sprintf "cache file under %s is truncated" dir)
  | Sys_error msg -> Error msg
  | Failure msg -> Error (Printf.sprintf "cache file under %s is corrupt: %s" dir msg)
