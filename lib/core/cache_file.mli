(** On-disk snapshot format for the session cost cache.

    A cache {e directory} holds one content-addressed file per module
    library: [hsyn-cache-<digest>.bin], where the digest identifies the
    library by content (libraries are compared physically inside a
    process; across processes only content identity exists). Each file
    carries a magic string and a schema version, like {!Checkpoint},
    and is written atomically (temp file + rename), so readers never
    observe a torn snapshot.

    This module only moves bytes; {!Session.save} and
    {!Session.load_into} translate between live cache tables and the
    [payload] below. The payload is sealed with a digest of its bytes
    ({!Hsyn_util.Sealed}), checked before it is unmarshalled. Every
    failure mode short of a clean read — missing magic, unsupported
    schema version, truncation, library or payload digest mismatch — is
    an [Error _] result, never an exception: callers degrade to a cold
    start with a warning. *)

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched

type saved_entry = {
  se_fp : int64;  (** structural fingerprint key *)
  se_design : Design.t;  (** for collision verification on reload *)
  se_full : bool;  (** power simulation included? *)
  se_eval : Cost.eval;
}

type saved_context = {
  sc_vdd : Hsyn_modlib.Voltage.t;
  sc_clk_ns : float;
  sc_cs : Sched.constraints;
  sc_sampling_ns : float;
  sc_trace : int array list;
  sc_entries : saved_entry list;
}
(** One evaluation-context partition — {!Session}'s context key minus
    the library, which the enclosing file identifies by digest. *)

type payload = saved_context list

val magic : string
val schema_version : int

val lib_digest : Hsyn_modlib.Library.t -> string
(** Content digest (hex) of a library — the on-disk partition key. *)

val file_name : lib_digest:string -> string
val file_path : dir:string -> lib_digest:string -> string

val save : dir:string -> lib_digest:string -> payload -> (unit, string) result
(** Write atomically, creating [dir] if missing. *)

val load : dir:string -> lib_digest:string -> (payload option, string) result
(** [Ok None] when no file exists for this library (a cold start);
    [Error _] for any unreadable or mismatched file. *)
