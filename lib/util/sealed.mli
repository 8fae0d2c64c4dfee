(** Sealed files: marshalled values behind a magic string and a schema
    version, sealed with a digest of their bytes.

    A sealed file is the magic string, the schema version
    ([output_binary_int]), an optional caller-defined header, then the
    MD5 digest of the marshalled value followed by those bytes.
    Reading checks the digest before unmarshalling, so a flipped bit or
    a torn write in stored state is answered as corruption instead of
    being decoded: [Marshal] on damaged bytes can crash the process or
    yield a wrong value. The digest catches accidents, not an
    attacker, who can recompute it. *)

type error =
  | Foreign  (** the file does not start with the magic string *)
  | Version of int  (** the file's schema version, which is not the expected one *)
  | Header of string  (** the header reader's message *)
  | Corrupt  (** the payload does not match its digest *)
  | Truncated  (** the file ends early ([End_of_file]) *)
  | Io of string  (** a [Sys_error], with its message *)
  | Failed of string  (** a [Failure], with its message *)

val write :
  string -> magic:string -> version:int -> ?header:(out_channel -> unit) -> 'a -> unit
(** [write path ~magic ~version ?header v] writes [path ^ ".tmp"] and
    renames it to [path], so a reader never sees a torn file.
    [header] writes the caller's fields after the version.
    @raise Sys_error on I/O failure. *)

val read :
  string ->
  magic:string ->
  version:int ->
  ?header:(in_channel -> (unit, string) result) ->
  unit ->
  ('a, error) result
(** Read a file written by {!write} with the same [magic] and
    [version]; [header] reads and checks the caller's fields. The
    exceptions a missing or damaged file raises ([End_of_file],
    [Sys_error], [Failure]) are answered as [Error]. As with [Marshal],
    the caller names the type: the magic and the version must identify
    it. *)
