(** Marshalled values sealed with a digest of their bytes.

    A sealed value is the MD5 digest of its marshalled bytes followed
    by those bytes. Reading checks the digest before unmarshalling, so
    a flipped bit or a torn write in stored state is answered as
    corruption instead of being decoded: [Marshal] on damaged bytes
    can crash the process or yield a wrong value. The digest catches
    accidents, not an attacker, who can recompute it. *)

val output : out_channel -> 'a -> unit
(** Write the seal and the marshalled value. *)

val input : in_channel -> 'a option
(** Read the rest of the channel as one sealed value; [None] when the
    digest does not match the bytes. As with [Marshal], the caller
    names the type: the file's own header (magic and schema version)
    must identify it.
    @raise End_of_file if the channel ends inside the seal. *)
