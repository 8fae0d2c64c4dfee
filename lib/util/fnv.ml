type t = Bytes.t

let prime = 0x100000001b3L
let offset = 0xcbf29ce484222325L

(* Each function loads the state into a local [int64] that no closure
   captures, mixes in plain loops and stores it back, so the native
   compiler keeps the state unboxed. *)
external load : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external store : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] step h i = Int64.mul (Int64.logxor h (Int64.of_int i)) prime

let create () =
  let st = Bytes.create 8 in
  store st 0 offset;
  st

let string st s =
  let h = ref (step (load st 0) (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := step !h (Char.code (String.unsafe_get s i))
  done;
  store st 0 !h

let ints st (a : int array) =
  let h = ref (load st 0) in
  for i = 0 to Array.length a - 1 do
    h := step !h a.(i)
  done;
  store st 0 !h
