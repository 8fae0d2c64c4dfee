type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* splitmix64 step: advance state by the golden gamma, then mix. *)
let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let bits t n =
  assert (n >= 0 && n <= 62);
  if n = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (int64 t) (64 - n)) land ((1 lsl n) - 1)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over a power-of-two envelope to avoid modulo bias. *)
  let rec width w = if 1 lsl w >= bound then w else width (w + 1) in
  let w = width 1 in
  let rec draw () =
    let v = bits t w in
    if v < bound then v else draw ()
  in
  draw ()

let float t =
  (* 53 random bits scaled into [0, 1). *)
  let hi = bits t 27 and lo = bits t 26 in
  (Float.of_int hi *. 67108864.0 +. Float.of_int lo) *. (1.0 /. 9007199254740992.0)

let gaussian t =
  let rec loop () =
    let u = (2.0 *. float t) -. 1.0 and v = (2.0 *. float t) -. 1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || s = 0.0 then loop ()
    else u *. sqrt (-2.0 *. log s /. s)
  in
  loop ()

let bool t = bits t 1 = 1

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let split t = { state = int64 t }

(* 64-bit FNV-1a: a fixed string hash, unlike [Hashtbl.hash], whose
   value is not promised across OCaml releases. *)
let fnv1a label =
  String.fold_left
    (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001B3L)
    0xCBF29CE484222325L label

let derive t label = { state = mix (Int64.logxor t.state (fnv1a label)) }
