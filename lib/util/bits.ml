let word_width = 16

let mask w = (1 lsl w) - 1

let truncate v = v land mask word_width

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

(* Branch-free SWAR popcount of a 16-bit word: pairs, nibbles, bytes,
   then the two byte counts. [hamming] is the inner loop of the power
   model, so it must not loop over bits. *)
let popcount16 x =
  let x = x - ((x lsr 1) land 0x5555) in
  let x = (x land 0x3333) + ((x lsr 2) land 0x3333) in
  let x = (x + (x lsr 4)) land 0x0f0f in
  (x + (x lsr 8)) land 0x1f

let hamming a b = popcount16 (truncate (a lxor b))

let shift_amount v = truncate v land (word_width - 1)

let to_signed v =
  let v = truncate v in
  if v land (1 lsl (word_width - 1)) <> 0 then v - (1 lsl word_width) else v

let activity = function
  | [] | [ _ ] -> 0.
  | first :: rest ->
      let transitions = ref 0 and total = ref 0 in
      let prev = ref first in
      let step v =
        total := !total + hamming !prev v;
        incr transitions;
        prev := v
      in
      List.iter step rest;
      Float.of_int !total /. Float.of_int (!transitions * word_width)
