type t = Add | Sub | Mult | Lsh | Rsh | Neg | Abs | Min | Max | Lt

let arity = function
  | Neg | Abs -> 1
  | Add | Sub | Mult | Lsh | Rsh | Min | Max | Lt -> 2

let name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mult -> "mult"
  | Lsh -> "lsh"
  | Rsh -> "rsh"
  | Neg -> "neg"
  | Abs -> "abs"
  | Min -> "min"
  | Max -> "max"
  | Lt -> "lt"

let all = [ Add; Sub; Mult; Lsh; Rsh; Neg; Abs; Min; Max; Lt ]

let of_name s = List.find_opt (fun op -> name op = s) all

let signed = Hsyn_util.Bits.to_signed
let wrap = Hsyn_util.Bits.truncate

let bad_arity op = invalid_arg ("Op.eval: arity mismatch for " ^ name op)

let eval1 op a =
  match op with
  | Neg -> wrap (-signed a)
  | Abs -> wrap (abs (signed a))
  | Add | Sub | Mult | Lsh | Rsh | Min | Max | Lt -> bad_arity op

let eval2 op a b =
  match op with
  | Add -> wrap (signed a + signed b)
  | Sub -> wrap (signed a - signed b)
  | Mult -> wrap (signed a * signed b)
  | Lsh -> wrap (signed a lsl Hsyn_util.Bits.shift_amount b)
  | Rsh -> wrap (signed a asr Hsyn_util.Bits.shift_amount b)
  | Min -> wrap (min (signed a) (signed b))
  | Max -> wrap (max (signed a) (signed b))
  | Lt -> if signed a < signed b then 1 else 0
  | Neg | Abs -> bad_arity op

let eval op args =
  match args with
  | [ a ] -> eval1 op a
  | [ a; b ] -> eval2 op a b
  | _ -> bad_arity op

let commutative = function
  | Add | Mult | Min | Max -> true
  | Sub | Lsh | Rsh | Neg | Abs | Lt -> false

let pp fmt op = Format.pp_print_string fmt (name op)
