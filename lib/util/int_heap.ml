(* Binary min-heap in an int array. Sifting moves a hole instead of
   swapping, and the helpers are top-level functions so no closure is
   built per call. *)

type t = { mutable data : int array; mutable size : int }

let create n = { data = Array.make (max 1 n) 0; size = 0 }
let length h = h.size
let is_empty h = h.size = 0
let clear h = h.size <- 0

let rec sift_up (a : int array) x i =
  if i = 0 then a.(0) <- x
  else
    let parent = (i - 1) / 2 in
    let pv = a.(parent) in
    if pv > x then begin
      a.(i) <- pv;
      sift_up a x parent
    end
    else a.(i) <- x

let rec sift_down (a : int array) n x i =
  let l = (2 * i) + 1 in
  if l >= n then a.(i) <- x
  else
    let r = l + 1 in
    let c = if r < n && a.(r) < a.(l) then r else l in
    let cv = a.(c) in
    if cv < x then begin
      a.(i) <- cv;
      sift_down a n x c
    end
    else a.(i) <- x

let push h x =
  if h.size = Array.length h.data then begin
    let data = Array.make (2 * h.size) 0 in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end;
  sift_up h.data x h.size;
  h.size <- h.size + 1

let top h =
  if h.size = 0 then invalid_arg "Int_heap.top: empty heap";
  h.data.(0)

let pop h =
  if h.size = 0 then invalid_arg "Int_heap.pop: empty heap";
  let a = h.data in
  let min = a.(0) in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then sift_down a n a.(n) 0;
  min
