(* Statistics used by the benchmark and by compare.exe, beside the
   median, percentile and geometric mean of Hsyn_util.Stats. *)

(* Python's [statistics.quantiles(values, n=4)] (the default
   "exclusive" method), so the spreads this tool prints are the ones a
   reader recomputes from the raw numbers with Python. *)
let quartiles values =
  let data = Array.of_list (List.sort compare values) in
  let ld = Array.length data in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (data.(0), data.(0), data.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = min (ld - 1) (max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((data.(j - 1) *. Float.of_int (4 - delta)) +. (data.(j) *. Float.of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread values =
  let q1, q2, q3 = quartiles values in
  if q2 = 0. then if q3 -. q1 = 0. then 0. else infinity else (q3 -. q1) /. Float.abs q2

let ladder = [ 50.; 75.; 90.; 95.; 99.; 99.9 ]

(* The highest percentile of [ladder] with at least ten of [n] samples
   beyond it, or [None] when even the median has fewer. *)
let tail_percentile n =
  List.fold_left
    (fun acc p -> if Float.of_int n *. (1. -. (p /. 100.)) >= 10. -. 1e-9 then Some p else acc)
    None ladder

(* The fewest samples for which [tail_percentile] reaches [p]. *)
let samples_for p = int_of_float (Float.ceil ((10. -. 1e-9) /. (1. -. (p /. 100.))))
