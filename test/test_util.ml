(* Unit and property tests for the hsyn_util support library. *)

module Rng = Hsyn_util.Rng
module Int_heap = Hsyn_util.Int_heap
module Bits = Hsyn_util.Bits
module Stats = Hsyn_util.Stats
module Table = Hsyn_util.Table
module Vec = Hsyn_util.Vec

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf msg = check (Alcotest.float 1e-9) msg

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 50 do
    checkb "same stream" true (Rng.int64 a = Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  checkb "different seeds differ" false (Rng.int64 a = Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 13 in
    checkb "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_rejects_bad_bound () =
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create 1) 0))

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    checkb "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_copy_independent () =
  let a = Rng.create 9 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  checkb "copy continues identically" true (Rng.int64 a = Rng.int64 b)

let test_rng_gaussian_moments () =
  let rng = Rng.create 5 in
  let n = 4000 in
  let samples = List.init n (fun _ -> Rng.gaussian rng) in
  let m = Stats.mean samples in
  let sd = Stats.stddev samples in
  checkb "mean near 0" true (Float.abs m < 0.1);
  checkb "stddev near 1" true (Float.abs (sd -. 1.0) < 0.1)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 2 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  checkb "permutation" true (sorted = Array.init 20 Fun.id)

let test_rng_pick () =
  let rng = Rng.create 8 in
  for _ = 1 to 100 do
    checkb "member" true (List.mem (Rng.pick rng [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick rng []))

(* ------------------------------------------------------------------ *)
(* Int_heap *)

let drain h =
  let acc = ref [] in
  while not (Int_heap.is_empty h) do
    acc := Int_heap.pop h :: !acc
  done;
  List.rev !acc

let heap_of_list l =
  let h = Int_heap.create 1 in
  List.iter (Int_heap.push h) l;
  h

let test_heap_ordering () =
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3; 4; 5 ]
    (drain (heap_of_list [ 5; 1; 3; 2; 4 ]))

let test_heap_top_and_length () =
  let h = Int_heap.create 4 in
  checkb "empty" true (Int_heap.is_empty h);
  Int_heap.push h 2;
  Int_heap.push h 1;
  checki "length" 2 (Int_heap.length h);
  checki "top" 1 (Int_heap.top h);
  checki "top does not remove" 2 (Int_heap.length h);
  Alcotest.check_raises "pop of empty" (Invalid_argument "Int_heap.pop: empty heap") (fun () ->
      ignore (Int_heap.pop (Int_heap.create 1)))

let test_heap_clear () =
  let h = heap_of_list [ 1; 2 ] in
  Int_heap.clear h;
  checkb "cleared" true (Int_heap.is_empty h);
  Int_heap.push h 7;
  checki "usable after clear" 7 (Int_heap.pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"drain equals List.sort of pushes" ~count:300
    QCheck.(list (int_range (-50) 50))
    (fun items -> drain (heap_of_list items) = List.sort compare items)

(* the scheduler interleaves pushes and pops: each pop must return the
   minimum of what is in the heap at that moment *)
let prop_heap_model =
  QCheck.Test.make ~name:"interleaved ops match a sorted list" ~count:300
    QCheck.(list_of_size Gen.(int_bound 200) (option (int_range (-50) 50)))
    (fun ops ->
      let h = Int_heap.create 1 in
      let model = ref [] in
      List.for_all
        (function
          | Some x ->
              Int_heap.push h x;
              model := List.merge compare [ x ] !model;
              true
          | None -> (
              match !model with
              | [] -> Int_heap.is_empty h
              | m :: rest ->
                  model := rest;
                  Int_heap.pop h = m))
        ops
      && Int_heap.length h = List.length !model)

(* ------------------------------------------------------------------ *)
(* Bits *)

let test_bits_popcount () =
  checki "0" 0 (Bits.popcount 0);
  checki "1" 1 (Bits.popcount 1);
  checki "0xff" 8 (Bits.popcount 0xff);
  checki "0b1010" 2 (Bits.popcount 0b1010)

let test_bits_hamming () =
  checki "equal" 0 (Bits.hamming 0x1234 0x1234);
  checki "one bit" 1 (Bits.hamming 0 1);
  checki "all 16 bits" 16 (Bits.hamming 0 0xffff);
  checki "wraps to word" 0 (Bits.hamming 0x10000 0);
  (* the SWAR popcount must agree with the bit count of the truncated
     difference on every kind of operand: full and top-bit words,
     negative ints (two's complement), values wider than a word *)
  List.iter
    (fun (a, b) ->
      checki
        (Printf.sprintf "hamming %d %d" a b)
        (Bits.popcount (Bits.truncate (a lxor b)))
        (Bits.hamming a b))
    [
      (0, 0xffff);
      (0xffff, 0);
      (0, 0x8000);
      (0x8000, 0x7fff);
      (0, -1);
      (-1, 0xffff);
      (-32768, 0x8000);
      (-2, 3);
      (min_int, max_int);
      (0x1_0000, 0x1_ffff);
      (0x12_3456, 0xab_cdef);
      (1 lsl 40, (1 lsl 40) lor 0x5555);
      (max_int, 0);
    ]

let test_bits_signed () =
  checki "positive" 5 (Bits.to_signed 5);
  checki "negative" (-1) (Bits.to_signed 0xffff);
  checki "min" (-32768) (Bits.to_signed 0x8000)

let test_bits_activity () =
  checkf "constant stream" 0.0 (Bits.activity [ 7; 7; 7 ]);
  checkf "empty" 0.0 (Bits.activity []);
  checkf "single" 0.0 (Bits.activity [ 3 ]);
  (* 0 -> 0xffff flips all 16 bits: activity 1.0 per transition *)
  checkf "full flip" 1.0 (Bits.activity [ 0; 0xffff ])

let prop_bits_hamming_symmetric =
  QCheck.Test.make ~name:"hamming symmetric" ~count:500
    QCheck.(pair (int_bound 0xffff) (int_bound 0xffff))
    (fun (a, b) -> Bits.hamming a b = Bits.hamming b a)

let prop_bits_hamming_triangle =
  QCheck.Test.make ~name:"hamming triangle inequality" ~count:500
    QCheck.(triple (int_bound 0xffff) (int_bound 0xffff) (int_bound 0xffff))
    (fun (a, b, c) -> Bits.hamming a c <= Bits.hamming a b + Bits.hamming b c)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean () =
  checkf "mean" 2.0 (Stats.mean [ 1.; 2.; 3. ]);
  checkf "empty" 0.0 (Stats.mean [])

let test_stats_geomean () =
  checkf "geomean" 2.0 (Stats.geomean [ 1.; 2.; 4. ]);
  checkf "ignores nonpositive" 2.0 (Stats.geomean [ 1.; 2.; 4.; 0.; -3. ])

let test_stats_minmax () =
  checkf "min" 1.0 (Stats.minimum [ 3.; 1.; 2. ]);
  checkf "max" 3.0 (Stats.maximum [ 3.; 1.; 2. ])

let test_stats_ratio () =
  checkf "ratio" 0.5 (Stats.ratio 1. 2.);
  checkf "div by zero" 0.0 (Stats.ratio 1. 0.)

let test_stats_round () =
  checkf "round" 1.23 (Stats.round_to 2 1.23456)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_renders () =
  let t = Table.create ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_rule t;
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  checkb "contains header" true (String.length s > 0);
  checkb "alpha present" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 && String.index_opt l 'a' <> None))

let test_table_ragged_rows () =
  let t = Table.create ~header:[ "a" ] in
  Table.add_row t [ "1"; "2"; "3" ];
  let s = Table.render t in
  checkb "renders ragged" true (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_push_get () =
  let v = Vec.create () in
  checki "idx 0" 0 (Vec.push v "a");
  checki "idx 1" 1 (Vec.push v "b");
  check Alcotest.string "get" "b" (Vec.get v 1);
  Vec.set v 0 "z";
  check Alcotest.string "set" "z" (Vec.get v 0);
  checki "length" 2 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.create () in
  ignore (Vec.push v 1);
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index 1 out of bounds (size 1)") (fun () ->
      ignore (Vec.get v 1))

let test_vec_conversions () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  check (Alcotest.list Alcotest.int) "to_list" [ 1; 2; 3 ] (Vec.to_list v);
  checkb "to_array" true (Vec.to_array v = [| 1; 2; 3 |])

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_array/to_array roundtrip" ~count:200
    QCheck.(array small_int)
    (fun a -> Vec.to_array (Vec.of_array a) = a)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "util"
    [
      ( "rng",
        [
          tc "determinism" test_rng_determinism;
          tc "seed sensitivity" test_rng_seed_sensitivity;
          tc "int bounds" test_rng_int_bounds;
          tc "int rejects bad bound" test_rng_int_rejects_bad_bound;
          tc "float range" test_rng_float_range;
          tc "copy independent" test_rng_copy_independent;
          tc "gaussian moments" test_rng_gaussian_moments;
          tc "shuffle permutes" test_rng_shuffle_permutes;
          tc "pick" test_rng_pick;
        ] );
      ( "int_heap",
        [
          tc "ordering" test_heap_ordering;
          tc "top and length" test_heap_top_and_length;
          tc "clear" test_heap_clear;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_model;
        ] );
      ( "bits",
        [
          tc "popcount" test_bits_popcount;
          tc "hamming" test_bits_hamming;
          tc "signed" test_bits_signed;
          tc "activity" test_bits_activity;
          QCheck_alcotest.to_alcotest prop_bits_hamming_symmetric;
          QCheck_alcotest.to_alcotest prop_bits_hamming_triangle;
        ] );
      ( "stats",
        [
          tc "mean" test_stats_mean;
          tc "geomean" test_stats_geomean;
          tc "minmax" test_stats_minmax;
          tc "ratio" test_stats_ratio;
          tc "round" test_stats_round;
        ] );
      ( "table",
        [ tc "renders" test_table_renders; tc "ragged rows" test_table_ragged_rows ] );
      ( "vec",
        [
          tc "push/get" test_vec_push_get;
          tc "bounds" test_vec_bounds;
          tc "conversions" test_vec_conversions;
          QCheck_alcotest.to_alcotest prop_vec_roundtrip;
        ] );
    ]
