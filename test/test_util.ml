(* Unit and property tests for the hsyn_util support library. *)

module Rng = Hsyn_util.Rng
module Pqueue = Hsyn_util.Pqueue
module Bits = Hsyn_util.Bits
module Union_find = Hsyn_util.Union_find
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
(* Pqueue *)

let test_pqueue_ordering () =
  let q = Pqueue.of_list [ (5, "e"); (1, "a"); (3, "c"); (2, "b"); (4, "d") ] in
  let order = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list Alcotest.string) "sorted" [ "a"; "b"; "c"; "d"; "e" ] (List.rev !order)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.add q ~key:1 "first";
  Pqueue.add q ~key:1 "second";
  Pqueue.add q ~key:1 "third";
  let pop () = match Pqueue.pop q with Some (_, v) -> v | None -> "?" in
  check Alcotest.string "tie order 1" "first" (pop ());
  check Alcotest.string "tie order 2" "second" (pop ());
  check Alcotest.string "tie order 3" "third" (pop ())

let test_pqueue_peek_and_length () =
  let q = Pqueue.create () in
  checkb "empty" true (Pqueue.is_empty q);
  Pqueue.add q ~key:2 "x";
  Pqueue.add q ~key:1 "y";
  checki "length" 2 (Pqueue.length q);
  (match Pqueue.peek q with
  | Some (k, v) ->
      checki "peek key" 1 k;
      check Alcotest.string "peek value" "y" v
  | None -> Alcotest.fail "expected peek");
  checki "peek does not remove" 2 (Pqueue.length q)

let test_pqueue_clear () =
  let q = Pqueue.of_list [ (1, ()); (2, ()) ] in
  Pqueue.clear q;
  checkb "cleared" true (Pqueue.is_empty q)

let test_pqueue_to_sorted_list () =
  let q = Pqueue.of_list [ (3, "c"); (1, "a"); (2, "b") ] in
  let l = Pqueue.to_sorted_list q in
  check (Alcotest.list Alcotest.string) "sorted copy" [ "a"; "b"; "c" ] (List.map snd l);
  checki "queue unchanged" 3 (Pqueue.length q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue pops keys in nondecreasing order" ~count:200
    QCheck.(list (pair small_int unit))
    (fun items ->
      let q = Pqueue.of_list items in
      let keys = List.map fst (Pqueue.to_sorted_list q) in
      List.sort compare keys = keys)

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
  checki "wraps to word" 0 (Bits.hamming 0x10000 0)

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
(* Union_find *)

let test_uf_basic () =
  let uf = Union_find.create 5 in
  checkb "initially separate" false (Union_find.same uf 0 1);
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  checkb "joined" true (Union_find.same uf 0 1);
  checkb "separate" false (Union_find.same uf 1 2);
  Union_find.union uf 1 2;
  checkb "transitive" true (Union_find.same uf 0 3)

let test_uf_classes () =
  let uf = Union_find.create 4 in
  Union_find.union uf 0 2;
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "classes" [ [ 0; 2 ]; [ 1 ]; [ 3 ] ] (Union_find.classes uf)

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
      ( "pqueue",
        [
          tc "ordering" test_pqueue_ordering;
          tc "fifo ties" test_pqueue_fifo_ties;
          tc "peek and length" test_pqueue_peek_and_length;
          tc "clear" test_pqueue_clear;
          tc "to_sorted_list" test_pqueue_to_sorted_list;
          QCheck_alcotest.to_alcotest prop_pqueue_sorts;
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
      ( "union_find",
        [ tc "basic" test_uf_basic; tc "classes" test_uf_classes ] );
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
