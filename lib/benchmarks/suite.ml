module Registry = Hsyn_dfg.Registry
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module B = Hsyn_dfg.Dfg.Builder

type t = {
  name : string;
  description : string;
  registry : Registry.t;
  dfg : Dfg.t;
}

(* ------------------------------------------------------------------ *)
(* paulin: flat differential-equation solver with top-level state *)

let paulin () =
  let registry = Registry.create () in
  let b = B.create "paulin" in
  let dx = B.input b "dx" in
  let three = B.const b ~label:"k3" 3 in
  let x, feed_x = B.delay_feed b ~label:"zx" ~init:1 () in
  let y, feed_y = B.delay_feed b ~label:"zy" ~init:1 () in
  let u, feed_u = B.delay_feed b ~label:"zu" ~init:2 () in
  let x' = B.op b Op.Add [ x; dx ] in
  let xu = B.op b Op.Mult [ x; u ] in
  let xud = B.op b Op.Mult [ xu; dx ] in
  let t1 = B.op b Op.Mult [ three; xud ] in
  let yd = B.op b Op.Mult [ y; dx ] in
  let t2 = B.op b Op.Mult [ three; yd ] in
  let u1 = B.op b Op.Sub [ u; t1 ] in
  let u' = B.op b Op.Sub [ u1; t2 ] in
  let ud = B.op b Op.Mult [ u; dx ] in
  let y' = B.op b Op.Add [ y; ud ] in
  feed_x x';
  feed_y y';
  feed_u u';
  B.output b ~label:"yout" y';
  {
    name = "paulin";
    description = "HAL differential-equation solver (flat)";
    registry;
    dfg = B.finish b;
  }

(* ------------------------------------------------------------------ *)
(* hier_paulin: two unrolled iterations, each a hierarchical node *)

let hier_paulin () =
  let registry = Registry.create () in
  Blocks.paulin_body registry;
  let b = B.create "hier_paulin" in
  let dx = B.input b "dx" in
  let x, feed_x = B.delay_feed b ~label:"zx" ~init:1 () in
  let y, feed_y = B.delay_feed b ~label:"zy" ~init:1 () in
  let u, feed_u = B.delay_feed b ~label:"zu" ~init:2 () in
  let it1 = B.call b ~label:"it1" ~behavior:"paulin_body" ~n_out:3 [ x; y; u; dx ] in
  let it2 =
    B.call b ~label:"it2" ~behavior:"paulin_body" ~n_out:3 [ it1.(0); it1.(1); it1.(2); dx ]
  in
  feed_x it2.(0);
  feed_y it2.(1);
  feed_u it2.(2);
  B.output b ~label:"yout" it2.(1);
  {
    name = "hier_paulin";
    description = "Paulin unrolled twice (hierarchical nodes per iteration)";
    registry;
    dfg = B.finish b;
  }

(* ------------------------------------------------------------------ *)
(* dct: 8-point DCT over butterflies and rotators *)

let dct () =
  let registry = Registry.create () in
  Blocks.butterfly registry;
  Blocks.rot registry;
  let b = B.create "dct" in
  let x = Array.init 8 (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let bf label p q = B.call b ~label ~behavior:"butterfly" ~n_out:2 [ p; q ] in
  let rot label p q c s = B.call b ~label ~behavior:"rot" ~n_out:2 [ p; q; c; s ] in
  (* stage 1 *)
  let b0 = bf "bf0" x.(0) x.(7) in
  let b1 = bf "bf1" x.(1) x.(6) in
  let b2 = bf "bf2" x.(2) x.(5) in
  let b3 = bf "bf3" x.(3) x.(4) in
  (* even half *)
  let b4 = bf "bf4" b0.(0) b3.(0) in
  let b5 = bf "bf5" b1.(0) b2.(0) in
  let b6 = bf "bf6" b4.(0) b5.(0) in
  let c6 = B.const b ~label:"c6" 3 and s6 = B.const b ~label:"s6" 7 in
  let r0 = rot "rot0" b4.(1) b5.(1) c6 s6 in
  (* odd half *)
  let c3 = B.const b ~label:"c3" 6 and s3 = B.const b ~label:"s3" 4 in
  let c1 = B.const b ~label:"c1" 7 and s1 = B.const b ~label:"s1" 2 in
  let r1 = rot "rot1" b0.(1) b3.(1) c3 s3 in
  let r2 = rot "rot2" b1.(1) b2.(1) c1 s1 in
  let b7 = bf "bf7" r1.(0) r2.(0) in
  let b8 = bf "bf8" r1.(1) r2.(1) in
  let sq2 = B.const b ~label:"sq2" 5 in
  B.output b ~label:"X0" b6.(0);
  B.output b ~label:"X4" b6.(1);
  B.output b ~label:"X2" r0.(0);
  B.output b ~label:"X6" r0.(1);
  B.output b ~label:"X1" b7.(0);
  B.output b ~label:"X3" (B.op b ~label:"sc3" Op.Mult [ sq2; b7.(1) ]);
  B.output b ~label:"X5" (B.op b ~label:"sc5" Op.Mult [ sq2; b8.(0) ]);
  B.output b ~label:"X7" b8.(1);
  {
    name = "dct";
    description = "8-point DCT (butterfly/rotator hierarchy)";
    registry;
    dfg = B.finish b;
  }

(* ------------------------------------------------------------------ *)
(* iir: cascade of biquads with per-stage coefficients *)

let biquad_stage b ~label x coeffs =
  (* coeffs = (a1, a2, b0, b1, b2) as ports; returns stage output y *)
  let a1, a2, b0, b1, b2 = coeffs in
  let s1, feed_s1 = B.delay_feed b ~label:(label ^ "_s1") () in
  let s2 = B.delay b ~label:(label ^ "_s2") s1 in
  let outs = B.call b ~label ~behavior:"biquad" ~n_out:2 [ x; s1; s2; a1; a2; b0; b1; b2 ] in
  feed_s1 outs.(1);
  outs.(0)

let iir_coeffs b tag (ca1, ca2, cb0, cb1, cb2) =
  ( B.const b ~label:(tag ^ "a1") ca1,
    B.const b ~label:(tag ^ "a2") ca2,
    B.const b ~label:(tag ^ "b0") cb0,
    B.const b ~label:(tag ^ "b1") cb1,
    B.const b ~label:(tag ^ "b2") cb2 )

let iir () =
  let registry = Registry.create () in
  Blocks.biquad registry;
  let b = B.create "iir" in
  let x = B.input b "x" in
  let stages = [ (1, 2, 3, 1, 2); (2, 1, 2, 3, 1); (1, 3, 1, 2, 2); (3, 1, 2, 1, 3) ] in
  let y =
    List.fold_left
      (fun acc (i, coeffs) ->
        biquad_stage b ~label:(Printf.sprintf "bq%d" i) acc (iir_coeffs b (Printf.sprintf "q%d" i) coeffs))
      x
      (List.mapi (fun i c -> (i, c)) stages)
  in
  B.output b ~label:"y" y;
  {
    name = "iir";
    description = "cascade IIR filter, four biquad sections";
    registry;
    dfg = B.finish b;
  }

(* ------------------------------------------------------------------ *)
(* lat: normalized lattice filter, five stages *)

let lat () =
  let registry = Registry.create () in
  Blocks.lattice_stage registry;
  let b = B.create "lat" in
  let x0 = B.input b "x" in
  let ks = [ 3; 5; 2; 6; 4 ] in
  let x_final =
    List.fold_left
      (fun x (i, kv) ->
        let k = B.const b ~label:(Printf.sprintf "k%d" i) kv in
        let g, feed_g = B.delay_feed b ~label:(Printf.sprintf "g%d" i) () in
        let outs =
          B.call b ~label:(Printf.sprintf "st%d" i) ~behavior:"lattice_stage" ~n_out:2 [ x; g; k ]
        in
        feed_g outs.(1);
        outs.(0))
      x0
      (List.mapi (fun i kv -> (i, kv)) ks)
  in
  B.output b ~label:"y" x_final;
  {
    name = "lat";
    description = "normalized lattice filter, five stages";
    registry;
    dfg = B.finish b;
  }

(* ------------------------------------------------------------------ *)
(* avenhaus_cascade: biquad cascade with feed-forward taps *)

let avenhaus_cascade () =
  let registry = Registry.create () in
  Blocks.biquad registry;
  let b = B.create "avenhaus_cascade" in
  let x = B.input b "x" in
  let stages =
    [ (2, 1, 3, 2, 1); (1, 2, 2, 1, 3); (3, 2, 1, 3, 2); (2, 3, 2, 2, 1); (1, 1, 3, 1, 2) ]
  in
  let taps = ref [] in
  let y =
    List.fold_left
      (fun acc (i, coeffs) ->
        let out =
          biquad_stage b ~label:(Printf.sprintf "av%d" i) acc
            (iir_coeffs b (Printf.sprintf "v%d" i) coeffs)
        in
        let g = B.const b ~label:(Printf.sprintf "t%d" i) (1 + (i mod 3)) in
        taps := B.op b ~label:(Printf.sprintf "tap%d" i) Op.Mult [ g; out ] :: !taps;
        out)
      x
      (List.mapi (fun i c -> (i, c)) stages)
  in
  ignore y;
  let sum =
    match !taps with
    | [] -> assert false
    | first :: rest ->
        List.fold_left (fun acc tap -> B.op b Op.Add [ acc; tap ]) first rest
  in
  B.output b ~label:"y" sum;
  {
    name = "avenhaus_cascade";
    description = "Avenhaus cascade filter: five biquads with feed-forward taps";
    registry;
    dfg = B.finish b;
  }

(* ------------------------------------------------------------------ *)
(* test1: the hierarchical DFG of Figure 1(a), reconstructed *)

let test1 () =
  let registry = Registry.create () in
  Blocks.prod4 registry;
  Blocks.dual2 registry;
  Blocks.sop4 registry;
  Blocks.sum4 registry;
  let b = B.create "test1" in
  let i = Array.init 5 (fun k -> B.input b (Printf.sprintf "i%d" k)) in
  let dfg1 = B.call b ~label:"DFG1" ~behavior:"prod4" ~n_out:1 [ i.(0); i.(1); i.(2); i.(3) ] in
  let dfg2 = B.call b ~label:"DFG2" ~behavior:"dual2" ~n_out:2 [ i.(1); i.(2); i.(3); i.(4) ] in
  let dfg3 = B.call b ~label:"DFG3" ~behavior:"sop4" ~n_out:1 [ i.(0); i.(2); i.(4); dfg2.(0) ] in
  let dfg4 =
    B.call b ~label:"DFG4" ~behavior:"sum4" ~n_out:1 [ dfg1.(0); dfg2.(1); dfg3.(0); i.(4) ]
  in
  B.output b ~label:"out" dfg4.(0);
  {
    name = "test1";
    description = "Figure 1(a) hierarchical DFG (reconstruction)";
    registry;
    dfg = B.finish b;
  }

let all () =
  [ avenhaus_cascade (); lat (); dct (); iir (); hier_paulin (); test1 () ]

let by_name name =
  match name with
  | "paulin" -> Some (paulin ())
  | "hier_paulin" -> Some (hier_paulin ())
  | "dct" -> Some (dct ())
  | "iir" -> Some (iir ())
  | "lat" -> Some (lat ())
  | "avenhaus_cascade" -> Some (avenhaus_cascade ())
  | "test1" -> Some (test1 ())
  | _ -> None

let resolve name = Option.map (fun b -> (b.registry, b.dfg)) (by_name name)
