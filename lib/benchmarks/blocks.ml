module Registry = Hsyn_dfg.Registry
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module B = Hsyn_dfg.Dfg.Builder

let ensure registry behavior build =
  if not (Registry.mem registry behavior) then
    List.iter (fun variant -> Registry.register registry behavior variant) (build ())

(* sequential lets: tuple expressions evaluate right to left, which
   would register the primary inputs in reverse order *)
let inputs4 b =
  let a = B.input b "a" in
  let x = B.input b "b" in
  let c = B.input b "c" in
  let d = B.input b "d" in
  (a, x, c, d)

let sum4 registry =
  ensure registry "sum4" (fun () ->
      let tree =
        let b = B.create "sum4_tree" in
        let a, x, c, d = inputs4 b in
        let s1 = B.op b Op.Add [ a; x ] in
        let s2 = B.op b Op.Add [ c; d ] in
        B.output b (B.op b Op.Add [ s1; s2 ]);
        B.finish b
      in
      let chain =
        let b = B.create "sum4_chain" in
        let a, x, c, d = inputs4 b in
        let s1 = B.op b Op.Add [ a; x ] in
        let s2 = B.op b Op.Add [ s1; c ] in
        B.output b (B.op b Op.Add [ s2; d ]);
        B.finish b
      in
      [ tree; chain ])

let prod4 registry =
  ensure registry "prod4" (fun () ->
      let tree =
        let b = B.create "prod4_tree" in
        let a, x, c, d = inputs4 b in
        let m1 = B.op b Op.Mult [ a; x ] in
        let m2 = B.op b Op.Mult [ c; d ] in
        B.output b (B.op b Op.Mult [ m1; m2 ]);
        B.finish b
      in
      let chain =
        let b = B.create "prod4_chain" in
        let a, x, c, d = inputs4 b in
        let m1 = B.op b Op.Mult [ a; x ] in
        let m2 = B.op b Op.Mult [ m1; c ] in
        B.output b (B.op b Op.Mult [ m2; d ]);
        B.finish b
      in
      [ tree; chain ])

let butterfly registry =
  ensure registry "butterfly" (fun () ->
      let b = B.create "butterfly_direct" in
      let a = B.input b "a" and x = B.input b "b" in
      B.output b (B.op b Op.Add [ a; x ]);
      B.output b (B.op b Op.Sub [ a; x ]);
      [ B.finish b ])

let rot registry =
  ensure registry "rot" (fun () ->
      let four =
        let b = B.create "rot_4m" in
        let x = B.input b "x" and y = B.input b "y" in
        let c = B.input b "c" and s = B.input b "s" in
        let cx = B.op b Op.Mult [ c; x ] in
        let sy = B.op b Op.Mult [ s; y ] in
        let cy = B.op b Op.Mult [ c; y ] in
        let sx = B.op b Op.Mult [ s; x ] in
        B.output b (B.op b Op.Add [ cx; sy ]);
        B.output b (B.op b Op.Sub [ cy; sx ]);
        B.finish b
      in
      (* 3-multiplier factorization:
         u = c·(x+y); out0 = u − (c−s)·y; out1 = u − (c+s)·x *)
      let three =
        let b = B.create "rot_3m" in
        let x = B.input b "x" and y = B.input b "y" in
        let c = B.input b "c" and s = B.input b "s" in
        let xy = B.op b Op.Add [ x; y ] in
        let u = B.op b Op.Mult [ c; xy ] in
        let cms = B.op b Op.Sub [ c; s ] in
        let cps = B.op b Op.Add [ c; s ] in
        let t1 = B.op b Op.Mult [ cms; y ] in
        let t2 = B.op b Op.Mult [ cps; x ] in
        B.output b (B.op b Op.Sub [ u; t1 ]);
        B.output b (B.op b Op.Sub [ u; t2 ]);
        B.finish b
      in
      [ four; three ])

let biquad registry =
  ensure registry "biquad" (fun () ->
      let build name reassoc =
        let b = B.create name in
        let x = B.input b "x" in
        let s1 = B.input b "s1" and s2 = B.input b "s2" in
        let a1 = B.input b "a1" and a2 = B.input b "a2" in
        let b0 = B.input b "b0" and b1 = B.input b "b1" and b2 = B.input b "b2" in
        let a1s1 = B.op b Op.Mult [ a1; s1 ] in
        let a2s2 = B.op b Op.Mult [ a2; s2 ] in
        (* t = x - a1·s1 - a2·s2 *)
        let t =
          if reassoc then B.op b Op.Sub [ x; B.op b Op.Add [ a1s1; a2s2 ] ]
          else B.op b Op.Sub [ B.op b Op.Sub [ x; a1s1 ]; a2s2 ]
        in
        let b0t = B.op b Op.Mult [ b0; t ] in
        let b1s1 = B.op b Op.Mult [ b1; s1 ] in
        let b2s2 = B.op b Op.Mult [ b2; s2 ] in
        (* y = b0·t + b1·s1 + b2·s2 *)
        let y =
          if reassoc then B.op b Op.Add [ b0t; B.op b Op.Add [ b1s1; b2s2 ] ]
          else B.op b Op.Add [ B.op b Op.Add [ b0t; b1s1 ]; b2s2 ]
        in
        B.output b ~label:"y" y;
        B.output b ~label:"t" t;
        B.finish b
      in
      [ build "biquad_df2" false; build "biquad_df2r" true ])

let lattice_stage registry =
  ensure registry "lattice_stage" (fun () ->
      let b = B.create "lattice_direct" in
      let x = B.input b "x" and g = B.input b "g" and k = B.input b "k" in
      let kg = B.op b Op.Mult [ k; g ] in
      let xo = B.op b Op.Sub [ x; kg ] in
      let kxo = B.op b Op.Mult [ k; xo ] in
      let go = B.op b Op.Add [ g; kxo ] in
      B.output b ~label:"xo" xo;
      B.output b ~label:"go" go;
      [ B.finish b ])

let paulin_body registry =
  ensure registry "paulin_body" (fun () ->
      let b = B.create "paulin_iter" in
      let x = B.input b "x" and y = B.input b "y" in
      let u = B.input b "u" and dx = B.input b "dx" in
      let three = B.const b ~label:"k3" 3 in
      (* x' = x + dx *)
      let x' = B.op b Op.Add [ x; dx ] in
      (* u' = u - 3·x·u·dx - 3·y·dx *)
      let xu = B.op b Op.Mult [ x; u ] in
      let xud = B.op b Op.Mult [ xu; dx ] in
      let t1 = B.op b Op.Mult [ three; xud ] in
      let yd = B.op b Op.Mult [ y; dx ] in
      let t2 = B.op b Op.Mult [ three; yd ] in
      let u1 = B.op b Op.Sub [ u; t1 ] in
      let u' = B.op b Op.Sub [ u1; t2 ] in
      (* y' = y + u·dx *)
      let ud = B.op b Op.Mult [ u; dx ] in
      let y' = B.op b Op.Add [ y; ud ] in
      B.output b ~label:"x1" x';
      B.output b ~label:"y1" y';
      B.output b ~label:"u1" u';
      [ B.finish b ])

let dual2 registry =
  ensure registry "dual2" (fun () ->
      let b = B.create "dual2_direct" in
      let a, x, c, d = inputs4 b in
      let m4 = B.op b ~label:"M4" Op.Mult [ a; x ] in
      let m5 = B.op b ~label:"M5" Op.Mult [ c; d ] in
      B.output b (B.op b Op.Add [ m4; m5 ]);
      let s = B.op b Op.Add [ a; x ] in
      let t = B.op b Op.Sub [ c; d ] in
      B.output b (B.op b Op.Mult [ s; t ]);
      [ B.finish b ])

let sop4 registry =
  ensure registry "sop4" (fun () ->
      let b = B.create "sop4_serial" in
      let a, x, c, d = inputs4 b in
      let m1 = B.op b Op.Mult [ a; x ] in
      let s1 = B.op b Op.Add [ m1; c ] in
      B.output b (B.op b Op.Mult [ s1; d ]);
      [ B.finish b ])
