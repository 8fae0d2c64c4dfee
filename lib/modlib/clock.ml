let cycles_of_ns ~clk_ns t =
  if t <= 0. then 0 else int_of_float (Float.ceil ((t /. clk_ns) -. 1e-9))

let spread n l =
  let arr = Array.of_list l in
  let len = Array.length arr in
  if len <= n then l
  else
    List.init n (fun i -> arr.(i * (len - 1) / (max 1 (n - 1))))
    |> List.sort_uniq compare |> List.rev

let candidates lib vdd =
  let raw =
    List.concat_map
      (fun (u : Fu.t) ->
        let d = Fu.delay_at u vdd in
        [ d; d /. 2.; d /. 3. ])
      lib.Library.units
  in
  let clamp x = Float.min 80. (Float.max 5. x) in
  (* round *up* to the 0.5 ns grid so a unit of delay d still fits in
     k cycles of the d/k candidate *)
  let quantize x = Float.ceil (clamp x *. 2.) /. 2. in
  let dedup =
    List.sort_uniq compare (List.map quantize raw) |> List.rev (* descending *)
  in
  spread 8 dedup
