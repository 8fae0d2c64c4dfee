(* Prometheus text exposition (version 0.0.4) over the Metrics
   registry.

   The registry's dotted names are sanitized to the Prometheus grammar
   ([a-zA-Z_][a-zA-Z0-9_]* ), so [serve.latency_ms] exports as
   [serve_latency_ms]; labels carry over natively. Histograms render
   the standard cumulative [_bucket{le=...}] series plus [_sum] and
   [_count]. Rendering reads merged shard values through
   [Metrics.fold], so a scrape is exactly as consistent as the JSON
   snapshot taken at the same moment. *)

let sanitize_name name =
  let buf = Buffer.create (String.length name) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Buffer.add_char buf c
      | '0' .. '9' ->
          if i = 0 then Buffer.add_char buf '_';
          Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let escape_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels labels =
  match labels with
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> sanitize_name k ^ "=\"" ^ escape_value v ^ "\"") ls)
      ^ "}"

let render_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.12g" f

let render () =
  let buf = Buffer.create 4096 in
  let typed : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.add typed name ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  let sample name labels v =
    Buffer.add_string buf (Printf.sprintf "%s%s %s\n" name (render_labels labels) v)
  in
  Metrics.fold
    (fun ~base ~labels view () ->
      let name = sanitize_name base in
      match view with
      | Metrics.Counter_view n ->
          type_line name "counter";
          sample name labels (string_of_int n)
      | Metrics.Gauge_view None -> ()  (* never set: no sample, no type line *)
      | Metrics.Gauge_view (Some f) ->
          type_line name "gauge";
          sample name labels (render_float f)
      | Metrics.Histogram_view v ->
          type_line name "histogram";
          let cum = ref 0 in
          Array.iteri
            (fun i edge ->
              cum := !cum + v.Metrics.counts.(i);
              sample (name ^ "_bucket")
                (labels @ [ ("le", render_float edge) ])
                (string_of_int !cum))
            v.Metrics.edges;
          sample (name ^ "_bucket") (labels @ [ ("le", "+Inf") ]) (string_of_int v.Metrics.count);
          sample (name ^ "_sum") labels (render_float v.Metrics.sum);
          sample (name ^ "_count") labels (string_of_int v.Metrics.count))
    ();
  Buffer.contents buf
