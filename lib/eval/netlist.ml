module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Dfg = Hsyn_dfg.Dfg
module Fu = Hsyn_modlib.Fu
module Bits = Hsyn_util.Bits

let ident s =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' then c else '_') s

let source_expr = function
  | Area.Reg r -> Printf.sprintf "r%d" r
  | Area.Const_wire c -> Printf.sprintf "16'd%d" (Bits.truncate c)
  | Area.Direct (i, o) -> Printf.sprintf "u%d_out%d" i o

(* Emit one design as a module body into [buf]; collect nested RTL
   modules for separate emission. *)
let emit_design buf ~name ~with_controller (d : Design.t) (sch : Sched.schedule) nested =
  let dfg = d.Design.dfg in
  let in_names = Array.map (fun id -> ident dfg.Dfg.nodes.(id).Dfg.label) dfg.Dfg.inputs in
  let out_names = Array.map (fun id -> ident dfg.Dfg.nodes.(id).Dfg.label) dfg.Dfg.outputs in
  Buffer.add_string buf
    (Printf.sprintf "module %s(\n  input clk, input rst,\n" (ident name));
  Array.iter (fun n -> Buffer.add_string buf (Printf.sprintf "  input  [15:0] %s,\n" n)) in_names;
  Array.iteri
    (fun i n ->
      Buffer.add_string buf
        (Printf.sprintf "  output [15:0] %s%s\n" n
           (if i = Array.length out_names - 1 then "" else ",")))
    out_names;
  Buffer.add_string buf ");\n";
  (* registers *)
  if d.Design.n_regs > 0 then begin
    Buffer.add_string buf "  // register file\n";
    for r = 0 to d.Design.n_regs - 1 do
      if Design.values_in_reg d r <> [] then
        Buffer.add_string buf (Printf.sprintf "  reg [15:0] r%d;\n" r)
    done
  end;
  (* functional units *)
  Buffer.add_string buf "  // datapath units\n";
  Array.iteri
    (fun i kind ->
      if Design.inst_used d i then begin
        let feeds = Area.port_feeds d i in
        let ports = List.sort_uniq compare (List.map fst feeds) in
        let port_expr key =
          let sources =
            List.filter (fun (k, _) -> k = key) feeds
            |> List.map (fun (_, p) -> Area.source_of_value d p)
            |> List.sort_uniq compare
          in
          match sources with
          | [ s ] -> source_expr s
          | many ->
              (* controller-steered multiplexer *)
              Printf.sprintf "mux_u%d_p%d(%s)" i key
                (String.concat ", " (List.map source_expr many))
        in
        match kind with
        | Design.Simple fu ->
            Buffer.add_string buf
              (Printf.sprintf "  %s u%d (.clk(clk)%s, .out(u%d_out0));\n" (ident fu.Fu.name) i
                 (String.concat ""
                    (List.map (fun k -> Printf.sprintf ", .in%d(%s)" k (port_expr k)) ports))
                 i)
        | Design.Module rm ->
            if not (List.exists (fun (m : Design.rtl_module) -> m == rm) !nested) then
              nested := rm :: !nested;
            let n_out =
              List.fold_left
                (fun acc id -> max acc dfg.Dfg.nodes.(id).Dfg.n_out)
                1 (Design.nodes_on d i)
            in
            let outs =
              String.concat ""
                (List.init n_out (fun o -> Printf.sprintf ", .out%d(u%d_out%d)" o i o))
            in
            Buffer.add_string buf
              (Printf.sprintf "  %s u%d (.clk(clk), .start(ctrl_start_u%d)%s%s);\n"
                 (ident rm.Design.rm_name) i i
                 (String.concat ""
                    (List.map (fun k -> Printf.sprintf ", .in%d(%s)" k (port_expr k)) ports))
                 outs)
      end)
    d.Design.insts;
  (* output connections *)
  Buffer.add_string buf "  // primary outputs\n";
  Array.iteri
    (fun idx out_id ->
      let src = dfg.Dfg.nodes.(out_id).Dfg.ins.(0) in
      Buffer.add_string buf
        (Printf.sprintf "  assign %s = %s;\n" out_names.(idx)
           (source_expr (Area.source_of_value d src))))
    dfg.Dfg.outputs;
  if with_controller then begin
    let fsm = Fsm.generate d sch in
    Buffer.add_string buf
      (Printf.sprintf "  // controller: %d states\n  reg [%d:0] state;\n" fsm.Fsm.n_states
         (max 1 (int_of_float (Float.ceil (Float.log2 (Float.of_int (max 2 fsm.Fsm.n_states)))))
         - 1));
    Buffer.add_string buf "  always @(posedge clk) begin\n";
    Buffer.add_string buf "    if (rst) state <= 0; else state <= state + 1;\n";
    Buffer.add_string buf "    case (state)\n";
    List.iter
      (fun (s : Fsm.state) ->
        let actions =
          List.filter_map
            (function
              | Fsm.Load { reg; value } -> Some (Printf.sprintf "r%d <= /*%s*/ bus" reg (ident value))
              | Fsm.Start _ | Fsm.Select _ -> None)
            s.Fsm.actions
        in
        let comment =
          List.filter_map
            (function
              | Fsm.Start { inst; node } -> Some (Printf.sprintf "start u%d(%s)" inst (ident node))
              | _ -> None)
            s.Fsm.actions
        in
        if actions <> [] || comment <> [] then
          Buffer.add_string buf
            (Printf.sprintf "      %d: begin %s end // %s\n" s.Fsm.cycle
               (String.concat "; " actions)
               (String.concat ", " comment)))
      fsm.Fsm.states;
    Buffer.add_string buf "    endcase\n  end\n"
  end;
  Buffer.add_string buf "endmodule\n\n"

let emit ctx (d : Design.t) (sch : Sched.schedule) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "// generated by hsyn — structural RTL dump (Verilog-flavoured)\n\n";
  let nested = ref [] in
  emit_design buf ~name:d.Design.dfg.Dfg.name ~with_controller:true d sch nested;
  (* emit nested module definitions, breadth first, each once *)
  let emitted = ref [] in
  let rec drain () =
    match !nested with
    | [] -> ()
    | rm :: rest ->
        nested := rest;
        if not (List.exists (fun m -> m == rm) !emitted) then begin
          emitted := rm :: !emitted;
          List.iter
            (fun (behavior, part) ->
              let psch = Sched.module_schedule ctx rm behavior in
              emit_design buf
                ~name:(rm.Design.rm_name ^ "__" ^ behavior)
                ~with_controller:true part psch nested)
            rm.Design.parts
        end;
        drain ()
  in
  drain ();
  Buffer.contents buf
