let digest_length = String.length (Digest.string "")

let output oc v =
  let data = Marshal.to_string v [] in
  output_string oc (Digest.string data);
  output_string oc data

let input ic =
  let seal = really_input_string ic digest_length in
  let data = In_channel.input_all ic in
  if String.equal (Digest.string data) seal then Some (Marshal.from_string data 0) else None

type error =
  | Foreign
  | Version of int
  | Header of string
  | Corrupt
  | Truncated
  | Io of string
  | Failed of string

let write path ~magic ~version ?(header = ignore) v =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_binary_int oc version;
      header oc;
      output oc v);
  Sys.rename tmp path

let read path ~magic ~version ?(header = fun _ -> Ok ()) () =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        if really_input_string ic (String.length magic) <> magic then Error Foreign
        else
          let v = input_binary_int ic in
          if v <> version then Error (Version v)
          else
            match header ic with
            | Error msg -> Error (Header msg)
            | Ok () -> ( match input ic with Some x -> Ok x | None -> Error Corrupt))
  with
  | End_of_file -> Error Truncated
  | Sys_error msg -> Error (Io msg)
  | Failure msg -> Error (Failed msg)
