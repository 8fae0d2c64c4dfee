let digest_length = String.length (Digest.string "")

let output oc v =
  let data = Marshal.to_string v [] in
  output_string oc (Digest.string data);
  output_string oc data

let input ic =
  let seal = really_input_string ic digest_length in
  let data = In_channel.input_all ic in
  if String.equal (Digest.string data) seal then Some (Marshal.from_string data 0) else None
