open Netcore

type t = {
  host_asns : Asn.Set.t;
  origins : (Prefix.t * Asn.t) list;
  merged : Aggregate.merged list;
}

let make ~host_asns ~bgp merged =
  let origins =
    List.filter_map
      (fun p ->
        let os = Routing.Bgp.origins bgp p in
        if Asn.Set.is_empty os then None else Some (p, Asn.Set.min_elt os))
      (Routing.Bgp.prefixes bgp)
  in
  { host_asns; origins; merged }

type decode_error = Truncated | Bad_magic | Bad_version of int | Corrupt

let error_label = function
  | Truncated -> "truncated"
  | Bad_magic -> "bad-magic"
  | Bad_version v -> Printf.sprintf "bad-version-%d" v
  | Corrupt -> "corrupt"

let magic = "BDMF"
let codec_version = 1
let header_len = 32

let put_u32 b v =
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((v lsr (8 * (3 - i))) land 0xff))
  done

let put_u64 b v =
  for i = 0 to 7 do
    Buffer.add_char b (Char.chr ((v lsr (8 * (7 - i))) land 0xff))
  done

let get_be bytes off n =
  let v = ref 0 in
  for i = 0 to n - 1 do
    v := (!v lsl 8) lor Char.code (Bytes.get bytes (off + i))
  done;
  !v

let to_bytes t =
  let payload = Marshal.to_string t [] in
  let b = Buffer.create (header_len + String.length payload) in
  Buffer.add_string b magic;
  put_u32 b codec_version;
  Buffer.add_string b (Digest.string payload);
  put_u64 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.to_bytes b

let of_bytes bytes =
  let n = Bytes.length bytes in
  if n < header_len then Error Truncated
  else if Bytes.sub_string bytes 0 4 <> magic then Error Bad_magic
  else begin
    let v = get_be bytes 4 4 in
    if v <> codec_version then Error (Bad_version v)
    else begin
      (* The length field is read into a 63-bit int, so a top byte
         >= 0x40 decodes negative: reject it before any [sub_string].
         Trailing bytes past the declared payload are corrupt too. *)
      let len = get_be bytes 24 8 in
      if len > n - header_len then Error Truncated
      else if len < 0 || len < n - header_len then Error Corrupt
      else begin
        let payload = Bytes.sub_string bytes header_len len in
        if Digest.string payload <> Bytes.sub_string bytes 8 16 then Error Corrupt
        else
          match (Marshal.from_string payload 0 : t) with
          | t -> Ok t
          | exception _ -> Error Corrupt
      end
    end
  end

let save path t =
  let b = to_bytes t in
  let tmp = Printf.sprintf "%s.tmp-%d" path (Unix.getpid ()) in
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> output_bytes oc b)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load path =
  match open_in_bin path with
  | exception Sys_error _ -> Error Truncated
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        let b = Bytes.create n in
        really_input ic b 0 n;
        of_bytes b)
