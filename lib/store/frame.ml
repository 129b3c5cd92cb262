type error =
  | Absent
  | Truncated
  | Bad_magic
  | Bad_version of int
  | Stale
  | Corrupt

let error_label = function
  | Absent -> "absent"
  | Truncated -> "truncated"
  | Bad_magic -> "bad-magic"
  | Bad_version v -> Printf.sprintf "bad-version-%d" v
  | Stale -> "stale"
  | Corrupt -> "corrupt"

let header_len tag_len = 32 + tag_len

let seal ~magic ~version ?(tag = "") b =
  let tl = String.length tag in
  let hl = header_len tl in
  let len = Bytes.length b - hl in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int32_be b 4 (Int32.of_int version);
  Bytes.blit_string tag 0 b 8 tl;
  Bytes.blit_string (Digest.subbytes b hl len) 0 b (8 + tl) 16;
  Bytes.set_int64_be b (24 + tl) (Int64.of_int len)

let frame ~magic ~version ?(tag = "") payload =
  let hl = header_len (String.length tag) in
  let b = Bytes.create (hl + String.length payload) in
  Bytes.blit_string payload 0 b hl (String.length payload);
  seal ~magic ~version ~tag b;
  b

let unseal ~magic ~version ?(tag = "") b =
  let tl = String.length tag in
  let hl = header_len tl in
  let avail = Bytes.length b - hl in
  if avail < 0 then Error Truncated
  else if Bytes.sub_string b 0 4 <> magic then Error Bad_magic
  else
    let v = Int32.to_int (Bytes.get_int32_be b 4) land 0xFFFF_FFFF in
    if v <> version then Error (Bad_version v)
    else if Bytes.sub_string b 8 tl <> tag then Error Stale
    else
      (* A u64 read into a 63-bit int: any top bits set decode negative
         or huge, and both fail the length rule before anything is
         sized from them. *)
      let len = Int64.to_int (Bytes.get_int64_be b (24 + tl)) in
      if len > avail then Error Truncated
      else if len <> avail then Error Corrupt
      else if Digest.subbytes b hl len <> Bytes.sub_string b (8 + tl) 16 then
        Error Corrupt
      else Ok hl

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> Error Absent
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (* A directory opens fine but has no length to read. *)
        try
          if (Unix.fstat (Unix.descr_of_in_channel ic)).Unix.st_kind <> Unix.S_REG
          then Error Absent
          else begin
            let b = Bytes.create (in_channel_length ic) in
            really_input ic b 0 (Bytes.length b);
            Ok b
          end
        with
        | Unix.Unix_error _ | Sys_error _ -> Error Absent
        | End_of_file -> Error Truncated)

(* Unique within the process (counter + domain) and across processes
   (pid): two writers sharing a temp file would interleave into it and
   the rename would publish it torn. *)
let tmp_counter = Atomic.make 0

let publish path write =
  let tmp =
    Printf.sprintf "%s.tmp-%d-%d-%d" path (Unix.getpid ())
      (Domain.self () :> int)
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out_bin tmp in
  try
    write oc;
    close_out oc;
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

let is_temp name =
  (* "<file>.tmp-<pid>-<dom>-<n>" *)
  match String.rindex_opt name '.' with
  | None -> false
  | Some i -> String.length name > i + 4 && String.sub name (i + 1) 4 = "tmp-"
