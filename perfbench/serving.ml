(* A live query server on its own domain with one client connection,
   and the in-process probes of the serving layers. *)

open Netcore
module Server = Serve.Server
module Client = Serve.Client
module Protocol = Serve.Protocol
module Qmap = Serve.Qmap

type live = { server : Server.t; domain : unit Domain.t; client : Client.t }

let start ?reload ~path qmap =
  let server = Server.create ?reload ~path qmap in
  let domain = Domain.spawn (fun () -> Server.run server) in
  match Client.connect path with
  | Ok client -> { server; domain; client }
  | Error e ->
    Server.stop server;
    Domain.join domain;
    failwith ("perfbench: connect: " ^ Protocol.error_label e)

let stop l =
  Client.close l.client;
  Server.stop l.server;
  Domain.join l.domain

(* One owner frame: [Ok ()] with the answers in [out], or the typed
   error the client saw. *)
let ask l ~addrs ~n ~out = Client.owner_batch_into l.client ~addrs ~n ~out

(* Closed-loop warm-up of the serving path over the query mix. *)
let warm l (m : Common.mix) ~batch ~frames =
  let addrs = Array.make batch 0 and out = Array.make batch 0 in
  let k = ref 0 in
  for _ = 1 to frames do
    for i = 0 to batch - 1 do
      addrs.(i) <- m.Common.addrs.(!k mod Array.length m.Common.addrs);
      incr k
    done;
    ignore (ask l ~addrs ~n:batch ~out)
  done

let minor_words l =
  match Client.gc_stat l.client with
  | Ok g -> Some (g.Client.minor_words, g.Client.queries_total)
  | Error _ -> None

(* Repeat [f] over at least [min_s] seconds; seconds per call. *)
let time_per_call ~min_s f =
  let n = ref 0 and t0 = Clock.now () in
  let t1 = ref t0 in
  while !t1 -. t0 < min_s do
    for _ = 1 to 64 do
      f ()
    done;
    n := !n + 64;
    t1 := Clock.now ()
  done;
  (!t1 -. t0) /. float_of_int !n

(* In-process Qmap.owner cost, ns per lookup, over one address class. *)
let owner_ns qmap addrs =
  if Array.length addrs = 0 then 0.0
  else
    let sink = ref 0 in
    let per_pass =
      time_per_call ~min_s:0.2 (fun () ->
          Array.iter (fun a -> sink := !sink lxor Qmap.owner qmap (Ipv4.of_int a)) addrs)
    in
    ignore (Sys.opaque_identity !sink);
    1e9 *. per_pass /. float_of_int (Array.length addrs)

let owner_request addrs =
  let n = Array.length addrs in
  let req = Bytes.create (1 + (4 * n)) in
  Bytes.set req 0 (Char.chr Protocol.op_owner);
  Array.iteri (fun i a -> Protocol.set_u32 req (1 + (4 * i)) a) addrs;
  req

(* In-process Server.handle on one owner frame of [addrs]: ns per
   query, and whether its answers match [expect]. *)
let handle_ns qmap addrs expect =
  let ctx = Server.ctx_create qmap in
  let req = owner_request addrs in
  let len = Bytes.length req in
  let wb = Protocol.wbuf_create 4096 in
  Server.handle ctx req ~off:0 ~len wb;
  let ok = ref (Protocol.get_u8 wb.Protocol.buf 4 = 0) in
  Array.iteri
    (fun i e -> if Protocol.get_u32 wb.Protocol.buf (5 + (4 * i)) <> e then ok := false)
    expect;
  let per_frame = time_per_call ~min_s:0.2 (fun () -> Server.handle ctx req ~off:0 ~len wb) in
  (1e9 *. per_frame /. float_of_int (Array.length addrs), !ok)

(* The in-process serving probes every traced workload reports: Qmap
   build, Mapfile decode, owner cost per class, Server.handle per query.
   Returns the metrics and whether every probed answer matched the
   oracle. *)
let layer_probes ~snapshot (b : Build.t) (m : Common.mix) =
  let timed name f =
    let t0 = Clock.now () in
    let r = Tracer.span name (fun _ -> f ()) in
    (r, Clock.now () -. t0)
  in
  let mf, decode_s =
    timed "mapfile.decode" (fun () ->
        match Bdrmap.Mapfile.of_bytes b.Build.bytes with
        | Ok mf -> mf
        | Error e -> failwith ("perfbench: decode: " ^ Bdrmap.Mapfile.error_label e))
  in
  let qmap, qmap_s = timed "qmap.build" (fun () -> Qmap.build ~snapshot mf) in
  let ok = ref true in
  Array.iteri
    (fun i a -> if Qmap.owner qmap (Ipv4.of_int a) <> m.Common.expect.(i) then ok := false)
    m.Common.addrs;
  let cls c = owner_ns qmap (Common.class_addrs m c) in
  let n = min 512 (Array.length m.Common.addrs) in
  let h512, ok512 =
    handle_ns qmap (Array.sub m.Common.addrs 0 n) (Array.sub m.Common.expect 0 n)
  in
  let h1, ok1 = handle_ns qmap [| m.Common.addrs.(0) |] [| m.Common.expect.(0) |] in
  ( [ ("mapfile.decode_ms", 1e3 *. decode_s, "ms");
      ("mapfile.bytes", float_of_int (Bytes.length b.Build.bytes), "bytes");
      ("qmap.build_ms", 1e3 *. qmap_s, "ms");
      ("qmap.borders", float_of_int (Qmap.border_count qmap), "count");
      ("qmap.owner_ns.border", cls Common.Border, "ns");
      ("qmap.owner_ns.routed", cls Common.Routed, "ns");
      ("qmap.owner_ns.miss", cls Common.Miss, "ns");
      ("server.handle_ns_per_query", h512, "ns") ],
    h1,
    !ok && ok512 && ok1 )

(* ------------------------------------------------------------------ *)
(* Closed-loop owner phases: one client connection, the next frame sent
   when the previous answer is back. Every answer is checked against the
   oracle's answer for its address. *)

type phase = {
  frames : int;
  queries : int;
  wrong : int;  (** answers that disagree with the oracle *)
  errors : int;  (** frames answered with an error *)
  wall : float;
  rtts : float array;  (** per-frame round trips, seconds (when kept) *)
}

let phase l (m : Common.mix) ~cursor ~batch ~seconds ~keep_rtts ~traced =
  let addrs = Array.make batch 0 and idx = Array.make batch 0 in
  let out = Array.make batch 0 in
  (* Grown by doubling between frames, so a slice leaves little garbage
     and the heap peak does not follow the GC's timing. *)
  let rtts = ref (Array.make (if keep_rtts then 4096 else 0) 0.0) in
  let n = Array.length m.Common.addrs in
  let frames = ref 0 and wrong = ref 0 and errors = ref 0 in
  let start = Clock.now () in
  let last = ref start in
  while !last -. start < seconds do
    for i = 0 to batch - 1 do
      let k = !cursor in
      idx.(i) <- k;
      addrs.(i) <- m.Common.addrs.(k);
      cursor := if k + 1 = n then 0 else k + 1
    done;
    let t0 = Clock.now () in
    let r =
      if traced then Tracer.span "owner.frame" (fun _ -> ask l ~addrs ~n:batch ~out)
      else ask l ~addrs ~n:batch ~out
    in
    let t1 = Clock.now () in
    (match r with
    | Ok () ->
      for i = 0 to batch - 1 do
        if out.(i) <> m.Common.expect.(idx.(i)) then incr wrong
      done
    | Error _ -> incr errors);
    if keep_rtts then begin
      if !frames = Array.length !rtts then rtts := Array.append !rtts !rtts;
      !rtts.(!frames) <- t1 -. t0
    end;
    incr frames;
    last := t1
  done;
  { frames = !frames;
    queries = !frames * batch;
    wrong = !wrong;
    errors = !errors;
    wall = !last -. start;
    rtts = (if keep_rtts then Array.sub !rtts 0 !frames else [||]) }

let tally_phase (t : Common.tally) p =
  t.Common.attempted <- t.Common.attempted + p.queries;
  t.Common.failed <- t.Common.failed + p.wrong + (p.errors * (p.queries / max 1 p.frames));
  if p.wrong > 0 || p.errors > 0 then
    Printf.eprintf "perfbench: %d wrong owner answers, %d error frames\n%!" p.wrong p.errors
