(* Workload churn-epochs: Scenario.small_access ~scale:1.0 under a
   seeded Evolve schedule of 3 events per epoch. Each epoch advances the
   world, re-freezes routing incrementally, re-runs every VP with a run
   store, merges, saves the Mapfile, and has the live server hot-reload
   it (Mapfile.load + Qmap.build, as `serve --map` does on SIGHUP). The
   epoch ends at the first owner answer from the swapped map. *)

open Common
module P = Bdrmap.Pipeline
module Bgp = Routing.Bgp
module Fwd = Routing.Forwarding
module Gen = Topogen.Gen
module Evolve = Topogen.Evolve
module Tr = Tracer

let world seed = Gen.generate (Topogen.Scenario.small_access ~scale:1.0 ~seed ())

let schedule seed =
  { Evolve.default_schedule with Evolve.ev_seed = seed; ev_batch = 3; ev_epochs = 0 }

(* Owner questions asked of the server after each reload: up to half
   of them addresses whose owner the epoch changed, the rest from the
   query mix over the map being served. *)
let probe_count = 64

type state = {
  mutable world : Gen.world;
  mutable digest : string;  (** chained event-log digest *)
  mutable shared : P.shared;
  mutable epoch : int;
  mutable mapfile : Bdrmap.Mapfile.t;
  mutable oracle : oracle;  (** of [mapfile] *)
  store : Store.t;
  map_path : string;
  cur_snapshot : Bgp.snapshot Atomic.t;  (** what the next reload compiles against *)
  served : Serve.Qmap.t option Atomic.t;  (** the query map being served *)
  reloads : int Atomic.t;
}

(* The server's reload callback: what `serve --map` runs on SIGHUP.
   The server stores the returned map right after the callback returns,
   on its own domain and before it reads another frame. So a frame sent
   after [reloads] was seen to move is answered from the new map; an
   answer that arrives after the move may still be an old-map one. *)
let reload st () =
  Tr.span "server.reload" (fun id ->
      match
        Tr.span ~parent:id "reload.mapfile_load" (fun _ -> Bdrmap.Mapfile.load st.map_path)
      with
      | Error _ -> None
      | Ok mf ->
        let q =
          Tr.span ~parent:id "reload.qmap_build" (fun _ ->
              Serve.Qmap.build ~snapshot:(Atomic.get st.cur_snapshot) mf)
        in
        Atomic.set st.served (Some q);
        Atomic.incr st.reloads;
        Some q)

(* Pipeline.execute_all's run-store path, per VP, around the
   layer-by-layer run. *)
let per_vp_store st ~epoch ~cfg (inputs : P.inputs) (vp : Gen.vp) compute =
  let w = st.world in
  match Bdrmap.Run_store.load ~epoch st.store ~world:w ~pps:Build.pps ~cfg ~vp with
  | Some s ->
    let ip2as =
      Bdrmap.Ip2as.create ~rib:inputs.P.rib ~ixp:inputs.P.ixp
        ~delegations:inputs.P.delegations ~vp_asns:inputs.P.vp_asns
    in
    ( 0,
      { P.cfg;
        ip2as;
        inputs;
        collection = s.Bdrmap.Run_store.collection;
        graph = s.Bdrmap.Run_store.graph;
        inference = s.Bdrmap.Run_store.inference;
        probes = s.Bdrmap.Run_store.probes;
        cache = s.Bdrmap.Run_store.cache } )
  | None ->
    let blocks, (r : P.run) = compute () in
    Tr.span "store.save" (fun _ ->
        Bdrmap.Run_store.save ~epoch st.store ~world:w ~pps:Build.pps ~cfg ~vp
          { Bdrmap.Run_store.collection = r.P.collection;
            graph = r.P.graph;
            inference = r.P.inference;
            probes = r.P.probes;
            cache = r.P.cache });
    (blocks, r)

(* Inference for the current world: the program's execute_all, or the
   same layers one by one when traced. *)
let infer ?pool ~traced ~counts st shared =
  let w = st.world in
  let inputs = Tr.span "inputs" (fun _ -> P.inputs_of_world w (Bgp.of_snapshot shared.P.snapshot)) in
  let runs =
    if traced then
      let cfg = Bdrmap.Config.default ~vp_asns:inputs.P.vp_asns in
      Build.sweep ?pool ~per_vp:(per_vp_store st ~epoch:st.digest ~cfg inputs) ~parent:0 ~cfg
        ~shared w inputs counts
    else P.execute_all ?pool ~store:st.store ~shared ~epoch:st.digest w inputs ~vps:w.Gen.vps
  in
  let merged =
    Tr.span "aggregate.merge" (fun _ ->
        Bdrmap.Aggregate.merge_runs ?pool (Build.merge_input w.Gen.vps runs))
  in
  let mapfile =
    Tr.span "mapfile.encode" (fun _ ->
        let mf =
          Bdrmap.Mapfile.make ~host_asns:w.Gen.siblings ~bgp:(Bgp.of_snapshot shared.P.snapshot)
            merged
        in
        if traced then ignore (Bdrmap.Mapfile.to_bytes mf);
        mf)
  in
  Tr.span "mapfile.save" (fun _ -> Bdrmap.Mapfile.save st.map_path mapfile);
  (runs, mapfile)

(* Addresses whose owner differs between two maps: the border /32s and
   routed-prefix first addresses whose binding changed, kept where the
   two oracles disagree. *)
let changed_owners (a : oracle) (b : oracle) =
  (* A binding's key is what it binds: a border address, or a prefix. *)
  let bindings o =
    let h = Hashtbl.create 4096 in
    Array.iter (fun (x, asn) -> Hashtbl.replace h (x, 33) asn) o.borders;
    Array.iter
      (fun (p, asn) ->
        Hashtbl.replace h (Netcore.Ipv4.to_int (Netcore.Prefix.first p), Netcore.Prefix.len p) asn)
      o.origins;
    h
  in
  let ha = bindings a and hb = bindings b in
  let cand = Hashtbl.create 64 in
  let note h h' =
    Hashtbl.iter
      (fun ((x, _) as k) asn -> if Hashtbl.find_opt h' k <> Some asn then Hashtbl.replace cand x ())
      h
  in
  note ha hb;
  note hb ha;
  Hashtbl.fold
    (fun x () acc -> if expected_owner a x <> expected_owner b x then x :: acc else acc)
    cand []
  |> List.sort compare |> Array.of_list

(* This epoch's probes: up to half addresses the epoch changed the
   owner of (seeded pick), the rest from the mix over the served map. *)
let pick_probes ~rng st ~changed (next : oracle) =
  let changed = Array.copy changed in
  shuffle rng changed;
  let k = min (probe_count / 2) (Array.length changed) in
  let sample = Serve.Qmap.sample_addrs (Option.get (Atomic.get st.served)) in
  Array.append (Array.sub changed 0 k) (mix ~rng ~n:(probe_count - k) ~sample next).addrs

type epoch = {
  wall : float;  (** Evolve.advance to the first answer from the new map *)
  stall : float;  (** round trip of the frame that waited on the swap *)
  links : float;
  dirty_frac : float;
  distinguishable : bool;  (** some probe's owner changed with the map *)
}

exception Stale of string

(* One epoch. The timed part runs from Evolve.advance to the answer;
   the checks after it are outside the epoch's time. *)
let epoch ?pool ~traced ~counts ~sched ~rng ~t live st =
  let e = st.epoch + 1 in
  let out = Array.make probe_count 0 in
  let t0 = Clock.now () in
  let w', events = Tr.span "evolve.advance" (fun _ -> Evolve.advance sched ~epoch:e st.world) in
  let churn = Bgp.churn_of_events events in
  let snapshot, stats =
    Tr.span "bgp.refreeze" (fun _ -> Bgp.refreeze (Build.fresh_bgp w') ~old:st.shared.P.snapshot churn)
  in
  let plan =
    Tr.span "fwd.patch" (fun _ ->
        Fwd.patch ~egress_for:w'.Gen.siblings
          (Fwd.create w'.Gen.net (Bgp.of_snapshot snapshot))
          ~old:st.shared.P.plan ~churn ~dirty:stats.Bgp.rf_dirty_prefixes)
  in
  let shared = { P.snapshot; plan } in
  st.world <- w';
  st.digest <- Evolve.log_digest st.digest events;
  st.epoch <- e;
  st.shared <- shared;
  let runs, mapfile = infer ?pool ~traced ~counts st shared in
  Atomic.set st.cur_snapshot snapshot;
  let t_saved = Clock.now () in
  (* Not timed: the probes and their expected answers under both maps. *)
  let next = oracle mapfile in
  let changed = changed_owners st.oracle next in
  let probes = pick_probes ~rng st ~changed next in
  let want_new = Array.map (expected_owner next) probes in
  let want_old = Array.map (expected_owner st.oracle) probes in
  let distinguishable = want_new <> want_old in
  let target = Atomic.get st.reloads + 1 in
  let t_req = Clock.now () in
  Serve.Server.request_reload live.Serving.server;
  (* The epoch ends at the first answer known to come from the new map:
     one that gives a changed address its new owner, or, when no probe
     changed owner, one to a frame sent after the reload was done. Until
     then every answer must be the old map's. *)
  let rec ask tries =
    let reloaded = Atomic.get st.reloads >= target in
    match Serving.ask live ~addrs:probes ~n:probe_count ~out with
    | Error err -> raise (Stale (Serve.Protocol.error_label err))
    | Ok () ->
      if out = want_new && (distinguishable || reloaded) then ()
      else if reloaded then raise (Stale "old-map answer after the reload")
      else if out <> want_old then raise (Stale "answer matches neither map")
      else if tries = 0 then raise (Stale "no reload after 10000 frames")
      else ask (tries - 1)
  in
  let answer = match ask 10_000 with () -> None | exception Stale why -> Some why in
  let t1 = Clock.now () in
  (* Checks: the patched snapshot and plan equal a scratch freeze, and
     every answer of the ending frame is the new map's. *)
  let scratch = Bgp.freeze ~counter:"routing.snapshot.scratch_builds" (Build.fresh_bgp w') in
  check t (Bgp.Snapshot.equal scratch snapshot = Ok ())
    (Printf.sprintf "epoch %d: patched snapshot differs from a scratch freeze" e);
  let splan =
    Fwd.freeze ~egress_for:w'.Gen.siblings (Fwd.create w'.Gen.net (Bgp.of_snapshot scratch))
  in
  check t (Fwd.plan_equal ~scratch:splan ~patched:plan = Ok ())
    (Printf.sprintf "epoch %d: patched plan differs from a scratch freeze" e);
  (match answer with
  | None ->
    Array.iteri
      (fun i w -> check t (out.(i) = w) (Printf.sprintf "epoch %d: wrong answer" e))
      want_new
  | Some why -> check t false (Printf.sprintf "epoch %d: %s" e why));
  st.mapfile <- mapfile;
  st.oracle <- next;
  { wall = t_saved -. t0 +. (t1 -. t_req);
    stall = t1 -. t_req;
    links = Build.links_correct_pct w' runs;
    dirty_frac = float_of_int stats.Bgp.rf_dirty /. float_of_int (max 1 stats.Bgp.rf_total);
    distinguishable }

(* Set-up: world, the one full freeze, the epoch-0 inference with the
   run store, the saved map, and the server that serves it. *)
let setup ?pool ~dir ~k ~trace ~counts seed =
  let t0 = Clock.now () in
  let w = world seed in
  Tr.on := trace;
  let shared = Build.freeze w in
  Tr.on := false;
  let store_dir = Filename.concat dir (Printf.sprintf "store-%d" k) in
  let st =
    { world = w;
      digest = "";
      shared;
      epoch = 0;
      mapfile = { Bdrmap.Mapfile.host_asns = w.Gen.siblings; origins = []; merged = [] };
      oracle = { borders = [||]; origins = [||] };
      store = Store.open_dir store_dir;
      map_path = Filename.concat dir "border.map";
      cur_snapshot = Atomic.make shared.P.snapshot;
      served = Atomic.make None;
      reloads = Atomic.make 0 }
  in
  let _, mapfile = infer ?pool ~traced:false ~counts st shared in
  st.mapfile <- mapfile;
  st.oracle <- oracle mapfile;
  let qmap = Serve.Qmap.build ~snapshot:shared.P.snapshot mapfile in
  Atomic.set st.served (Some qmap);
  let live = Serving.start ~reload:(reload st) ~path:(Filename.concat dir "churn.sock") qmap in
  (Clock.now () -. t0, st, live, store_dir)

let run (o : opts) =
  let t = tally () in
  let sched = schedule o.seed in
  with_workdir (fun dir ->
      Netcore.Pool.with_pool ~domains:o.domains (fun pool ->
          let counts = Build.counts () in
          let reps = if o.trace then 1 else 5 in
          (* Each set-up starts from a settled heap. *)
          let rec setups k times =
            ignore (settle_heap ());
            let dt, st, live, store_dir = setup ~pool ~dir ~k ~trace:o.trace ~counts o.seed in
            if k = reps then (dt :: times, st, live)
            else begin
              Serving.stop live;
              rm_rf store_dir;
              setups (k + 1) (dt :: times)
            end
          in
          let setup_times, st, live = setups 1 [] in
          let rng = Random.State.make [| o.seed; 4 |] in
          let setup_snapshot = st.shared.P.snapshot in
          Fun.protect
            ~finally:(fun () -> Serving.stop live)
            (fun () ->
              info "workload churn-epochs: %d VPs, %d events an epoch, %d domains, seed %d"
                (List.length st.world.Gen.vps) sched.Evolve.ev_batch o.domains o.seed;
              let heap0 = settle_heap () in
              (* The window holds the checks between epochs too; only
                 the epochs themselves are timed. *)
              let loop ~traced ~seconds =
                let acc = ref [] and start = Clock.now () in
                while Clock.now () -. start < seconds || !acc = [] do
                  match epoch ~pool ~traced ~counts ~sched ~rng ~t live st with
                  | ep -> acc := ep :: !acc
                  | exception e ->
                    check t false (Printf.sprintf "epoch %d: %s" st.epoch (Printexc.to_string e));
                    raise e
                done;
                Array.of_list (List.rev !acc)
              in
              let untraced = loop ~traced:false ~seconds:(if o.trace then o.seconds /. 2.0 else o.seconds) in
              let walls = Array.map (fun e -> e.wall) untraced in
              let heap_peak = heap_peak_mb () in
              let traced, probes =
                if not o.trace then ([||], [])
                else begin
                  Tr.on := true;
                  let traced = loop ~traced:true ~seconds:(o.seconds /. 2.0) in
                  let b =
                    { Build.world = st.world;
                      shared = st.shared;
                      runs = [];
                      mapfile = st.mapfile;
                      bytes = Bdrmap.Mapfile.to_bytes st.mapfile;
                      digest = "" }
                  in
                  let m =
                    mix ~rng ~n:4096
                      ~sample:(Serve.Qmap.sample_addrs (Option.get (Atomic.get st.served)))
                      st.oracle
                  in
                  let probes, _, ok = Serving.layer_probes ~snapshot:st.shared.P.snapshot b m in
                  check t ok "in-process owner answers disagree with the oracle";
                  Tr.on := false;
                  (traced, probes)
                end
              in
              (* The hand-composed loop must end on the map
                 Pipeline.run_epochs builds for the same seed and
                 schedule. *)
              let eps =
                P.run_epochs ~pool ~validate:false
                  ~schedule:{ sched with Evolve.ev_epochs = st.epoch }
                  ~vps:(fun w -> w.Gen.vps) (world o.seed)
              in
              let last = List.nth eps (List.length eps - 1) in
              let ref_map =
                Bdrmap.Mapfile.make ~host_asns:last.P.ep_world.Gen.siblings
                  ~bgp:(Bgp.of_snapshot last.P.ep_shared.P.snapshot)
                  (Bdrmap.Aggregate.merge_runs ~pool
                     (Build.merge_input last.P.ep_world.Gen.vps last.P.ep_runs))
              in
              check t
                (Build.digest (Bdrmap.Mapfile.to_bytes ref_map)
                = Build.digest (Bdrmap.Mapfile.to_bytes st.mapfile))
                (Printf.sprintf "final map after %d epochs differs from Pipeline.run_epochs" st.epoch);
              let tail, tail_pct = Stats.tail walls in
              let stall_p50 = Stats.median (Array.map (fun e -> e.stall) untraced) in
              (* Epochs whose end the answers themselves confirm: some
                 probe changed owner with the map. *)
              let distinguishable_frac =
                let all = Array.append untraced traced in
                let n = Array.fold_left (fun n e -> if e.distinguishable then n + 1 else n) 0 all in
                float_of_int n /. float_of_int (Array.length all)
              in
              info "epochs %d (+%d traced), p50 %.1f ms, tail %.1f ms at p%.1f, stall p50 %.2f ms, \
                    %.2f of epochs distinguishable by their answers"
                (Array.length untraced) (Array.length traced) (1e3 *. Stats.median walls)
                (1e3 *. tail) tail_pct (1e3 *. stall_p50) distinguishable_frac;
              if not o.trace then
                print_end_to_end t
                  ~setup_s:(Stats.median (Array.of_list setup_times))
                  ~op_s:(Stats.median walls)
                  ~work_per_s:(float_of_int (Array.length walls) /. Stats.sum walls)
                  ~links_pct:(Stats.median (Array.map (fun e -> e.links) untraced))
                  ~heap_mb:heap_peak
              else begin
                let nt = float_of_int (max 1 (Array.length traced)) in
                let med name = 1e3 *. (let d = Tr.durations name in if d = [||] then 0.0 else Stats.median d) in
                let tw = Array.map (fun e -> e.wall) traced in
                let probes =
                  List.filter (fun (n, _, _) -> n <> "mapfile.decode_ms" && n <> "qmap.build_ms") probes
                in
                Layers.print t ~domains:o.domains ~heap0
                  ~overhead_s:(Stats.median tw -. Stats.median walls)
                  (List.filter
                     (fun (n, _, _) -> n <> "mapfile.encode_ms")
                     (Layers.build ~domains:o.domains ~freezes:1
                        ~sweeps:(Array.length traced) ~snapshot:setup_snapshot counts)
                  @ probes
                  @ [ ("bgp.refreeze_ms", med "bgp.refreeze", "ms");
                      ( "bgp.refreeze_dirty_frac",
                        Stats.median (Array.map (fun e -> e.dirty_frac) traced),
                        "ratio" );
                      ("fwd.patch_ms", med "fwd.patch", "ms");
                      ("evolve.advance_ms", med "evolve.advance", "ms");
                      ("mapfile.encode_ms", med "mapfile.encode", "ms");
                      ("mapfile.decode_ms", med "reload.mapfile_load", "ms");
                      ("qmap.build_ms", med "reload.qmap_build", "ms");
                      ("server.reload_ms", med "server.reload", "ms");
                      ("store.write_ms", 1e3 *. Tr.total "store.save" /. nt, "ms");
                      ( "store.bytes_written",
                        float_of_int (dir_bytes (Store.dir st.store)) /. float_of_int (st.epoch + 1),
                        "bytes" );
                      ("epoch.tail_s", tail, "s");
                      ("epoch.tail_pct", tail_pct, "%");
                      ("epoch.count", float_of_int (Array.length untraced), "count");
                      ("epoch.reload_stall_p50_ms", 1e3 *. stall_p50, "ms");
                      ("epoch.distinguishable_frac", distinguishable_frac, "ratio") ])
              end)))
