(* Workload map-build: Scenario.large_access ~scale:0.3 (19 VPs), each
   build from the generated world to the encoded Mapfile bytes on a pool
   of [domains] domains, no run store. *)

open Common
module Gen = Topogen.Gen

let world seed = Gen.generate (Topogen.Scenario.large_access ~scale:0.3 ~seed ())

let setup ~reps seed =
  let times = ref [] and w = ref None in
  for _ = 1 to reps do
    w := None;
    (* Each generation starts from a settled heap, so it does not pay
       for the garbage the one before it left. *)
    ignore (settle_heap ());
    let t0 = Clock.now () in
    w := Some (world seed);
    times := (Clock.now () -. t0) :: !times
  done;
  (Option.get !w, Array.of_list !times)

(* A build the checks count: [None] when it raised. *)
let attempt t what f =
  match f () with
  | b -> Some b
  | exception e ->
    check t false (what ^ ": " ^ Printexc.to_string e);
    None

let run (o : opts) =
  let t = tally () in
  let w, setup_times = setup ~reps:(if o.trace then 1 else 25) o.seed in
  info "workload map-build: %d VPs, %d domains, seed %d" (List.length w.Gen.vps) o.domains
    o.seed;
  Netcore.Pool.with_pool ~domains:o.domains (fun pool ->
      (* The 1-domain build is the reference every later build must
         reproduce byte for byte; it also warms the world's lazy
         indices before any timed build. *)
      let t1 = Clock.now () in
      let reference = attempt t "1-domain build" (fun () -> Build.plain w) in
      info "1-domain build %.3f s" (Clock.now () -. t1);
      let ref_digest = Option.map (fun b -> b.Build.digest) reference in
      let same what (b : Build.t) =
        check t (Some b.Build.digest = ref_digest) (what ^ ": Mapfile digest differs")
      in
      let nvps = float_of_int (List.length w.Gen.vps) in
      let timed_builds ~seconds f =
        let walls = ref [] and last = ref None in
        let start = Clock.now () in
        while Clock.now () -. start < seconds || List.length !walls < 1 do
          let t0 = Clock.now () in
          (match attempt t "build" f with
          | Some b ->
            walls := (Clock.now () -. t0) :: !walls;
            same "build" b;
            last := Some b
          | None -> walls := nan :: !walls)
        done;
        (Array.of_list (List.filter Float.is_finite !walls), !last)
      in
      let heap0 = settle_heap () in
      if not o.trace then begin
        let walls, last = timed_builds ~seconds:o.seconds (fun () -> Build.plain ~pool w) in
        let links = match last with Some b -> Build.links_correct_pct w b.Build.runs | None -> nan in
        info "builds %d, median %.3f s, heap at window start %.1f MB" (Array.length walls)
          (Stats.median walls) heap0;
        print_end_to_end t ~setup_s:(Stats.median setup_times) ~op_s:(Stats.median walls)
          ~work_per_s:(nvps *. float_of_int (Array.length walls) /. Stats.sum walls)
          ~links_pct:links ~heap_mb:(heap_peak_mb ())
      end
      else begin
        (* Untraced and traced builds alternate, so the overhead
           compares builds made under the same conditions. *)
        let c = Build.counts () in
        let untraced = ref [] and traced = ref [] and last = ref None in
        let start = Clock.now () in
        while Clock.now () -. start < o.seconds || !traced = [] do
          let u, _ = timed_builds ~seconds:0.0 (fun () -> Build.plain ~pool w) in
          Tracer.on := true;
          let tr, b = timed_builds ~seconds:0.0 (fun () -> Build.traced ~pool w c) in
          Tracer.on := false;
          untraced := u :: !untraced;
          traced := tr :: !traced;
          if b <> None then last := b
        done;
        let untraced = Array.concat !untraced and traced = Array.concat !traced in
        Tracer.on := true;
        let b = Option.get !last in
        let rng = Random.State.make [| o.seed; 3 |] in
        let snapshot = b.Build.shared.Bdrmap.Pipeline.snapshot in
        let sample = Serve.Qmap.sample_addrs (Serve.Qmap.build ~snapshot b.Build.mapfile) in
        let m = mix ~rng ~n:4096 ~sample (oracle b.Build.mapfile) in
        let probes, _, probes_ok = Serving.layer_probes ~snapshot b m in
        check t probes_ok "in-process owner answers disagree with the oracle";
        Tracer.on := false;
        let nb = Array.length traced in
        Layers.print t ~domains:o.domains ~heap0
          ~overhead_s:(Stats.median traced -. Stats.median untraced)
          (Layers.build ~domains:o.domains ~freezes:nb ~sweeps:nb
             ~snapshot:b.Build.shared.Bdrmap.Pipeline.snapshot c
          @ probes)
      end)
