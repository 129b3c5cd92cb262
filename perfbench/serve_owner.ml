(* Workload serve-owner: the map-build map for the same seed, compiled
   by Qmap.build ~snapshot and served by Server on its own domain. One
   closed-loop client connection on the main domain sends owner
   batches: 512 addresses a frame for throughput, then 1 for latency. *)

open Common
module P = Bdrmap.Pipeline

let run (o : opts) =
  let t = tally () in
  with_workdir (fun dir ->
      (* One pool for the whole run, as on the other workloads: on
         OCaml 5.1 the heap of a domain that has ended drops out of the
         Gc's figures until another domain adopts it, so ending a pool
         after each set-up made the heap peak read one of two levels. *)
      Netcore.Pool.with_pool ~domains:o.domains (fun pool ->
          let path = Filename.concat dir "owner.sock" in
          let c = Build.counts () in
          if o.trace then Tracer.on := true;
          (* Set-up: world, map build, query map, server start, connection. *)
          let setup () =
            let t0 = Clock.now () in
            let w = Map_build.world o.seed in
            let b = if o.trace then Build.traced ~pool w c else Build.plain ~pool w in
            let qmap = Serve.Qmap.build ~snapshot:b.Build.shared.P.snapshot b.Build.mapfile in
            let live = Serving.start ~path qmap in
            (Clock.now () -. t0, b, live, qmap)
          in
          let reps = if o.trace then 1 else 3 in
          (* Earlier set-ups keep only their time and digest, so the heap
             holds one build, as a server would. Each set-up starts from
             a settled heap. *)
          let rec setups k acc =
            ignore (settle_heap ());
            let dt, b, live, qmap = setup () in
            let acc = (dt, b.Build.digest) :: acc in
            if k = reps then (live, qmap, b, acc)
            else begin
              Serving.stop live;
              setups (k + 1) acc
            end
          in
          let live, qmap, b, done_ = setups 1 [] in
          Tracer.on := false;
          List.iter
            (fun (_, d) -> check t (d = b.Build.digest) "set-up Mapfile digests differ")
            done_;
          Fun.protect
            ~finally:(fun () -> Serving.stop live)
            (fun () ->
              let rng = Random.State.make [| o.seed; 2 |] in
              let m =
                mix ~rng ~n:8192 ~sample:(Serve.Qmap.sample_addrs qmap) (oracle b.Build.mapfile)
              in
              let links = Build.links_correct_pct b.Build.world b.Build.runs in
              let share c =
                float_of_int (Array.length (class_addrs m c)) /. float_of_int (Array.length m.addrs)
              in
              info
                "workload serve-owner: %d border /32s, mix %d addresses (border %.3f, routed %.3f, \
                 miss %.3f), 1 client, %d domains, seed %d"
                (Serve.Qmap.border_count qmap) (Array.length m.addrs) (share Border) (share Routed)
                (share Miss) o.domains o.seed;
              let heap0 = settle_heap () in
              Serving.warm live m ~batch:512 ~frames:200;
              Serving.warm live m ~batch:1 ~frames:2000;
              (* The window alternates half-second slices of batch-512
                 frames (throughput) and batch-1 frames (latency), so both
                 see the same machine. *)
              let cursor = ref 0 in
              let window = if o.trace then o.seconds /. 2.0 else o.seconds in
              let slices = max 1 (int_of_float (window /. 1.0)) in
              (* Serving-domain minor words over the batch-512 slices. *)
              let words = ref 0 and words_q = ref 0 in
              let tput = ref [] and lat = ref [] in
              for _ = 1 to slices do
                let g0 = Serving.minor_words live in
                let p =
                  Serving.phase live m ~cursor ~batch:512 ~seconds:0.5 ~keep_rtts:true ~traced:false
                in
                (match (g0, Serving.minor_words live) with
                | Some (w0, q0), Some (w1, q1) ->
                  words := !words + (w1 - w0);
                  words_q := !words_q + (q1 - q0)
                | _ -> check t false "op_gcstat failed");
                Serving.tally_phase t p;
                tput := p :: !tput;
                let p =
                  Serving.phase live m ~cursor ~batch:1 ~seconds:0.5 ~keep_rtts:true ~traced:false
                in
                Serving.tally_phase t p;
                lat := p :: !lat
              done;
              let rtts = Array.concat (List.map (fun p -> p.Serving.rtts) !lat) in
              let p50 = Stats.median rtts in
              let rate p = float_of_int p.Serving.queries /. p.Serving.wall in
              (* Batch-512 throughput: a frame's answers over the median
                 batch-512 round trip, taken over every frame of the run.
                 It is a per-layer figure only: over ten seeds it spread
                 0.22 (quartile distance over median), and the slice
                 rates (mean rates over half a second, which follow the
                 frames a busy host stalls) 0.33, against 0.04 for the
                 batch-1 median round trip. *)
              let frames512 = Array.concat (List.map (fun p -> p.Serving.rtts) !tput) in
              let qps512 = 512.0 /. Stats.median frames512 in
              let slice_qps512 = Stats.median (Array.of_list (List.map rate !tput)) in
              info "batch 512: %.0f answers/s (slice median %.0f) over %d frames; batch 1: p50 \
                    %.1f us, slice median %.0f answers/s over %d frames; %d slices each"
                qps512 slice_qps512 (Array.length frames512) (1e6 *. p50)
                (Stats.median (Array.of_list (List.map rate !lat)))
                (Array.length rtts) slices;
              if not o.trace then
                print_end_to_end t
                  ~setup_s:(Stats.median (Array.of_list (List.map fst done_)))
                  ~op_s:p50 ~work_per_s:(1.0 /. p50) ~links_pct:links ~heap_mb:(heap_peak_mb ())
              else begin
                Tracer.on := true;
                let traced =
                  Serving.phase live m ~cursor ~batch:1 ~seconds:(window /. 2.0) ~keep_rtts:true
                    ~traced:true
                in
                Serving.tally_phase t traced;
                let probes, h1_ns, probes_ok =
                  Serving.layer_probes ~snapshot:b.Build.shared.P.snapshot b m
                in
                check t probes_ok "in-process owner answers disagree with the oracle";
                Tracer.on := false;
                let minor_per_query = float_of_int !words /. float_of_int (max 1 !words_q) in
                Layers.print t ~domains:o.domains ~heap0
                  ~overhead_s:(Stats.median traced.Serving.rtts -. p50)
                  (Layers.build ~domains:o.domains ~freezes:1 ~sweeps:1
                     ~snapshot:b.Build.shared.P.snapshot c
                  @ probes
                  @ [ ("owner.batch512_qps", qps512, "1/s");
                      ("server.wire_us_per_frame", (1e6 *. p50) -. (h1_ns /. 1e3), "us");
                      ("server.minor_words_per_query", minor_per_query, "words");
                      ("server.rtt_p99_us", 1e6 *. Stats.percentile rtts 99.0, "us");
                      ("owner.p90_us", 1e6 *. Stats.percentile rtts 90.0, "us");
                      ("owner.share_border", share Border, "ratio");
                      ("owner.share_routed", share Routed, "ratio");
                      ("owner.share_miss", share Miss, "ratio") ])
              end)))
