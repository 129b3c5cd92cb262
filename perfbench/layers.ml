(* Per-layer metrics derived from the benchmark's spans and counts.
   Every traced workload reports every per-layer metric; a layer that
   does no work on a workload reports 0. *)

module Tr = Tracer

let div a b = if b > 0.0 then a /. b else 0.0

(* The map-build layers: freeze, public inputs, the per-VP layers, the
   sweep shape, merge and encode. [builds] is how many sweeps the spans
   cover; sums are reported per sweep. *)
let build ~domains ~freezes ~sweeps ~(snapshot : Routing.Bgp.snapshot)
    (c : Build.counts) =
  let fz = float_of_int (max 1 freezes) and nb = float_of_int (max 1 sweeps) in
  let per name = div (Tr.total name) nb in
  let freeze_s = div (Tr.total "bgp.freeze") fz in
  let words =
    float_of_int
      (Routing.Bgp.Snapshot.prefix_count snapshot * Routing.Bgp.Snapshot.asn_count snapshot)
  in
  let freeze_minor =
    div
      (List.fold_left (fun a s -> a +. s.Tr.minor_words) 0.0 (Tr.named "bgp.freeze"))
      fz
  in
  let vp = Tr.durations "vp" in
  let f = float_of_int in
  [ ("bgp.freeze_s", freeze_s, "s");
    ("bgp.freeze_ns_per_word", 1e9 *. div freeze_s words, "ns");
    ("bgp.freeze_minor_words", freeze_minor, "words");
    ("fwd.freeze_s", div (Tr.total "fwd.freeze") fz, "s");
    ("inputs.s", per "inputs", "s");
    ("input.s", per "ip2as.create" +. per "targets.blocks", "s");
    ("targets.blocks", div (f c.Build.blocks) nb, "count");
    ("collect.s", per "collect.run", "s");
    ("collect.ns_per_probe", 1e9 *. div (Tr.total "collect.run") (f c.Build.probes), "ns");
    ("engine.probes", div (f c.Build.probes) nb, "count");
    ("engine.cache_hit_ratio", div (f c.Build.hits) (f c.Build.lookups), "ratio");
    ("collect.traces", div (f c.Build.traces) nb, "count");
    ("collect.stopset_hits", div (f c.Build.stopset_hits) nb, "count");
    ("collect.alias_pairs_tested", div (f c.Build.alias_pairs) nb, "count");
    ("rgraph.build_s", per "rgraph.build", "s");
    ("rgraph.nodes", div (f c.Build.nodes) nb, "count");
    ("rgraph.ns_per_node", 1e9 *. div (Tr.total "rgraph.build") (f c.Build.nodes), "ns");
    ("heuristics.infer_s", per "heuristics.infer", "s");
    ( "heuristics.ns_per_router",
      1e9 *. div (Tr.total "heuristics.infer") (f c.Build.routers),
      "ns" );
    ("vp.p50_s", (if vp = [||] then 0.0 else Stats.median vp), "s");
    ("vp.max_s", (if vp = [||] then 0.0 else Stats.max vp), "s");
    ( "pool.busy_frac",
      div (Stats.sum vp) (float_of_int domains *. Tr.total "sweep"),
      "ratio" );
    ("aggregate.merge_s", per "aggregate.merge", "s");
    ("mapfile.encode_ms", 1e3 *. per "mapfile.encode", "ms") ]

(* Every per-layer metric, with its unit, in report order. *)
let names =
  [ ("bgp.freeze_s", "s");
    ("bgp.freeze_ns_per_word", "ns");
    ("bgp.freeze_minor_words", "words");
    ("bgp.refreeze_ms", "ms");
    ("bgp.refreeze_dirty_frac", "ratio");
    ("fwd.freeze_s", "s");
    ("fwd.patch_ms", "ms");
    ("evolve.advance_ms", "ms");
    ("inputs.s", "s");
    ("input.s", "s");
    ("targets.blocks", "count");
    ("collect.s", "s");
    ("collect.ns_per_probe", "ns");
    ("engine.probes", "count");
    ("engine.cache_hit_ratio", "ratio");
    ("collect.traces", "count");
    ("collect.stopset_hits", "count");
    ("collect.alias_pairs_tested", "count");
    ("rgraph.build_s", "s");
    ("rgraph.nodes", "count");
    ("rgraph.ns_per_node", "ns");
    ("heuristics.infer_s", "s");
    ("heuristics.ns_per_router", "ns");
    ("vp.p50_s", "s");
    ("vp.max_s", "s");
    ("pool.busy_frac", "ratio");
    ("pool.domains", "count");
    ("aggregate.merge_s", "s");
    ("mapfile.encode_ms", "ms");
    ("mapfile.decode_ms", "ms");
    ("mapfile.bytes", "bytes");
    ("store.write_ms", "ms");
    ("store.bytes_written", "bytes");
    ("qmap.build_ms", "ms");
    ("qmap.borders", "count");
    ("qmap.owner_ns.border", "ns");
    ("qmap.owner_ns.routed", "ns");
    ("qmap.owner_ns.miss", "ns");
    ("server.handle_ns_per_query", "ns");
    ("server.wire_us_per_frame", "us");
    ("server.minor_words_per_query", "words");
    ("server.rtt_p99_us", "us");
    ("server.reload_ms", "ms");
    ("owner.batch512_qps", "1/s");
    ("owner.p90_us", "us");
    ("owner.share_border", "ratio");
    ("owner.share_routed", "ratio");
    ("owner.share_miss", "ratio");
    ("epoch.tail_s", "s");
    ("epoch.tail_pct", "%");
    ("epoch.count", "count");
    ("epoch.reload_stall_p50_ms", "ms");
    ("epoch.distinguishable_frac", "ratio");
    ("heap.window_start_mb", "MB");
    ("span.count", "count");
    ("trace.overhead_ms", "ms");
    ("fail_frac", "ratio") ]

(* Fill in every name [got] leaves out with 0. *)
let complete got =
  List.iter
    (fun (n, _, _) ->
      if not (List.mem_assoc n names) then failwith ("perfbench: undeclared metric " ^ n))
    got;
  List.map
    (fun (n, u) ->
      match List.find_opt (fun (n', _, _) -> n' = n) got with
      | Some (_, v, u') ->
        if u' <> u then failwith (Printf.sprintf "perfbench: %s unit %s, declared %s" n u' u);
        (n, v, u)
      | None -> (n, 0.0, u))
    names

(* The per-layer result line: [got], plus the run-level figures every
   traced workload reports. [overhead_s] is the traced op_p50 minus the
   untraced one. *)
let print (t : Common.tally) ~domains ~heap0 ~overhead_s got =
  Common.print_result t
    (complete
       (got
       @ [ ("pool.domains", float_of_int domains, "count");
           ("heap.window_start_mb", heap0, "MB");
           ("span.count", float_of_int (List.length (Tr.all ())), "count");
           ("trace.overhead_ms", 1e3 *. overhead_s, "ms");
           ( "fail_frac",
             float_of_int t.Common.failed /. float_of_int (max 1 t.Common.attempted),
             "ratio" ) ]))
