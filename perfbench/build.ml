(* One map build, from a generated world to the encoded Mapfile bytes:
   freeze routing, derive the public inputs, run every VP's pipeline on
   the pool, merge, encode. [plain] is the program's own path
   (Pipeline.execute_all, the one `run --all-vps` takes); [traced]
   calls the same layers one by one, in Pipeline.execute's order,
   inside the benchmark's spans. *)

open Netcore
module Gen = Topogen.Gen
module P = Bdrmap.Pipeline
module Bgp = Routing.Bgp
module Fwd = Routing.Forwarding
module Engine = Probesim.Engine
module Tr = Tracer

type t = {
  world : Gen.world;
  shared : P.shared;
  runs : P.run list;
  mapfile : Bdrmap.Mapfile.t;
  bytes : bytes;
  digest : string;
}

let pps = 100.0

let merge_input vps runs =
  List.map2
    (fun (vp : Gen.vp) (r : P.run) -> (vp.Gen.vp_name, r.P.graph, r.P.inference))
    vps runs

let digest b = Digest.to_hex (Digest.bytes b)

let finish w shared runs merged =
  let bgp = Bgp.of_snapshot shared.P.snapshot in
  let mapfile = Bdrmap.Mapfile.make ~host_asns:w.Gen.siblings ~bgp merged in
  let bytes = Bdrmap.Mapfile.to_bytes mapfile in
  { world = w; shared; runs; mapfile; bytes; digest = digest bytes }

let plain ?pool w =
  let shared = P.freeze_routing w in
  let inputs = P.inputs_of_world w (Bgp.of_snapshot shared.P.snapshot) in
  let vps = w.Gen.vps in
  let runs = P.execute_all ?pool ~shared w inputs ~vps in
  finish w shared runs (Bdrmap.Aggregate.merge_runs ?pool (merge_input vps runs))

let fresh_bgp (w : Gen.world) =
  Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
    ~selective:w.Gen.selective

(* Pipeline.freeze_routing, one span per layer. *)
let freeze ?parent (w : Gen.world) =
  let snapshot = Tr.span ?parent "bgp.freeze" (fun _ -> Bgp.freeze (fresh_bgp w)) in
  let plan =
    Tr.span ?parent "fwd.freeze" (fun _ ->
        Fwd.freeze ~egress_for:w.Gen.siblings (Fwd.create w.Gen.net (Bgp.of_snapshot snapshot)))
  in
  { P.snapshot; plan }

(* Pipeline.execute, one layer per span. *)
let vp_layers ~parent ~cfg ~(shared : P.shared) (w : Gen.world) (inputs : P.inputs) vp =
  Tr.span ~parent "vp" (fun id ->
      let sp name f = Tr.span ~parent:id name (fun _ -> f ()) in
      let ip2as =
        sp "ip2as.create" (fun () ->
            Bdrmap.Ip2as.create ~rib:inputs.P.rib ~ixp:inputs.P.ixp
              ~delegations:inputs.P.delegations ~vp_asns:inputs.P.vp_asns)
      in
      let blocks =
        sp "targets.blocks" (fun () ->
            Bdrmap.Targets.blocks ~rib:inputs.P.rib ~vp_asns:inputs.P.vp_asns)
      in
      let engine =
        sp "engine.create" (fun () ->
            let fwd = Fwd.create ~plan:shared.P.plan w.Gen.net (Bgp.of_snapshot shared.P.snapshot) in
            Engine.create ~pps w fwd)
      in
      let collection = sp "collect.run" (fun () -> Bdrmap.Collect.run engine cfg ip2as ~vp blocks) in
      let graph = sp "rgraph.build" (fun () -> Bdrmap.Rgraph.build collection) in
      let inference =
        sp "heuristics.infer" (fun () ->
            Bdrmap.Heuristics.infer cfg ip2as ~rels:inputs.P.rels graph collection)
      in
      ( List.length blocks,
        { P.cfg;
          ip2as;
          inputs;
          collection;
          graph;
          inference;
          probes = Engine.probe_count engine;
          cache = Engine.stats engine } ))

(* Per-VP layer counts, summed over the VPs of one sweep. *)
type counts = {
  mutable blocks : int;
  mutable probes : int;
  mutable hits : int;
  mutable lookups : int;
  mutable traces : int;
  mutable stopset_hits : int;
  mutable alias_pairs : int;
  mutable nodes : int;
  mutable routers : int;
}

let counts () =
  { blocks = 0; probes = 0; hits = 0; lookups = 0; traces = 0; stopset_hits = 0;
    alias_pairs = 0; nodes = 0; routers = 0 }

let count c (blocks, (r : P.run)) =
  let col = r.P.collection in
  c.blocks <- c.blocks + blocks;
  c.probes <- c.probes + r.P.probes;
  c.hits <- c.hits + r.P.cache.Engine.hits;
  c.lookups <- c.lookups + r.P.cache.Engine.hits + r.P.cache.Engine.misses;
  c.traces <- c.traces + List.length col.Bdrmap.Collect.traces;
  c.stopset_hits <- c.stopset_hits + col.Bdrmap.Collect.stopset_hits;
  c.alias_pairs <- c.alias_pairs + col.Bdrmap.Collect.alias_pairs_tested;
  c.nodes <- c.nodes + Bdrmap.Rgraph.node_count r.P.graph;
  c.routers <- c.routers + List.length r.P.inference.Bdrmap.Heuristics.routers

(* The sweep: freeze the shared read-only indices, then every VP's
   layers on the pool. [per_vp] wraps each VP's run (the churn loop
   adds its run-store round trip there). *)
let sweep ?pool ?(per_vp = fun _vp compute -> compute ()) ~parent ~cfg ~shared w inputs c =
  P.freeze_shared w inputs;
  let vps = w.Gen.vps in
  let out =
    Tr.span ~parent "sweep" (fun sid ->
        let f vp = per_vp vp (fun () -> vp_layers ~parent:sid ~cfg ~shared w inputs vp) in
        match pool with None -> List.map f vps | Some p -> Pool.map p f vps)
  in
  List.iter (count c) out;
  List.map snd out

let traced ?pool w c =
  Tr.span "build" (fun root ->
      let shared = freeze ~parent:root w in
      let inputs =
        Tr.span ~parent:root "inputs" (fun _ ->
            P.inputs_of_world w (Bgp.of_snapshot shared.P.snapshot))
      in
      let cfg = Bdrmap.Config.default ~vp_asns:inputs.P.vp_asns in
      let runs = sweep ?pool ~parent:root ~cfg ~shared w inputs c in
      let merged =
        Tr.span ~parent:root "aggregate.merge" (fun _ ->
            Bdrmap.Aggregate.merge_runs ?pool (merge_input w.Gen.vps runs))
      in
      Tr.span ~parent:root "mapfile.encode" (fun _ -> finish w shared runs merged))

(* Link accuracy of every VP's inference against the generator's ground
   truth, pooled over the VPs. *)
let links_correct_pct (w : Gen.world) runs =
  let evals =
    List.concat_map
      (fun (r : P.run) -> Bdrmap.Validate.links w r.P.graph r.P.inference)
      runs
  in
  (Bdrmap.Validate.summarize evals).Bdrmap.Validate.pct_correct
