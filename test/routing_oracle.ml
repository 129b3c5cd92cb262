(* A deliberately naive Gao-Rexford evaluator, the independent reference
   the packed snapshot is tested against. It shares nothing with
   [Routing.Bgp]'s staged propagation: every AS repeatedly adopts the
   best route its neighbours export, until a whole round changes
   nothing.

   Export: an origin announces to every neighbour; an AS holding a
   customer route announces it to every neighbour, and a peer or
   provider route only to its customers. Import: a route learned from
   a customer is a customer route, from a peer a peer route, from a
   provider a provider route, one hop longer than the exporter's.
   Selection: customer > peer > provider, then shortest path; every
   neighbour offering the winning (class, dist) is a next hop, so an
   origin's direct neighbours see the origin itself at dist 1. *)

open Netcore
module Bgp = Routing.Bgp
module R = Bgpdata.As_rel

type route = { cls : Bgp.route_class; dist : int; nexthops : Asn.Set.t }

let rank = function Bgp.Cust -> 0 | Bgp.Peer -> 1 | Bgp.Prov -> 2

(* [routes rels ~origins] maps every AS holding a route toward a prefix
   originated by [origins] to its best route (origins themselves hold
   none). Rounds are synchronous: each reads only the previous round's
   table. *)
let routes rels ~origins =
  let exported table ~from ~to_ =
    if Asn.Set.mem from origins then Some 0
    else
      match Asn.Map.find_opt from table with
      | Some r when r.cls = Bgp.Cust || R.rel rels ~of_:from ~with_:to_ = Some R.Customer ->
        Some r.dist
      | _ -> None
  in
  let best table x =
    Asn.Set.fold
      (fun y acc ->
        match (exported table ~from:y ~to_:x, R.rel rels ~of_:x ~with_:y) with
        | Some d, Some rel -> (
          let cls =
            match rel with R.Customer -> Bgp.Cust | R.Peer -> Bgp.Peer | R.Provider -> Bgp.Prov
          in
          let key = (rank cls, d + 1) in
          match acc with
          | Some (k, _, _) when k < key -> acc
          | Some (k, c, hops) when k = key -> Some (k, c, Asn.Set.add y hops)
          | _ -> Some (key, cls, Asn.Set.singleton y))
        | _ -> acc)
      (R.neighbors rels x) None
  in
  let round table =
    Asn.Set.fold
      (fun x next ->
        if Asn.Set.mem x origins then next
        else
          match best table x with
          | None -> next
          | Some ((_, dist), cls, nexthops) -> Asn.Map.add x { cls; dist; nexthops } next)
      (R.asns rels) Asn.Map.empty
  in
  let rec fix n table =
    if n > 1000 then failwith "Routing_oracle: no convergence after 1000 rounds";
    let next = round table in
    if Asn.Map.equal ( = ) next table then table else fix (n + 1) next
  in
  fix 0 Asn.Map.empty

(* Per-prefix oracle tables for a whole world, computed once. *)
type t = {
  rels : R.t;
  origins : (Prefix.t * Asn.Set.t) list;  (* sorted by prefix, MOAS merged *)
  tables : (Prefix.t, route Asn.Map.t) Hashtbl.t;
}

let of_world (w : Topogen.Gen.world) =
  let rels = w.Topogen.Gen.rels_truth in
  let merged =
    List.fold_left
      (fun m (p, os) ->
        Prefix.Map.update p
          (fun prev -> Some (Asn.Set.union os (Option.value ~default:Asn.Set.empty prev)))
          m)
      Prefix.Map.empty (Topogen.Gen.originated w)
  in
  let origins = Prefix.Map.bindings merged in
  let tables = Hashtbl.create 256 in
  List.iter (fun (p, os) -> Hashtbl.replace tables p (routes rels ~origins:os)) origins;
  { rels; origins; tables }

let prefixes o = List.map fst o.origins

(* The boxed projection both sides are compared through: class, dist,
   ascending next hops, and the canonical (lowest-ASN) parent. *)
let proj = function
  | None -> None
  | Some (r : Bgp.route) -> Some (r.Bgp.cls, r.Bgp.dist, Asn.Set.elements r.Bgp.nexthops, r.Bgp.parent)

let route o asn p =
  match Option.bind (Hashtbl.find_opt o.tables p) (Asn.Map.find_opt asn) with
  | None -> None
  | Some r -> Some (r.cls, r.dist, Asn.Set.elements r.nexthops, Asn.Set.min_elt_opt r.nexthops)

(* Longest-prefix match by scanning every originated prefix. *)
let lookup o asn addr =
  let covering = List.filter (fun (p, _) -> Prefix.mem addr p) o.origins in
  match List.sort (fun (p, _) (q, _) -> Int.compare (Prefix.len q) (Prefix.len p)) covering with
  | [] -> None
  | (p, _) :: _ -> Some (p, route o asn p)

(* Follow canonical parents to an origin. *)
let as_path o asn p =
  let os = Option.value ~default:Asn.Set.empty (List.assoc_opt p o.origins) in
  let rec follow x acc guard =
    if guard > 64 then None
    else if Asn.Set.mem x os then Some (List.rev (x :: acc))
    else
      match route o x p with
      | Some (_, _, _, Some y) -> follow y (x :: acc) (guard + 1)
      | _ -> None
  in
  follow asn [] 0

(* [check o bgp ~asns] compares every (asn, prefix) route and as_path
   of [bgp] against the oracle, plus the first ASN's lookup at every
   prefix's first and last address and at one unrouted address;
   [Error] names the first disagreement. *)
let check o bgp ~asns =
  let exception Mismatch of string in
  let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt in
  try
    if Bgp.prefixes bgp <> prefixes o then fail "prefix sets differ";
    List.iter
      (fun p ->
        List.iter
          (fun a ->
            if proj (Bgp.route bgp a p) <> route o a p then
              fail "route AS%d %s differs" a (Prefix.to_string p);
            if Bgp.as_path bgp a p <> as_path o a p then
              fail "as_path AS%d %s differs" a (Prefix.to_string p))
          asns)
      (prefixes o);
    (match asns with
    | [] -> ()
    | a :: _ ->
      List.iter
        (fun addr ->
          if
            Option.map (fun (p, r) -> (p, proj r)) (Bgp.lookup bgp a addr)
            <> lookup o a addr
          then fail "lookup AS%d %s differs" a (Ipv4.to_string addr))
        (Ipv4.of_string_exn "203.0.113.9"
        :: List.concat_map (fun p -> [ Prefix.first p; Prefix.last p ]) (prefixes o)));
    Ok ()
  with Mismatch m -> Error m
