open Netcore
module Net = Topogen.Net

(* A frozen forwarding plan: IGP distance tables, egress choices and
   the interdomain-link index precomputed once and never written again.
   The bulk — distance rows, egress lids — is packed into flat Bigarray
   rows the GC never traces, indexed by small per-router row tables;
   each worker keeps its own private tables for the (cold) keys the
   plan does not cover.

   [p_egress] encodes one int per (planned router, prefix slot):
   [-2] unplanned (fall back to the private memo), [-1] planned with no
   egress, otherwise the chosen link id. *)
type float_ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type plan = {
  p_routers : int;  (* row stride of [p_igp] *)
  p_igp_row : int array;  (* target rid -> row index into [p_igp], or -1 *)
  p_igp : float_ba;  (* rows x p_routers IGP distances *)
  p_egr_row : int array;  (* rid -> row index into [p_egress], or -1 *)
  p_pfx : Prefix.t array;  (* sorted prefix slots; = Bgp snapshot slots *)
  p_egress : int_ba;  (* rows x |p_pfx| egress lids (-2 unplanned, -1 none) *)
  p_between : (Asn.t * Asn.t, Net.link list) Hashtbl.t;
}

module Itbl = Hashtbl.Make (Int)

type t = {
  net : Net.t;
  bgp : Bgp.t;
  snap : Bgp.snapshot;  (* [bgp]'s snapshot, for the slot layer *)
  plan : plan option;
  (* Distances to an unplanned target router from every router, by
     Dijkstra from the target over internal links of its AS. *)
  igp : float_ba Itbl.t;
  (* Egress cells the plan does not cover, keyed by [egress_key]: the
     chosen link id, or -1 for none. *)
  egress_memo : int Itbl.t;
  (* rid -> snapshot ASN slot of its owner; -2 until first read. *)
  aslots : int array;
  (* (asn1, asn2) -> interdomain links between them. *)
  mutable between : (Asn.t * Asn.t, Net.link list) Hashtbl.t option;
}

let create ?plan net bgp =
  { net; bgp; snap = Bgp.snapshot_of bgp; plan; igp = Itbl.create 512;
    egress_memo = Itbl.create 4096; aslots = Array.make (Net.router_count net) (-2);
    between = None }

let build_between net =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (l : Net.link) ->
      let oa = (Net.router net (fst l.Net.a)).Net.owner in
      let ob = (Net.router net (fst l.Net.b)).Net.owner in
      let key = if oa < ob then (oa, ob) else (ob, oa) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (l :: cur))
    (Net.interdomain_links net);
  tbl

let links_between t x y =
  let tbl =
    match t.plan with
    | Some plan -> plan.p_between
    | None -> (
      match t.between with
      | Some tbl -> tbl
      | None ->
        let tbl = build_between t.net in
        t.between <- Some tbl;
        tbl)
  in
  let key = if x < y then (x, y) else (y, x) in
  Option.value ~default:[] (Hashtbl.find_opt tbl key)

(* Dijkstra from [target] over internal links of its AS, on a binary
   heap with lazy deletion, written into [row] from offset [base]:
   relaxations push duplicates and stale pops are skipped by the
   [d <= dist x] guard. *)
let compute_dist_into net target (row : float_ba) base =
  let n = Net.router_count net in
  Bigarray.Array1.fill (Bigarray.Array1.sub row base n) infinity;
  let pq =
    Heap.create (fun (d1, x1) (d2, x2) ->
        match Float.compare d1 d2 with 0 -> Int.compare x1 x2 | c -> c)
  in
  Heap.push pq (0.0, target);
  Bigarray.Array1.set row (base + target) 0.0;
  let rec drain () =
    match Heap.pop_opt pq with
    | None -> ()
    | Some (d, x) ->
      if d <= Bigarray.Array1.get row (base + x) then
        Array.iter
          (fun ((l : Net.link), y) ->
            let nd = d +. l.Net.weight in
            if nd < Bigarray.Array1.get row (base + y) then begin
              Bigarray.Array1.set row (base + y) nd;
              Heap.push pq (nd, y)
            end)
          (Net.internal_neighbors net x);
      drain ()
  in
  drain ()

(* The private distance row toward an unplanned [target], computed on
   first use. *)
let private_row t target =
  match Itbl.find t.igp target with
  | row -> row
  | exception Not_found ->
    let row =
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
        (Net.router_count t.net)
    in
    compute_dist_into t.net target row 0;
    Itbl.replace t.igp target row;
    row

(* Distance from [rid] to [target] (same AS assumed). Planned targets
   read one float out of the packed row; unplanned targets fall back to
   the private per-instance memo. *)
let dist_at t ~target ~rid =
  match t.plan with
  | Some plan when plan.p_igp_row.(target) >= 0 ->
    Bigarray.Array1.get plan.p_igp
      ((plan.p_igp_row.(target) * plan.p_routers) + rid)
  | _ -> Bigarray.Array1.get (private_row t target) rid

let igp_distance t ~from_rid ~to_rid =
  let ra = Net.router t.net from_rid and rb = Net.router t.net to_rid in
  if not (Asn.equal ra.Net.owner rb.Net.owner) then infinity
  else dist_at t ~target:to_rid ~rid:from_rid

(* Next internal hop from [rid] toward [target]: among the neighbors
   whose (link weight + distance) lies within the ECMP tolerance of the
   minimum, hash the flow identifier the way routers hash five-tuples.
   Flow 0 deterministically takes the canonical (lowest link id) path,
   which is what Paris traceroute's fixed flow identifier guarantees;
   classic traceroute varies the flow per probe and wobbles across
   equal-cost paths. *)
let ecmp_tolerance = 1.02

(* [next_toward ~flow t rid target row base] reads [target]'s distance
   row ([row] from [base]) once per neighbour and returns a link id, or
   -1 when no neighbour reaches [target]. Flow 0 is the minimum
   (distance, link id), found in one pass. *)
let next_toward ~flow t rid target (row : float_ba) base =
  let adj = Net.internal_neighbors t.net rid in
  if flow = 0 then begin
    let best = ref (-1) and best_d = ref infinity in
    for i = 0 to Array.length adj - 1 do
      let (l : Net.link), y = adj.(i) in
      let dy = Bigarray.Array1.get row (base + y) in
      if dy < infinity then begin
        let d = l.Net.weight +. dy in
        if d < !best_d || (d = !best_d && l.Net.lid < !best) then begin
          best_d := d;
          best := l.Net.lid
        end
      end
    done;
    !best
  end
  else begin
    let candidates = ref [] in
    let best = ref infinity in
    Array.iter
      (fun ((l : Net.link), y) ->
        let dy = Bigarray.Array1.get row (base + y) in
        if dy < infinity then begin
          let d = l.Net.weight +. dy in
          if d < !best then best := d;
          candidates := (d, l) :: !candidates
        end)
      adj;
    let eligible =
      List.filter (fun (d, _) -> d <= !best *. ecmp_tolerance) !candidates
      |> List.sort (fun (d1, (l1 : Net.link)) (d2, l2) ->
             match Float.compare d1 d2 with
             | 0 -> Int.compare l1.Net.lid l2.Net.lid
             | c -> c)
      |> List.map snd
    in
    match eligible with
    | [] -> -1
    | [ l ] -> l.Net.lid
    | ls ->
      let h = Hashtbl.hash (flow, rid, target) in
      (List.nth ls (h mod List.length ls)).Net.lid
  end

let internal_next_hop ~flow t rid target =
  if rid = target then -1
  else
    match t.plan with
    | Some plan when plan.p_igp_row.(target) >= 0 ->
      next_toward ~flow t rid target plan.p_igp
        (plan.p_igp_row.(target) * plan.p_routers)
    | _ -> next_toward ~flow t rid target (private_row t target) 0

(* Candidate egress links for [rid]'s AS toward prefix [p]: links to any
   best next-hop AS, honouring per-link selective announcement when the
   neighbor is the origin. *)
let egress_candidates t asn p (route : Bgp.route) =
  Asn.Set.fold
    (fun n acc ->
      let ls = links_between t asn n in
      let ls =
        if Bgp.is_origin t.bgp n p then
          match Bgp.allowed_links t.bgp ~origin:n ~p with
          | None -> ls
          | Some lids -> (
            match List.filter (fun (l : Net.link) -> List.mem l.Net.lid lids) ls with
            | [] -> ls  (* no pinned link toward this neighbor: unrestricted *)
            | pinned -> pinned)
        else ls
      in
      List.rev_append ls acc)
    route.Bgp.nexthops []

(* The single scoring path behind both the private memo and the plan:
   hot-potato (IGP-nearest near-side router), ties broken on lowest
   link id, encoded as the chosen lid or -1 for none. *)
let egress_lid t rid p route =
  let asn = (Net.router t.net rid).Net.owner in
  let candidates = egress_candidates t asn p route in
  let score (l : Net.link) =
    let near =
      let ra = fst l.Net.a in
      if Asn.equal (Net.router t.net ra).Net.owner asn then ra else fst l.Net.b
    in
    (igp_distance t ~from_rid:rid ~to_rid:near, l.Net.lid)
  in
  let best =
    List.fold_left
      (fun acc l ->
        let s = score l in
        if fst s = infinity then acc
        else
          match acc with
          | Some (s', _) when s' <= s -> acc
          | _ -> Some (s, l))
      None candidates
  in
  match best with
  | Some (_, l) -> l.Net.lid
  | None -> -1

let aslot_of t rid =
  if rid >= Array.length t.aslots then
    Bgp.Snapshot.asn_slot t.snap (Net.router t.net rid).Net.owner
  else begin
    if t.aslots.(rid) = -2 then
      t.aslots.(rid) <- Bgp.Snapshot.asn_slot t.snap (Net.router t.net rid).Net.owner;
    t.aslots.(rid)
  end

(* One int per egress cell: the router and the prefix slot. *)
let egress_key t rid pslot = (rid * Bgp.Snapshot.prefix_count t.snap) + pslot

(* The egress link id of router [rid] toward prefix slot [pslot], given
   that [rid]'s AS has a route there; -1 for none. The plan's cell
   answers when it covers the router; otherwise the private memo, which
   decodes the boxed route only on a miss. *)
let choose_egress t rid ~pslot ~aslot =
  let planned =
    match t.plan with
    | Some plan when plan.p_egr_row.(rid) >= 0 ->
      Bigarray.Array1.get plan.p_egress
        ((plan.p_egr_row.(rid) * Array.length plan.p_pfx) + pslot)
    | _ -> -2
  in
  if planned > -2 then planned
  else
    let key = egress_key t rid pslot in
    match Itbl.find t.egress_memo key with
    | lid -> lid
    | exception Not_found ->
      let route = Option.get (Bgp.Snapshot.route_at t.snap ~pslot ~aslot) in
      let lid = egress_lid t rid (Bgp.Snapshot.prefix_of_slot t.snap pslot) route in
      Itbl.replace t.egress_memo key lid;
      lid

(* ------------------------------------------------------------------ *)
(* Incremental plan patch, the forwarding side of [Bgp.refreeze].      *)

(* [build ~egress_for t ~old ~churn ~dirty] rebuilds only the plan
   state reachable from dirty inputs and returns it with the number of
   re-scored egress cells. [t] must be a fresh instance over the
   post-churn net and a [Bgp.t] attached to the patched snapshot; [old]
   is the pre-churn plan; [dirty] the BGP-dirty prefixes
   ([Bgp.refreeze_stats.rf_dirty_prefixes]). A full [freeze] is a build
   against the empty plan, where nothing can be reused.

   What can be reused, and why:
   - IGP distance rows: evolution never touches the *internal* topology
     of a pre-churn AS (new routers belong to new ASes, link events are
     interdomain), so an old target's distance row is still exact;
     routers added since are internally unreachable from it (infinity).
     Only endpoints that gained a row (new interconnects) run Dijkstra;
     when none did and no router was added, the old table is shared.
   - Egress cells: a cell (router of AS a, prefix p) is recomputed when
     p is BGP-dirty (its route may differ), when p left/entered the
     prefix set, or when some next hop z of a's route has (a, z) in the
     changed-interconnect set (candidate links differ with the route
     intact). Everything else scores identically, so the old lid is
     copied.
   IGP rows cover every interdomain-link endpoint: these routers are
   the targets of all egress scoring and of the internal walks toward
   an egress, and they are identical for every VP. Home-router targets
   stay lazy in each worker's private table. Egress rows cover the hot
   ASes [egress_for] (the VP-owning ones): every probe starts there, so
   these (rid, prefix slot) cells recur in every worker. Prefix columns
   follow the snapshot's slot order, so [Bgp.Snapshot] prefix slots index
   them directly. *)
let build ~egress_for t ~old ~(churn : Bgp.churn) ~dirty =
  let p_between = build_between t.net in
  let p_routers = Net.router_count t.net in
  let old_routers = old.p_routers in
  let p_igp_row = Array.make p_routers (-1) in
  let igp_targets = ref [] in
  let igp_rows = ref 0 in
  List.iter
    (fun (l : Net.link) ->
      List.iter
        (fun rid ->
          if p_igp_row.(rid) < 0 then begin
            p_igp_row.(rid) <- !igp_rows;
            incr igp_rows;
            igp_targets := rid :: !igp_targets
          end)
        [ fst l.Net.a; fst l.Net.b ])
    (Net.interdomain_links t.net);
  (* With no router added and every target already holding an old row,
     each row would be copied verbatim: share the old table (never
     written after its build) under the old row indices. Rows of
     targets that lost their last interconnect stay unreferenced. *)
  let share =
    p_routers = old_routers
    && List.for_all (fun rid -> old.p_igp_row.(rid) >= 0) !igp_targets
  in
  let p_igp =
    if share then begin
      List.iter (fun rid -> p_igp_row.(rid) <- old.p_igp_row.(rid)) !igp_targets;
      old.p_igp
    end
    else begin
      let p_igp =
        Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
          (!igp_rows * p_routers)
      in
      List.iter
        (fun rid ->
          let base = p_igp_row.(rid) * p_routers in
          let orow = if rid < old_routers then old.p_igp_row.(rid) else -1 in
          if orow >= 0 then begin
            Bigarray.Array1.blit
              (Bigarray.Array1.sub old.p_igp (orow * old_routers) old_routers)
              (Bigarray.Array1.sub p_igp base old_routers);
            Bigarray.Array1.fill
              (Bigarray.Array1.sub p_igp (base + old_routers) (p_routers - old_routers))
              infinity
          end
          else compute_dist_into t.net rid p_igp base)
        !igp_targets;
      p_igp
    end
  in
  let p_pfx = Array.of_list (Bgp.prefixes t.bgp) in
  let np = Array.length p_pfx in
  let np_old = Array.length old.p_pfx in
  let new2old = Array.make (max 1 np) (-1) in
  let i = ref 0 and j = ref 0 in
  while !i < np_old && !j < np do
    match Prefix.compare old.p_pfx.(!i) p_pfx.(!j) with
    | 0 ->
      new2old.(!j) <- !i;
      incr i;
      incr j
    | c when c < 0 -> incr i
    | _ -> incr j
  done;
  let dirty_col = Array.make (max 1 np) false in
  List.iter
    (fun p ->
      let s = Bgp.Snapshot.prefix_slot t.snap p in
      if s >= 0 then dirty_col.(s) <- true)
    dirty;
  for c = 0 to np - 1 do
    if new2old.(c) < 0 then dirty_col.(c) <- true
  done;
  (* ASes whose physical interconnects changed with routing intact
     (parallel-link add/remove, plus new-stub attachments for safety). *)
  let changed_with = Asn.Tbl.create 8 in
  let note (x, y) =
    let add a b =
      Asn.Tbl.replace changed_with a
        (Asn.Set.add b
           (Option.value ~default:Asn.Set.empty (Asn.Tbl.find_opt changed_with a)))
    in
    add x y;
    add y x
  in
  List.iter note churn.Bgp.ch_links_changed;
  List.iter
    (fun (c, provs) -> Asn.Set.iter (fun pr -> note (c, pr)) provs)
    churn.Bgp.ch_new_stubs;
  let p_egr_row = Array.make p_routers (-1) in
  let egr_rows = ref 0 in
  Asn.Set.iter
    (fun asn ->
      List.iter
        (fun (r : Net.router) ->
          if p_egr_row.(r.Net.rid) < 0 then begin
            p_egr_row.(r.Net.rid) <- !egr_rows;
            incr egr_rows
          end)
        (Net.routers_of t.net asn))
    egress_for;
  let p_egress =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (!egr_rows * np)
  in
  Bigarray.Array1.fill p_egress (-2);
  let plan =
    { p_routers; p_igp_row; p_igp; p_egr_row; p_pfx; p_egress; p_between }
  in
  (* Scoring runs against the plan itself: the IGP rows above are
     exactly the distances egress selection needs, and the [-2] fill
     keeps unwritten egress cells on the private memo during the fill. *)
  let scored = { t with plan = Some plan } in
  let snap = Bgp.snapshot_of t.bgp in
  let patched_cells = ref 0 in
  (* A router's egress toward a single next-hop AS [n] does not depend
     on the prefix unless [n] pins the prefix to chosen links, so such
     cells score once per (router, next hop): [by_hop] holds the lid by
     next-hop slot, [-2] for not yet scored. *)
  let by_hop = Array.make (max 1 (Bgp.Snapshot.asn_count snap)) (-2) in
  let score rid p ~pslot ~aslot w =
    let n = Bgp.Snapshot.nexthop_slot snap w 0 in
    let route () = Option.get (Bgp.Snapshot.route_at snap ~pslot ~aslot) in
    if
      Bgp.Snapshot.word_nexthop_count w > 1
      || Option.is_some
           (Bgp.allowed_links t.bgp ~origin:(Bgp.Snapshot.asn_of_slot snap n) ~p)
    then egress_lid scored rid p (route ())
    else begin
      if by_hop.(n) = -2 then by_hop.(n) <- egress_lid scored rid p (route ());
      by_hop.(n)
    end
  in
  Asn.Set.iter
    (fun asn ->
      let aslot = Bgp.Snapshot.asn_slot snap asn in
      let affected =
        Option.value ~default:Asn.Set.empty (Asn.Tbl.find_opt changed_with asn)
      in
      List.iter
        (fun (r : Net.router) ->
          Array.fill by_hop 0 (Array.length by_hop) (-2);
          let base = p_egr_row.(r.Net.rid) * np in
          let obase =
            if r.Net.rid < old_routers && old.p_egr_row.(r.Net.rid) >= 0 then
              old.p_egr_row.(r.Net.rid) * np_old
            else -1
          in
          (* The reuse test reads next hops straight out of the packed
             word; only re-scored cells decode the boxed route. *)
          let via_affected w =
            let hit = ref false in
            for k = 0 to Bgp.Snapshot.word_nexthop_count w - 1 do
              if
                Asn.Set.mem
                  (Bgp.Snapshot.asn_of_slot snap (Bgp.Snapshot.nexthop_slot snap w k))
                  affected
              then hit := true
            done;
            !hit
          in
          Array.iteri
            (fun pi p ->
              match Bgp.Snapshot.word snap ~pslot:pi ~aslot with
              | 0 -> ()
              | w ->
                let reuse =
                  obase >= 0
                  && (not dirty_col.(pi))
                  && (Asn.Set.is_empty affected || not (via_affected w))
                in
                let v =
                  if reuse then
                    Bigarray.Array1.get old.p_egress (obase + new2old.(pi))
                  else begin
                    incr patched_cells;
                    score r.Net.rid p ~pslot:pi ~aslot w
                  end
                in
                Bigarray.Array1.set p_egress (base + pi) v)
            p_pfx)
        (Net.routers_of t.net asn))
    egress_for;
  (plan, !patched_cells)

let empty_plan =
  { p_routers = 0;
    p_igp_row = [||];
    p_igp = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0;
    p_egr_row = [||];
    p_pfx = [||];
    p_egress = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0;
    p_between = Hashtbl.create 1 }

let freeze ?(egress_for = Asn.Set.empty) t =
  Obs.Metrics.incr "routing.plan.builds";
  fst (build ~egress_for t ~old:empty_plan ~churn:Bgp.no_churn ~dirty:[])

let patch ?(egress_for = Asn.Set.empty) t ~old ~churn ~dirty =
  Obs.Metrics.incr "routing.plan.patches";
  let plan, patched_cells = build ~egress_for t ~old ~churn ~dirty in
  Obs.Metrics.add "routing.plan.patched_cells" patched_cells;
  plan

(* Semantic plan equality, the forwarding-side oracle of the churn
   tests: a scratch freeze of the post-churn world must agree with the
   patched plan on every distance row, every egress cell, and the
   interconnect index. Row *assignment* is compared semantically (same
   routers planned), contents exactly (both sides derive from the same
   deterministic Dijkstra). *)
let plan_equal ~scratch ~patched =
  let fail fmt = Printf.ksprintf Result.error fmt in
  let s = scratch and q = patched in
  if s.p_routers <> q.p_routers then
    fail "router counts differ: %d vs %d" s.p_routers q.p_routers
  else if Array.length s.p_pfx <> Array.length q.p_pfx then
    fail "prefix counts differ: %d vs %d" (Array.length s.p_pfx)
      (Array.length q.p_pfx)
  else begin
    let exception Mismatch of string in
    let failm fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt in
    try
      Array.iteri
        (fun i p ->
          if not (Prefix.equal p q.p_pfx.(i)) then
            failm "prefix slot %d differs: %s vs %s" i (Prefix.to_string p)
              (Prefix.to_string q.p_pfx.(i)))
        s.p_pfx;
      for rid = 0 to s.p_routers - 1 do
        (match (s.p_igp_row.(rid) >= 0, q.p_igp_row.(rid) >= 0) with
        | true, false | false, true ->
          failm "igp row presence differs for router %d" rid
        | false, false -> ()
        | true, true ->
          let sb = s.p_igp_row.(rid) * s.p_routers
          and qb = q.p_igp_row.(rid) * q.p_routers in
          for i = 0 to s.p_routers - 1 do
            let a = Bigarray.Array1.get s.p_igp (sb + i)
            and b = Bigarray.Array1.get q.p_igp (qb + i) in
            if not (Float.equal a b) then
              failm "igp distance to %d from %d differs: %g vs %g" rid i a b
          done);
        match (s.p_egr_row.(rid) >= 0, q.p_egr_row.(rid) >= 0) with
        | true, false | false, true ->
          failm "egress row presence differs for router %d" rid
        | false, false -> ()
        | true, true ->
          let np = Array.length s.p_pfx in
          let sb = s.p_egr_row.(rid) * np and qb = q.p_egr_row.(rid) * np in
          for c = 0 to np - 1 do
            let a = Bigarray.Array1.get s.p_egress (sb + c)
            and b = Bigarray.Array1.get q.p_egress (qb + c) in
            if a <> b then
              failm "egress for router %d prefix %s differs: %d vs %d" rid
                (Prefix.to_string s.p_pfx.(c))
                a b
          done
      done;
      let lids tbl key =
        List.sort Int.compare
          (List.map
             (fun (l : Net.link) -> l.Net.lid)
             (Option.value ~default:[] (Hashtbl.find_opt tbl key)))
      in
      Hashtbl.iter
        (fun key _ ->
          if lids s.p_between key <> lids q.p_between key then
            failm "interconnect index differs for (AS%d, AS%d)" (fst key)
              (snd key))
        s.p_between;
      if Hashtbl.length s.p_between <> Hashtbl.length q.p_between then
        failm "interconnect index sizes differ: %d vs %d"
          (Hashtbl.length s.p_between)
          (Hashtbl.length q.p_between);
      Ok ()
    with Mismatch m -> Error m
  end

type hop = Deliver | Sink | Forward of Net.link | Unreachable

(* The per-hop step answers with an int: a link id to forward across,
   or one of these codes. *)
let c_unreachable = -1
let c_deliver = -2
let c_sink = -3

let hop_of_code t code =
  if code >= 0 then Forward (Net.link t.net code)
  else if code = c_deliver then Deliver
  else if code = c_sink then Sink
  else Unreachable

let rec has_iface addr = function
  | [] -> false
  | (i : Net.iface) :: rest -> Ipv4.equal i.Net.addr addr || has_iface addr rest

let local_iface (r : Net.router) addr =
  has_iface addr r.Net.ifaces
  ||
  match r.Net.canonical with
  | Some c -> Ipv4.equal c addr
  | None -> false

(* Connected-subnet delivery at the home router: the address may live
   on the far side of one of its links. *)
let rec connected rid dst = function
  | [] -> c_sink
  | ((l : Net.link), _) :: rest ->
    let far = if fst l.Net.a = rid then l.Net.b else l.Net.a in
    if Ipv4.equal (snd far) dst then l.Net.lid else connected rid dst rest

(* The egress link id router [r] would leave its AS by toward prefix
   slot [pslot]; -1 when its AS has no route or no egress there. *)
let egress_of t (r : Net.router) ~pslot =
  let aslot = aslot_of t r.Net.rid in
  if Bgp.Snapshot.word t.snap ~pslot ~aslot = 0 then -1
  else choose_egress t r.Net.rid ~pslot ~aslot

(* A destination is resolved once: its home router ([-1] for none) and
   its longest-match prefix slot in the snapshot ([-1] for none). *)
let home_rid t dst =
  match Net.home_of t.net dst with
  | Some home -> home.Net.rid
  | None -> -1

let same_as t rid (r : Net.router) =
  rid >= 0 && Asn.equal (Net.router t.net rid).Net.owner r.Net.owner

(* The one per-hop step behind [next_hop] and [walk]. *)
let step ~flow t ~dst ~home ~pslot rid =
  let r = Net.router t.net rid in
  if local_iface r dst then c_deliver
  else if same_as t home r then
    if home = rid then connected rid dst (Net.neighbors t.net rid)
    else internal_next_hop ~flow t rid home
  else
    let lid = egress_of t r ~pslot in
    if lid < 0 then c_unreachable
    else
      let l = Net.link t.net lid in
      let near = if same_as t (fst l.Net.a) r then fst l.Net.a else fst l.Net.b in
      if near = rid then lid else internal_next_hop ~flow t rid near

let next_hop ?(flow = 0) t ~rid ~dst =
  hop_of_code t
    (step ~flow t ~dst ~home:(home_rid t dst)
       ~pslot:(Bgp.Snapshot.lookup_pslot t.snap dst)
       rid)

let egress_link t ~rid ~dst =
  let r = Net.router t.net rid in
  if same_as t (home_rid t dst) r then None
  else
    let lid = egress_of t r ~pslot:(Bgp.Snapshot.lookup_pslot t.snap dst) in
    if lid < 0 then None else Some (Net.link t.net lid)

type step = { rid : int; in_link : Net.link option }

(* Top level rather than a local closure, so a walk allocates nothing
   beyond its destination resolve and its result. *)
let rec walk_from ~flow t ~dst ~home ~pslot ~max_hops on_step rid hops =
  let code = step ~flow t ~dst ~home ~pslot rid in
  if code < 0 || hops >= max_hops then Some (hop_of_code t code)
  else
    let l = Net.link t.net code in
    let next, _ = Net.peer_of t.net l rid in
    if on_step next l then
      walk_from ~flow t ~dst ~home ~pslot ~max_hops on_step next (hops + 1)
    else None

let walk ?(flow = 0) t ~src_rid ~dst ?(max_hops = 64) on_step =
  walk_from ~flow t ~dst ~home:(home_rid t dst)
    ~pslot:(Bgp.Snapshot.lookup_pslot t.snap dst)
    ~max_hops on_step src_rid 0

let path ?flow t ~src_rid ~dst ?max_hops () =
  let acc = ref [] in
  ignore
    (walk ?flow t ~src_rid ~dst ?max_hops (fun rid l ->
         acc := { rid; in_link = Some l } :: !acc;
         true));
  List.rev !acc

let first_link_iface t ~rid ~dst =
  match next_hop t ~rid ~dst with
  | Forward l ->
    let addr = if fst l.Net.a = rid then snd l.Net.a else snd l.Net.b in
    Some addr
  | Deliver | Sink | Unreachable -> None

let reply_iface t ~rid ~reply_to = first_link_iface t ~rid ~dst:reply_to
let forward_iface t ~rid ~dst = first_link_iface t ~rid ~dst
