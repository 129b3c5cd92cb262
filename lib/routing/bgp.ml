open Netcore
module Net = Topogen.Net
module B = Bgpdata

type route_class = Cust | Peer | Prov

type route = {
  cls : route_class;
  dist : int;
  nexthops : Asn.Set.t;
  parent : Asn.t option;
}

(* The propagation inputs of one world: everything [freeze] and
   [refreeze] read, and nothing they compute. *)
type propagation = {
  net : Net.t;
  rels : B.As_rel.t;
  origin_trie : Asn.Set.t Ptrie.t;
  originated : (Prefix.t * Asn.Set.t) list;
  selective : int list Prefix.Map.t Asn.Map.t;
  prefixes : Prefix.t list;  (* sorted, deduplicated *)
}

(* A frozen snapshot is pure immutable data: every originated prefix's
   route table computed once and packed into flat GC-invisible arenas.
   A route is a single int word in [s_words] (see the layout below);
   its next-hop set is a contiguous ascending segment of [s_arena].
   Both live in int Bigarrays — out-of-heap plain words the GC never
   traces — so a snapshot's bulk costs no major-collection work, is
   safe to share by reference across pool domains, and serializes to
   raw bytes ([Snapshot.to_bytes]) for other *processes*.

   Route word layout (0 = no route; dist >= 1 for every stored route,
   so a valid word is never 0):

     bits  0-1   route class (0 Cust, 1 Peer, 2 Prov)
     bits  2-11  dist (AS-path hops to the origin, 10 bits)
     bits 12-31  next-hop count (20 bits)
     bits 32-61  arena offset of the next-hop segment (30 bits)

   Next-hop segments are interned: identical sets share one arena
   segment (the same few sets recur across thousands of prefixes).
   Segments store ASN *slots* in ascending order, so the first entry is
   the minimum — the canonical [parent]. *)
type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type snapshot = {
  s_prop : propagation;
  s_asns : Asn.t array;  (* sorted interning table: ASN -> slot by binary search *)
  s_pfx : Prefix.t array;  (* = s_prop.prefixes, for binary search *)
  s_words : int_ba;  (* packed route word at (prefix slot * |s_asns| + asn slot) *)
  s_arena : int_ba;  (* interned next-hop segments (ASN slots, ascending) *)
  s_lpm : int Lpm.t;  (* origin LPM; value = prefix slot into s_pfx *)
}

(* Every routing answer comes out of a snapshot; [of_snapshot] is the
   counted attach point. *)
type t = snapshot

let cls_of_code c = match c land 3 with 0 -> Cust | 1 -> Peer | _ -> Prov
let w_dist w = (w lsr 2) land 0x3FF
let w_count w = (w lsr 12) land 0xFFFFF
let w_off w = (w lsr 32) land 0x3FFF_FFFF

let pack_word ~cls ~dist ~count ~off =
  if dist < 1 || dist > 0x3FF then
    invalid_arg (Printf.sprintf "Bgp.freeze: dist %d outside packable range" dist);
  if count < 1 || count > 0xFFFFF then
    invalid_arg (Printf.sprintf "Bgp.freeze: %d next hops outside packable range" count);
  if off < 0 || off > 0x3FFF_FFFF then
    invalid_arg (Printf.sprintf "Bgp.freeze: arena offset %d outside packable range" off);
  cls lor (dist lsl 2) lor (count lsl 12) lor (off lsl 32)

let create net rels ~originated ~selective =
  let origin_trie =
    List.fold_left
      (fun trie (p, asns) ->
        Ptrie.update p
          (function
            | None -> Some asns
            | Some prev -> Some (Asn.Set.union prev asns))
          trie)
      Ptrie.empty originated
  in
  { net; rels; origin_trie; originated; selective;
    prefixes = List.sort_uniq Prefix.compare (List.map fst originated) }

let origins_of prop p =
  Option.value ~default:Asn.Set.empty (Ptrie.find_exact p prop.origin_trie)

(* Binary searches into the snapshot's interning arrays. A miss is a
   correct [None]: a prefix outside [s_pfx] was never originated, and
   only ASNs inside [s_asns] ever hold a route. *)
let slot_of_array cmp a x =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      match cmp x a.(mid) with
      | 0 -> mid
      | c when c < 0 -> go lo mid
      | _ -> go (mid + 1) hi
  in
  go 0 (Array.length a)

(* Packed-word access: 0 means "no route". Decoding rebuilds the boxed
   [route] record on demand; the zero-allocation accessors in
   [Snapshot] read straight out of the word for hot loops that never
   need the record. *)
let word_at s ~pslot ~aslot =
  Bigarray.Array1.get s.s_words ((pslot * Array.length s.s_asns) + aslot)

let decode_route s w =
  let off = w_off w in
  let cnt = w_count w in
  let nexthops = ref Asn.Set.empty in
  for k = off + cnt - 1 downto off do
    nexthops := Asn.Set.add s.s_asns.(Bigarray.Array1.get s.s_arena k) !nexthops
  done;
  { cls = cls_of_code w;
    dist = w_dist w;
    nexthops = !nexthops;
    (* Segments are ascending, so the first entry is the minimum. *)
    parent = Some s.s_asns.(Bigarray.Array1.get s.s_arena off) }

let route_at s ~pslot ~aslot =
  if pslot < 0 || aslot < 0 then None
  else match word_at s ~pslot ~aslot with 0 -> None | w -> Some (decode_route s w)

let prefixes t = t.s_prop.prefixes
let origins t p = origins_of t.s_prop p
let is_origin t asn p = Asn.Set.mem asn (origins t p)

let allowed_links t ~origin ~p =
  match Asn.Map.find_opt origin t.s_prop.selective with
  | None -> None
  | Some per_prefix -> Prefix.Map.find_opt p per_prefix

let route t asn p =
  route_at t
    ~pslot:(slot_of_array Prefix.compare t.s_pfx p)
    ~aslot:(slot_of_array Asn.compare t.s_asns asn)

let lookup t asn addr =
  let i = Lpm.lookup_idx t.s_lpm addr in
  if i < 0 then None
  else
    let pslot = Lpm.value_at t.s_lpm i in
    let aslot = slot_of_array Asn.compare t.s_asns asn in
    Some (t.s_pfx.(pslot), route_at t ~pslot ~aslot)

(* Parent chains walk packed words directly: each hop is one word fetch
   plus one arena fetch (the segment head is the canonical parent), with
   the origin set resolved once up front. *)
let as_path t asn p =
  let os = origins t p in
  if Asn.Set.mem asn os then Some [ asn ]
  else
    let pslot = slot_of_array Prefix.compare t.s_pfx p in
    let rec follow aslot acc guard =
      let x = t.s_asns.(aslot) in
      if guard > 64 then None
      else if Asn.Set.mem x os then Some (List.rev (x :: acc))
      else
        match word_at t ~pslot ~aslot with
        | 0 -> None
        | w -> follow (Bigarray.Array1.get t.s_arena (w_off w)) (x :: acc) (guard + 1)
    in
    if pslot < 0 then None
    else
      let a0 = slot_of_array Asn.compare t.s_asns asn in
      if a0 < 0 then None else follow a0 [] 0

let collector_view t collectors =
  List.fold_left
    (fun rib p ->
      List.fold_left
        (fun rib c ->
          match as_path t c p with
          | Some path -> B.Rib.add_route rib p path
          | None -> rib)
        rib collectors)
    B.Rib.empty (prefixes t)

let of_snapshot ?(counter = "routing.snapshot.attaches") s =
  Obs.Metrics.incr counter;
  s

let snapshot_of t = t

(* ------------------------------------------------------------------ *)
(* Propagation straight into packed words.                             *)

(* The fill state shared by [freeze] and [refreeze]: the interned ASN
   axis with the relationship graph as ascending slot arrays, dense
   per-prefix distance scratch, the packed word matrix being filled,
   and the growable next-hop arena with segment interning. *)
type fill = {
  asns : Asn.t array;
  n : int;
  provs : int array array;
  custs : int array array;
  peers : int array array;
  words : int_ba;
  (* Per-prefix scratch, reset after every row. Distances are -1 when
     absent; [up] is 0 exactly at the origins. *)
  up : int array;
  peer : int array;
  prov : int array;
  touched : int array;  (* slots holding any distance; doubles as the BFS queue *)
  mutable nt : int;
  heap : int Heap.t;  (* (dist lsl 31) lor slot *)
  hops : int array;  (* next-hop slots of the route being packed *)
  mutable arena : int array;
  mutable alen : int;
  single : int array;  (* slot -> offset of its one-hop segment, or -1 *)
  multi : (int list, int) Hashtbl.t;  (* longer segments -> offset *)
}

let new_fill prop ~np =
  let asns =
    Array.of_list
      (Asn.Set.elements (Asn.Set.union (Net.asns prop.net) (B.As_rel.asns prop.rels)))
  in
  let n = Array.length asns in
  let slot = Asn.Tbl.create ((2 * n) + 1) in
  Array.iteri (fun i a -> Asn.Tbl.replace slot a i) asns;
  (* [Asn.Set.elements] is ascending and slots follow ASN order, so
     every adjacency row is ascending too. *)
  let adj f =
    Array.map
      (fun a ->
        Array.of_list
          (List.map
             (fun b ->
               match Asn.Tbl.find_opt slot b with
               | Some i -> i
               | None -> invalid_arg (Printf.sprintf "Bgp.freeze: next hop AS%d unknown" b))
             (Asn.Set.elements (f prop.rels a))))
      asns
  in
  let words = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (np * n) in
  Bigarray.Array1.fill words 0;
  { asns; n;
    provs = adj B.As_rel.providers;
    custs = adj B.As_rel.customers;
    peers = adj B.As_rel.peers;
    words;
    up = Array.make n (-1);
    peer = Array.make n (-1);
    prov = Array.make n (-1);
    touched = Array.make n 0;
    nt = 0;
    heap = Heap.create Int.compare;
    hops = Array.make (max 1 n) 0;
    arena = [||];
    alen = 0;
    single = Array.make n (-1);
    multi = Hashtbl.create 1024 }

(* Append the first [cnt] entries of [f.hops] to the arena, growing it
   by doubling; returns the segment's offset. *)
let append f cnt =
  let off = f.alen in
  if off + cnt > Array.length f.arena then begin
    let bigger = Array.make (max 1024 (2 * (off + cnt))) 0 in
    Array.blit f.arena 0 bigger 0 off;
    f.arena <- bigger
  end;
  Array.blit f.hops 0 f.arena off cnt;
  f.alen <- off + cnt;
  off

(* Intern the first [cnt] entries of [f.hops] as an arena segment: a
   repeated set returns the offset of its first copy. *)
let intern f cnt =
  if cnt = 1 then begin
    let s = f.hops.(0) in
    if f.single.(s) < 0 then f.single.(s) <- append f 1;
    f.single.(s)
  end
  else
    let key = List.init cnt (fun k -> f.hops.(k)) in
    match Hashtbl.find_opt f.multi key with
    | Some off -> off
    | None ->
      let off = append f cnt in
      Hashtbl.replace f.multi key off;
      off

let touch f x =
  if f.up.(x) < 0 && f.peer.(x) < 0 && f.prov.(x) < 0 then begin
    f.touched.(f.nt) <- x;
    f.nt <- f.nt + 1
  end

(* Propagate prefix [p] and write its row at [base]. Three stages:
   1. "up": customer routes climb c2p edges from the origins (BFS);
   2. "peer": one peer edge on top of an up route;
   3. "down": best routes descend p2c edges (Dijkstra over hop counts,
      since a provider route can feed another provider route).
   Then every reached non-origin AS packs its best (class, dist) with
   the full set of neighbours offering it one hop closer; the origins'
   direct neighbours thereby see the origin itself at dist 1. *)
let fill_row f prop p ~base =
  Asn.Set.iter
    (fun o ->
      let x = slot_of_array Asn.compare f.asns o in
      if x >= 0 && f.up.(x) < 0 then begin
        touch f x;
        f.up.(x) <- 0
      end)
    (origins_of prop p);
  let head = ref 0 in
  while !head < f.nt do
    let x = f.touched.(!head) in
    incr head;
    let d = f.up.(x) + 1 in
    let adj = f.provs.(x) in
    for k = 0 to Array.length adj - 1 do
      let pr = adj.(k) in
      if f.up.(pr) < 0 then begin
        touch f pr;
        f.up.(pr) <- d
      end
    done
  done;
  let n_up = f.nt in
  for i = 0 to n_up - 1 do
    let x = f.touched.(i) in
    let d = f.up.(x) + 1 in
    let adj = f.peers.(x) in
    for k = 0 to Array.length adj - 1 do
      let y = adj.(k) in
      if f.up.(y) <> 0 && (f.peer.(y) < 0 || f.peer.(y) > d) then begin
        touch f y;
        f.peer.(y) <- d
      end
    done
  done;
  (* Stage 3. Lazy deletion on a binary heap: a relaxation pushes a
     fresh entry and stale ones are skipped on pop, so the final [prov]
     distances do not depend on the tie order. *)
  let relax x d =
    let adj = f.custs.(x) in
    for k = 0 to Array.length adj - 1 do
      let c = adj.(k) in
      if f.up.(c) < 0 && f.peer.(c) < 0 && (f.prov.(c) < 0 || f.prov.(c) > d) then begin
        touch f c;
        f.prov.(c) <- d;
        Heap.push f.heap ((d lsl 31) lor c)
      end
    done
  in
  let n_seeds = f.nt in
  for i = 0 to n_seeds - 1 do
    let x = f.touched.(i) in
    relax x ((if f.up.(x) >= 0 then f.up.(x) else f.peer.(x)) + 1)
  done;
  let rec drain () =
    match Heap.pop_opt f.heap with
    | None -> ()
    | Some key ->
      let x = key land 0x7FFF_FFFF and d = key lsr 31 in
      if f.prov.(x) = d then relax x (d + 1);
      drain ()
  in
  drain ();
  for i = 0 to f.nt - 1 do
    let x = f.touched.(i) in
    if f.up.(x) <> 0 then begin
      let cls = if f.up.(x) > 0 then 0 else if f.peer.(x) > 0 then 1 else 2 in
      let d, adj =
        match cls with
        | 0 -> (f.up.(x), f.custs.(x))
        | 1 -> (f.peer.(x), f.peers.(x))
        | _ -> (f.prov.(x), f.provs.(x))
      in
      let cnt = ref 0 in
      for k = 0 to Array.length adj - 1 do
        let y = adj.(k) in
        let dy =
          if cls < 2 || f.up.(y) >= 0 then f.up.(y)
          else if f.peer.(y) >= 0 then f.peer.(y)
          else f.prov.(y)
        in
        if dy = d - 1 then begin
          f.hops.(!cnt) <- y;
          incr cnt
        end
      done;
      if !cnt > 0 then
        Bigarray.Array1.set f.words (base + x)
          (pack_word ~cls ~dist:d ~count:!cnt ~off:(intern f !cnt))
    end
  done;
  for i = 0 to f.nt - 1 do
    let x = f.touched.(i) in
    f.up.(x) <- -1;
    f.peer.(x) <- -1;
    f.prov.(x) <- -1
  done;
  f.nt <- 0

(* A batch of topology changes in the vocabulary the delta path needs
   (produced by [Topogen.Evolve]). The contract that keeps the patch
   sound:
   - new ASes are pure stubs (provider relationships only, providers
     all present in the old snapshot) with ASNs strictly above every
     ASN the old snapshot interned, so they append to the end of the
     sorted slot table and every old slot survives verbatim;
   - [ch_removed_edges] lists every AS pair whose relationship was
     dropped. Such a drop dirties exactly the prefixes where either
     endpoint held the other in its next-hop segment: an edge outside
     every next-hop set carries no best route and feeds no distance
     table, so removing it cannot change any AS's table for that
     prefix (transitive effects always pass through a next hop);
   - [ch_dirty_prefixes] lists every surviving prefix whose origin set
     changed;
   - [ch_removed_prefixes] / new prefixes are detected from the prefix
     sets themselves;
   - [ch_links_changed] lists AS pairs whose physical interconnects
     changed without a relationship change — invisible to BGP, dirt
     for the forwarding plan only. *)
type churn = {
  ch_removed_edges : (Asn.t * Asn.t) list;
  ch_new_stubs : (Asn.t * Asn.Set.t) list;
  ch_dirty_prefixes : Prefix.t list;
  ch_removed_prefixes : Prefix.t list;
  ch_links_changed : (Asn.t * Asn.t) list;
}

let no_churn =
  { ch_removed_edges = []; ch_new_stubs = []; ch_dirty_prefixes = [];
    ch_removed_prefixes = []; ch_links_changed = [] }

(* Fold a [Topogen.Evolve] event batch into the delta vocabulary. The
   mapping relies on the evolution invariants: aggregate/deaggregate
   replace prefixes (the replacements are detected as new, the old ones
   land in [ch_removed_prefixes]), link add/remove keep relationships
   intact (forwarding dirt only), and a new customer is a pure stub. *)
let churn_of_events evs =
  let module E = Topogen.Evolve in
  List.fold_left
    (fun c (te : E.timed) ->
      match te.E.ev with
      | E.Added_link { x; y; _ } | E.Removed_link { x; y; _ } ->
        { c with ch_links_changed = (x, y) :: c.ch_links_changed }
      | E.Customer_joined { asn; providers; _ } ->
        { c with ch_new_stubs = (asn, providers) :: c.ch_new_stubs }
      | E.Depeered { x; y } ->
        { c with ch_removed_edges = (x, y) :: c.ch_removed_edges }
      | E.Aggregated { halves = h1, h2; _ } ->
        { c with ch_removed_prefixes = h1 :: h2 :: c.ch_removed_prefixes }
      | E.Deaggregated { parent; _ } ->
        { c with ch_removed_prefixes = parent :: c.ch_removed_prefixes })
    no_churn evs

type refreeze_stats = {
  rf_total : int;
  rf_dirty : int;
  rf_dirty_prefixes : Prefix.t list;
  rf_fallback : bool;
}

(* [build prop ~old churn]: [prop] is the propagation state of the
   post-churn world, [old] the pre-churn snapshot. Only dirty prefixes
   re-propagate; every clean row is a Bigarray blit whose packed words
   stay valid verbatim because the old arena is the new arena's prefix
   and old ASN slots are stable. New-AS columns on clean rows are
   filled by the stub rule: a pure stub's only possible route is a
   provider route one hop past its providers' best — the same answer
   propagation derives, since a stub feeds nothing back into anyone
   else's table. If the append-only ASN contract is violated, every row
   re-propagates rather than guessing (counted under
   [routing.snapshot.patch_fallbacks]). A full [freeze] is this against
   the empty snapshot: no old ASN survives, so every row is dirty. *)
let build prop ~old churn =
  let s_pfx = Array.of_list prop.prefixes in
  let np = Array.length s_pfx in
  let f = new_fill prop ~np in
  let n = f.n in
  let n_old = Array.length old.s_asns in
  let np_old = Array.length old.s_pfx in
  let asns_ok =
    n >= n_old
    &&
    let ok = ref true in
    for i = 0 to n_old - 1 do
      if not (Asn.equal f.asns.(i) old.s_asns.(i)) then ok := false
    done;
    !ok
  in
  let stub_providers = Asn.Tbl.create 8 in
  List.iter
    (fun (c, provs) -> Asn.Tbl.replace stub_providers c provs)
    churn.ch_new_stubs;
  let stubs_ok = ref true in
  for i = n_old to n - 1 do
    match Asn.Tbl.find_opt stub_providers f.asns.(i) with
    | None -> stubs_ok := false
    | Some provs ->
      Asn.Set.iter
        (fun pr -> if slot_of_array Asn.compare old.s_asns pr < 0 then stubs_ok := false)
        provs
  done;
  let fallback = not (asns_ok && !stubs_ok) in
  if fallback && n_old > 0 then Obs.Metrics.incr "routing.snapshot.patch_fallbacks";
  (* Old pslot <-> new pslot translation by merge walk (both sorted). *)
  let old2new = Array.make (max 1 np_old) (-1) in
  let new2old = Array.make (max 1 np) (-1) in
  let i = ref 0 and j = ref 0 in
  while !i < np_old && !j < np do
    match Prefix.compare old.s_pfx.(!i) s_pfx.(!j) with
    | 0 ->
      old2new.(!i) <- !j;
      new2old.(!j) <- !i;
      incr i;
      incr j
    | c when c < 0 -> incr i
    | _ -> incr j
  done;
  let dirty = Array.make (max 1 np) fallback in
  List.iter
    (fun p ->
      let s = slot_of_array Prefix.compare s_pfx p in
      if s >= 0 then dirty.(s) <- true)
    churn.ch_dirty_prefixes;
  for pn = 0 to np - 1 do
    if new2old.(pn) < 0 then dirty.(pn) <- true
  done;
  if not fallback then begin
    let seg_mem w target =
      let off = w_off w in
      let found = ref false in
      for k = off to off + w_count w - 1 do
        if Bigarray.Array1.get old.s_arena k = target then found := true
      done;
      !found
    in
    List.iter
      (fun (x, y) ->
        let ax = slot_of_array Asn.compare old.s_asns x
        and ay = slot_of_array Asn.compare old.s_asns y in
        if ax >= 0 && ay >= 0 then
          for po = 0 to np_old - 1 do
            let pn = old2new.(po) in
            if pn >= 0 && not dirty.(pn) then begin
              let wx = word_at old ~pslot:po ~aslot:ax in
              if wx <> 0 && seg_mem wx ay then dirty.(pn) <- true
              else
                let wy = word_at old ~pslot:po ~aslot:ay in
                if wy <> 0 && seg_mem wy ax then dirty.(pn) <- true
            end
          done)
      churn.ch_removed_edges
  end;
  (* The new arena starts as a verbatim copy of the old one, so clean
     rows' packed offsets remain valid; fresh segments append past it.
     (Appended segments dedupe among themselves only — a duplicate of
     an old segment wastes a few words, never correctness.) *)
  if not fallback then begin
    let alen = Bigarray.Array1.dim old.s_arena in
    f.arena <- Array.make (max 1024 (2 * alen)) 0;
    for k = 0 to alen - 1 do
      f.arena.(k) <- Bigarray.Array1.get old.s_arena k
    done;
    f.alen <- alen
  end;
  let stub_cols =
    if fallback then [||]
    else
      Array.init (n - n_old) (fun k ->
          let provs = Asn.Tbl.find stub_providers f.asns.(n_old + k) in
          Array.of_list
            (List.map (slot_of_array Asn.compare f.asns) (Asn.Set.elements provs)))
  in
  let n_dirty = ref 0 in
  for pn = 0 to np - 1 do
    let p = s_pfx.(pn) in
    let base = pn * n in
    if dirty.(pn) then begin
      incr n_dirty;
      fill_row f prop p ~base
    end
    else begin
      let po = new2old.(pn) in
      Bigarray.Array1.blit
        (Bigarray.Array1.sub old.s_words (po * n_old) n_old)
        (Bigarray.Array1.sub f.words base n_old);
      let os = origins_of prop p in
      Array.iteri
        (fun k provs ->
          if not (Asn.Set.mem f.asns.(n_old + k) os) then begin
            let dist_of pa =
              if Asn.Set.mem f.asns.(pa) os then 0
              else match word_at old ~pslot:po ~aslot:pa with 0 -> max_int | w -> w_dist w
            in
            let best = Array.fold_left (fun b pa -> min b (dist_of pa)) max_int provs in
            if best < max_int then begin
              let cnt = ref 0 in
              Array.iter
                (fun pa ->
                  if dist_of pa = best then begin
                    f.hops.(!cnt) <- pa;
                    incr cnt
                  end)
                provs;
              Bigarray.Array1.set f.words (base + n_old + k)
                (pack_word ~cls:2 ~dist:(best + 1) ~count:!cnt ~off:(intern f !cnt))
            end
          end)
        stub_cols
    end
  done;
  let s_arena = Bigarray.Array1.create Bigarray.int Bigarray.c_layout f.alen in
  for k = 0 to f.alen - 1 do
    Bigarray.Array1.set s_arena k f.arena.(k)
  done;
  (* LPM: share when the prefix set is untouched (the single-link fast
     path does zero LPM work); otherwise patch only the slots a removed
     or added prefix covers, or build it outright from nothing. *)
  let s_lpm =
    if np_old = 0 then Lpm.build (List.mapi (fun i p -> (p, i)) prop.prefixes)
    else if np = np_old && Array.for_all2 Prefix.equal s_pfx old.s_pfx then old.s_lpm
    else begin
      let removed = ref [] and added = ref [] in
      for po = np_old - 1 downto 0 do
        if old2new.(po) < 0 then removed := old.s_pfx.(po) :: !removed
      done;
      for pn = np - 1 downto 0 do
        if new2old.(pn) < 0 then added := (s_pfx.(pn), pn) :: !added
      done;
      Lpm.patch old.s_lpm ~remove:!removed ~add:!added ~remap:(fun po -> old2new.(po))
    end
  in
  let dirty_prefixes = ref [] in
  for pn = np - 1 downto 0 do
    if dirty.(pn) then dirty_prefixes := s_pfx.(pn) :: !dirty_prefixes
  done;
  ( { s_prop = prop; s_asns = f.asns; s_pfx; s_words = f.words; s_arena; s_lpm },
    { rf_total = np;
      rf_dirty = !n_dirty;
      rf_dirty_prefixes = !dirty_prefixes;
      rf_fallback = fallback } )

let empty_ba = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0

let freeze ?(counter = "routing.snapshot.builds") prop =
  Obs.Metrics.incr counter;
  let empty =
    { s_prop = prop; s_asns = [||]; s_pfx = [||]; s_words = empty_ba;
      s_arena = empty_ba; s_lpm = Lpm.build [] }
  in
  fst (build prop ~old:empty no_churn)

let refreeze prop ~old churn =
  Obs.Metrics.incr "routing.snapshot.patches";
  let s, stats = build prop ~old churn in
  Obs.Metrics.add "routing.snapshot.dirty_prefixes" stats.rf_dirty;
  (s, stats)

module Snapshot = struct
  type t = snapshot

  let prefix_count s = Array.length s.s_pfx
  let asn_count s = Array.length s.s_asns
  let arena_length s = Bigarray.Array1.dim s.s_arena

  (* Zero-allocation slot layer: interned indices in, plain ints out.
     These are the read primitives for hot sweeps (bench query loops,
     the forwarding plan, the future query service). *)
  let asn_slot s asn = slot_of_array Asn.compare s.s_asns asn
  let prefix_slot s p = slot_of_array Prefix.compare s.s_pfx p
  let asn_of_slot s i = s.s_asns.(i)
  let prefix_of_slot s i = s.s_pfx.(i)

  let word s ~pslot ~aslot =
    if pslot < 0 || aslot < 0 then 0 else word_at s ~pslot ~aslot

  let word_class w = cls_of_code w
  let word_dist w = w_dist w
  let word_nexthop_count w = w_count w
  let nexthop_slot s w k = Bigarray.Array1.get s.s_arena (w_off w + k)
  let parent_slot s w = Bigarray.Array1.get s.s_arena (w_off w)
  let route_at = route_at

  let lookup_pslot s addr =
    let i = Lpm.lookup_idx s.s_lpm addr in
    if i < 0 then -1 else Lpm.value_at s.s_lpm i

  (* Semantic equality between two snapshots of the same world:
     identical interning axes, then every packed word decode-equal
     (class, dist, and next-hop slot segment compared element-wise, so
     two arenas laid out in different interning order still compare
     equal), then LPM agreement probed at every prefix boundary (first,
     last, and the addresses just outside). This is the oracle the
     churn tests run after every event batch: patched == from-scratch. *)
  exception Mismatch of string

  let equal a b =
    let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt in
    try
      let n = Array.length a.s_asns and np = Array.length a.s_pfx in
      if Array.length b.s_asns <> n then
        fail "asn counts differ: %d vs %d" n (Array.length b.s_asns);
      if Array.length b.s_pfx <> np then
        fail "prefix counts differ: %d vs %d" np (Array.length b.s_pfx);
      for i = 0 to n - 1 do
        if not (Asn.equal a.s_asns.(i) b.s_asns.(i)) then
          fail "asn slot %d differs: AS%d vs AS%d" i a.s_asns.(i) b.s_asns.(i)
      done;
      for i = 0 to np - 1 do
        if not (Prefix.equal a.s_pfx.(i) b.s_pfx.(i)) then
          fail "prefix slot %d differs: %s vs %s" i
            (Prefix.to_string a.s_pfx.(i))
            (Prefix.to_string b.s_pfx.(i))
      done;
      for pslot = 0 to np - 1 do
        for aslot = 0 to n - 1 do
          let wa = word_at a ~pslot ~aslot and wb = word_at b ~pslot ~aslot in
          let ctx () =
            Printf.sprintf "(%s, AS%d)"
              (Prefix.to_string a.s_pfx.(pslot))
              a.s_asns.(aslot)
          in
          if (wa = 0) <> (wb = 0) then
            fail "route presence differs at %s" (ctx ());
          if wa <> 0 then begin
            if wa land 3 <> wb land 3 then fail "route class differs at %s" (ctx ());
            if w_dist wa <> w_dist wb then
              fail "route dist differs at %s: %d vs %d" (ctx ()) (w_dist wa)
                (w_dist wb);
            if w_count wa <> w_count wb then
              fail "next-hop count differs at %s: %d vs %d" (ctx ()) (w_count wa)
                (w_count wb);
            for k = 0 to w_count wa - 1 do
              if
                Bigarray.Array1.get a.s_arena (w_off wa + k)
                <> Bigarray.Array1.get b.s_arena (w_off wb + k)
              then fail "next-hop %d differs at %s" k (ctx ())
            done
          end
        done
      done;
      if Lpm.length a.s_lpm <> Lpm.length b.s_lpm then
        fail "LPM sizes differ: %d vs %d" (Lpm.length a.s_lpm)
          (Lpm.length b.s_lpm);
      let probe addr =
        let pa = lookup_pslot a addr and pb = lookup_pslot b addr in
        if pa <> pb then
          fail "LPM answers differ at %s: slot %d vs %d" (Ipv4.to_string addr) pa
            pb
      in
      Array.iter
        (fun p ->
          probe (Prefix.first p);
          probe (Prefix.last p);
          let f = Ipv4.to_int (Prefix.first p)
          and l = Ipv4.to_int (Prefix.last p) in
          if f > 0 then probe (Ipv4.of_int (f - 1));
          if l < 0xFFFF_FFFF then probe (Ipv4.of_int (l + 1)))
        a.s_pfx;
      Ok ()
    with Mismatch m -> Error m

  (* {2 Serialization}

     A snapshot is a [Store.Frame] (magic "BDSN", no tag) over raw
     packed arenas plus marshaled boxed metadata:

     payload := u64 n_pfx | u64 n_asn | u64 |words| | u64 |arena|
              | words (8 bytes each, big-endian)
              | arena (8 bytes each, big-endian)
              | marshaled (net, rels, origin_trie, originated,
                           selective, prefixes, asns, pfx)

     The LPM is rebuilt on load (a pure function of the prefix list)
     rather than shipped. Any flipped byte fails the frame's digest; the
     counts are bounded by the bytes present before any allocation is
     sized from them. *)

  (* v2: Net.link gained the [live] retirement flag (marshaled inside
     the metadata tuple), so v1 entries no longer decode. v3: Net.t
     gained the internal adjacency arrays. *)
  let codec_version = 3
  let magic = "BDSN"
  let header_len = Store.Frame.header_len 0

  let to_bytes s =
    let np = Array.length s.s_pfx in
    let n = Array.length s.s_asns in
    let nw = Bigarray.Array1.dim s.s_words in
    let na = Bigarray.Array1.dim s.s_arena in
    let meta =
      let p = s.s_prop in
      Marshal.to_string
        (p.net, p.rels, p.origin_trie, p.originated, p.selective, p.prefixes, s.s_asns, s.s_pfx)
        []
    in
    let payload_len = 32 + (8 * nw) + (8 * na) + String.length meta in
    let b = Bytes.create (header_len + payload_len) in
    let pos = ref header_len in
    let put_u64 v =
      Bytes.set_int64_be b !pos (Int64.of_int v);
      pos := !pos + 8
    in
    put_u64 np;
    put_u64 n;
    put_u64 nw;
    put_u64 na;
    for i = 0 to nw - 1 do
      put_u64 (Bigarray.Array1.get s.s_words i)
    done;
    for i = 0 to na - 1 do
      put_u64 (Bigarray.Array1.get s.s_arena i)
    done;
    Bytes.blit_string meta 0 b !pos (String.length meta);
    Store.Frame.seal ~magic ~version:codec_version b;
    b

  let of_bytes b =
    match Store.Frame.unseal ~magic ~version:codec_version b with
    | Error e -> Error e
    | Ok off ->
      let u64_at o = Int64.to_int (Bytes.get_int64_be b o) in
      let rest = Bytes.length b - off - 32 in
      if rest < 0 then Error Store.Frame.Corrupt
      else begin
        (* Words that fit after the four counts. Each count is checked
           against it, the product by division, so nothing overflows. *)
        let room = rest / 8 in
        let np = u64_at off in
        let n = u64_at (off + 8) in
        let nw = u64_at (off + 16) in
        let na = u64_at (off + 24) in
        if
          np < 0 || n < 0 || nw < 0 || na < 0 || nw > room || na > room - nw
          || (np = 0 && nw <> 0)
          || (np > 0 && (n > nw / np || np * n <> nw))
        then Error Store.Frame.Corrupt
        else begin
          let s_words = Bigarray.Array1.create Bigarray.int Bigarray.c_layout nw in
          let s_arena = Bigarray.Array1.create Bigarray.int Bigarray.c_layout na in
          let pos = ref (off + 32) in
          for i = 0 to nw - 1 do
            Bigarray.Array1.set s_words i (u64_at !pos);
            pos := !pos + 8
          done;
          for i = 0 to na - 1 do
            Bigarray.Array1.set s_arena i (u64_at !pos);
            pos := !pos + 8
          done;
          match
            (Marshal.from_bytes b !pos
              : Net.t
                * B.As_rel.t
                * Asn.Set.t Ptrie.t
                * (Prefix.t * Asn.Set.t) list
                * int list Prefix.Map.t Asn.Map.t
                * Prefix.t list
                * Asn.t array
                * Prefix.t array)
          with
          | net, rels, trie, originated, selective, prefixes, asns, pfx ->
            if Array.length pfx <> np || Array.length asns <> n then
              Error Store.Frame.Corrupt
            else
              Ok
                { s_prop =
                    { net; rels; origin_trie = trie; originated; selective; prefixes };
                  s_asns = asns;
                  s_pfx = pfx;
                  s_words;
                  s_arena;
                  s_lpm = Lpm.build (List.mapi (fun i p -> (p, i)) prefixes) }
          | exception _ -> Error Store.Frame.Corrupt
        end
      end
end
