open Netcore

(* Union-find over addresses. Each root owns its group's member list
   and size (union by size splices the smaller list onto the larger),
   plus a set of conflicting roots; unions are refused when the two
   roots conflict. A mentioned address is a key of [parent] or [groups]. *)
type group = { size : int; members : Ipv4.t list }

type t = {
  parent : Ipv4.t Ipv4.Tbl.t;
  groups : group Ipv4.Tbl.t;
  conflicts : Ipv4.Set.t Ipv4.Tbl.t;
}

let create () =
  { parent = Ipv4.Tbl.create 256; groups = Ipv4.Tbl.create 256;
    conflicts = Ipv4.Tbl.create 64 }

let rec find t a =
  match Ipv4.Tbl.find_opt t.parent a with
  | None -> a
  | Some p ->
    let root = find t p in
    if not (Ipv4.equal root p) then Ipv4.Tbl.replace t.parent a root;
    root

let note t a =
  if not (Ipv4.Tbl.mem t.groups a || Ipv4.Tbl.mem t.parent a) then
    Ipv4.Tbl.replace t.groups a { size = 1; members = [ a ] }

let conflicts_of t root =
  Option.value ~default:Ipv4.Set.empty (Ipv4.Tbl.find_opt t.conflicts root)

let vetoed t a b =
  let ra = find t a and rb = find t b in
  Ipv4.Set.mem rb (conflicts_of t ra)

let add_not_alias t a b =
  note t a;
  note t b;
  let ra = find t a and rb = find t b in
  if not (Ipv4.equal ra rb) then begin
    Ipv4.Tbl.replace t.conflicts ra (Ipv4.Set.add rb (conflicts_of t ra));
    Ipv4.Tbl.replace t.conflicts rb (Ipv4.Set.add ra (conflicts_of t rb))
  end

let add_alias t a b =
  note t a;
  note t b;
  let ra = find t a and rb = find t b in
  if (not (Ipv4.equal ra rb)) && not (vetoed t a b) then begin
    let ga = Ipv4.Tbl.find t.groups ra and gb = Ipv4.Tbl.find t.groups rb in
    let root, child, big, small =
      if ga.size >= gb.size then (ra, rb, ga, gb) else (rb, ra, gb, ga)
    in
    Ipv4.Tbl.replace t.parent child root;
    Ipv4.Tbl.replace t.groups root
      { size = big.size + small.size;
        members = List.rev_append small.members big.members };
    Ipv4.Tbl.remove t.groups child;
    (* Merge conflict sets and retarget references to the old root. *)
    let cc = conflicts_of t child in
    let merged = Ipv4.Set.union (conflicts_of t root) cc in
    if not (Ipv4.Set.is_empty merged) then Ipv4.Tbl.replace t.conflicts root merged;
    Ipv4.Set.iter
      (fun other ->
        let oc = conflicts_of t other in
        Ipv4.Tbl.replace t.conflicts other
          (Ipv4.Set.add root (Ipv4.Set.remove child oc)))
      cc
  end

let same_router t a b = Ipv4.equal (find t a) (find t b)

let groups t =
  Ipv4.Tbl.fold (fun _ g acc -> List.sort Ipv4.compare g.members :: acc) t.groups []
  |> List.sort compare

let group_of t a =
  match Ipv4.Tbl.find_opt t.groups (find t a) with
  | Some g -> List.sort Ipv4.compare g.members
  | None -> [ a ]
