(** Router-level forwarding over the simulated topology: intra-AS
    shortest paths (IGP) plus hot-potato egress selection among the
    BGP-equal next hops (§6: the mechanism behind Figures 14-16).

    A packet at a router is delivered locally when its address matches a
    local interface, forwarded internally toward the home router when the
    current AS originates the longest-match prefix, and otherwise pushed
    across the interdomain link that is IGP-nearest among the candidate
    egresses for the destination prefix. *)

open Netcore
module Net = Topogen.Net

type t

(** A frozen forwarding plan: IGP distance tables for every
    interdomain-link endpoint, egress choices for the hot (VP-owning)
    ASes, and the interdomain-link index — precomputed once and never
    written again, so a plan is safe to share by reference across
    [Netcore.Pool] domains. The distance and egress tables are packed
    into flat [Bigarray] rows (GC-invisible plain words) indexed by
    small per-router row tables; keys outside the plan fall back to
    each worker's private memos. *)
type plan

(** [create ?plan net bgp] builds forwarding state over [bgp]. With
    [plan], hot lookups answer from the shared frozen tables; IGP
    distances and egress choices the plan does not cover (or all of
    them, without a plan) are computed once per instance into private
    memos. The private egress memo is keyed by one int per (router,
    snapshot prefix slot) and decodes a boxed route only on a miss.
    Routes always come from [bgp]'s snapshot. A plan must only be
    paired with a [bgp] answering identically to the one it was frozen
    from. *)
val create : ?plan:plan -> Net.t -> Bgp.t -> t

(** [freeze ?egress_for t] precomputes the shared read-only plan:
    the interdomain-link index, IGP distances to every interdomain-link
    endpoint, and — for each AS in [egress_for] — the egress choice of
    each of its routers for every originated prefix, via exactly the
    same scoring path the private memo uses. It is {!patch} against the
    empty plan, where nothing can be reused. Counted under the
    [routing.plan.builds] metric. *)
val freeze : ?egress_for:Asn.Set.t -> t -> plan

(** [patch ?egress_for t ~old ~churn ~dirty] is the incremental form of
    {!freeze}: [t] must be a fresh instance over the post-churn net and
    a [Bgp.t] attached to the patched snapshot, [old] the pre-churn
    plan, [dirty] the BGP-dirty prefixes
    ([Bgp.refreeze_stats.rf_dirty_prefixes]). IGP distance rows of
    pre-churn routers are copied (evolution never alters the internal
    topology of an existing AS); only new interconnect endpoints run
    Dijkstra. Egress cells are re-scored only for BGP-dirty prefix
    columns, new prefixes, and routes whose next-hop set intersects an
    AS pair with changed physical links; every other cell is copied.
    The result satisfies {!plan_equal} against a scratch [freeze] of
    [t]. Counted under [routing.plan.patches], with recomputed cells
    under [routing.plan.patched_cells]. *)
val patch :
  ?egress_for:Asn.Set.t ->
  t ->
  old:plan ->
  churn:Bgp.churn ->
  dirty:Prefix.t list ->
  plan

(** [plan_equal ~scratch ~patched] is semantic equality between two
    plans of the same world: identical router/prefix axes, the same set
    of planned distance rows with exactly equal contents, the same
    egress rows cell for cell, and the same interdomain-link index. The
    forwarding-side oracle of the churn tests. [Error] carries the
    first mismatch. *)
val plan_equal : scratch:plan -> patched:plan -> (unit, string) result

type hop =
  | Deliver  (** the destination address is on this router *)
  | Sink  (** this router is the home of the prefix; no such host *)
  | Forward of Net.link  (** next hop across this link *)
  | Unreachable

(** [next_hop ?flow t ~rid ~dst] is one forwarding decision. Equal-cost
    internal paths are resolved by hashing [flow] (a five-tuple stand-in);
    flow 0 always takes the canonical path, which models Paris
    traceroute's fixed flow identifier. It is the per-hop step of
    {!walk} with [dst] resolved on the spot. *)
val next_hop : ?flow:int -> t -> rid:int -> dst:Ipv4.t -> hop

(** [egress_link t ~rid ~dst] is the interdomain link this AS would use
    to leave toward [dst], from the perspective of router [rid]
    (hot-potato), if the route exits the AS. *)
val egress_link : t -> rid:int -> dst:Ipv4.t -> Net.link option

(** [igp_distance t ~from_rid ~to_rid] is the intra-AS IGP distance;
    [infinity] when the routers are in different ASes or disconnected. *)
val igp_distance : t -> from_rid:int -> to_rid:int -> float

(** One step of a router path: the router and the link the packet
    arrived on ([None] for the source router). *)
type step = { rid : int; in_link : Net.link option }

(** [walk ?flow t ~src_rid ~dst ?max_hops on_step] follows the
    router path from [src_rid] toward [dst]: for each router entered,
    [on_step rid link] is called with the link it arrived on, and
    returning [false] ends the walk there ([None]). Otherwise the walk
    stops at delivery, at the prefix's home router, at an unreachable
    point, or after [max_hops] (default 64) routers, and returns the
    {!next_hop} decision at the last router reached.

    Cost: [dst] is resolved once per walk (its home router and its
    prefix slot in the snapshot). Each hop is then one step over
    packed state: the plan's distance row and egress cell, or the
    private memos. With [flow = 0] the internal next hop is a single
    pass over the router's internal adjacency. A warmed walk allocates
    nothing per hop beyond what [on_step] does. *)
val walk :
  ?flow:int ->
  t ->
  src_rid:int ->
  dst:Ipv4.t ->
  ?max_hops:int ->
  (int -> Net.link -> bool) ->
  hop option

(** [path ?flow t ~src_rid ~dst ?max_hops ()] is the full router path of
    {!walk}, starting with the first router after the source. [flow]
    selects among equal-cost internal paths. Beyond the one-time
    destination resolve it allocates only the steps and their list. *)
val path :
  ?flow:int -> t -> src_rid:int -> dst:Ipv4.t -> ?max_hops:int -> unit -> step list

(** [reply_iface t ~rid ~reply_to] is the interface address router [rid]
    would use as source when transmitting a packet toward [reply_to]
    (RFC 1812 behaviour, §4 challenge 2): the address of its interface on
    the first link of the path toward [reply_to]. [None] when the router
    cannot route back or the first hop is ambiguous. *)
val reply_iface : t -> rid:int -> reply_to:Ipv4.t -> Ipv4.t option

(** [forward_iface t ~rid ~dst] is the interface address router [rid]
    would forward [dst]-bound packets from (virtual-router reply
    selection, §4 challenge 4). *)
val forward_iface : t -> rid:int -> dst:Ipv4.t -> Ipv4.t option
