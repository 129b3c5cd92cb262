(** Binary radix trie keyed by IPv4 prefixes, supporting longest-prefix
    match. Persistent (each update returns a new trie). *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool

(** [add p v t] binds [p] to [v], replacing any previous binding of [p]. *)
val add : Prefix.t -> 'a -> 'a t -> 'a t

(** [update p f t] applies [f] to the current binding of [p] (or [None]). *)
val update : Prefix.t -> ('a option -> 'a option) -> 'a t -> 'a t

(** [remove p t] removes the exact binding of [p] if present. *)
val remove : Prefix.t -> 'a t -> 'a t

(** [find_exact p t] is the value bound to exactly [p]. *)
val find_exact : Prefix.t -> 'a t -> 'a option

(** [lpm addr t] is the longest-prefix match for [addr]: the most specific
    prefix in [t] containing [addr], with its value. One descent that
    allocates only the answer (unlike {!matches}, which lists every
    match). *)
val lpm : Ipv4.t -> 'a t -> (Prefix.t * 'a) option

(** [matches addr t] is all prefixes in [t] containing [addr], most specific
    first. *)
val matches : Ipv4.t -> 'a t -> (Prefix.t * 'a) list

(** [subtree p t] is all bindings at or below [p] (i.e. subsumed by [p]). *)
val subtree : Prefix.t -> 'a t -> (Prefix.t * 'a) list

val fold : (Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val iter : (Prefix.t -> 'a -> unit) -> 'a t -> unit
val cardinal : 'a t -> int
val bindings : 'a t -> (Prefix.t * 'a) list
val of_list : (Prefix.t * 'a) list -> 'a t
