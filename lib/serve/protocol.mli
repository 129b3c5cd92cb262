(** Wire protocol of the border-map query server.

    Hand-rolled length-prefixed binary frames over a Unix-domain
    stream socket, in the [lib/store] style: big-endian fixed-width
    integers, no external codec.

    On connect the server sends a fixed 6-byte greeting — magic
    ["BDQS"] plus a big-endian u16 protocol version — so a client
    talking to the wrong socket fails with a typed error before any
    query. After that, both directions speak frames:

    {v
      offset  size  field
      0       4     payload length n (big-endian, <= max_frame)
      4       n     payload
    v}

    A request payload is one opcode byte plus an opcode-specific body;
    a response payload is one status byte (0 = ok) plus the result
    body, or status 1 plus [u8 code, u16 len, len bytes message] on a
    server-side error. Bodies:

    - {!op_owner}: request [n x u32] addresses; response [n x u32]
      operator ASNs, 0 for unknown. Batched so the syscall cost
      amortizes across lookups.
    - {!op_crossings}: request [u32 a, u32 b] (ASNs); response
      [u32 count] then [count x (u16 len, bytes)] link lines.
    - {!op_provenance}: request [u32 addr]; response [u8 found] then,
      if found, [u16 len, bytes] — the provenance line.
    - {!op_stats}: empty request; response [4 x u64]: queries,
      requests, connections, errors.
    - {!op_metrics}: empty request; response [u32 len, bytes] — the
      OpenMetrics exposition, terminated by [# EOF].
    - {!op_gcstat}: empty request; response [u64 minor_words,
      u64 queries] sampled on the server domain — the probe the
      zero-allocation steady-state measurement is built on.

    The integer accessors below are deliberately {e not}
    [Bytes.get_int32_be] and friends: those box an [Int32]/[Int64] per
    call, while these compose plain [Char.code] reads into an
    immediate [int], keeping the server's hot request loop
    allocation-free. *)

val magic : string
val version : int
val greeting_len : int

(** Hard cap on a frame payload (1 MiB); a peer declaring more is a
    protocol violation, not a large request. *)
val max_frame : int

val op_owner : int
val op_crossings : int
val op_provenance : int
val op_stats : int
val op_metrics : int
val op_gcstat : int

(** Why a peer's bytes could not be understood, in the typed-miss style
    of [Store.Frame.error]. *)
type error =
  | Truncated  (** connection closed inside a greeting or frame *)
  | Bad_magic  (** greeting does not start with ["BDQS"] *)
  | Bad_version of int  (** greeting from an incompatible protocol *)
  | Oversized of int  (** declared payload length exceeds {!max_frame} *)
  | Bad_opcode of int
  | Malformed of string  (** body does not match its opcode's shape *)
  | Server_error of { code : int; message : string }
      (** the server answered with an error response *)

val error_label : error -> string

(** {1 Zero-allocation integer codec} *)

val get_u8 : Bytes.t -> int -> int
val get_u16 : Bytes.t -> int -> int
val get_u32 : Bytes.t -> int -> int
val get_u64 : Bytes.t -> int -> int
val set_u32 : Bytes.t -> int -> int -> unit

(** {1 Growable write buffer}

    An append-only byte builder that reuses its backing array across
    frames: after the first few requests have grown it to the working
    set, [clear]+[put_*] touch no allocator at all (unlike [Buffer],
    whose [add_*] path allocates on every internal chunk spill). *)

type wbuf = { mutable buf : Bytes.t; mutable len : int }

val wbuf_create : int -> wbuf
val wbuf_clear : wbuf -> unit

(** [wbuf_reserve b n] grows the backing array so [n] more bytes fit. *)
val wbuf_reserve : wbuf -> int -> unit

val put_u8 : wbuf -> int -> unit
val put_u16 : wbuf -> int -> unit
val put_u32 : wbuf -> int -> unit
val put_u64 : wbuf -> int -> unit
val put_string : wbuf -> string -> unit

(** [patch_u32 b off v] overwrites 4 already-written bytes at [off] —
    how a frame's length prefix is filled in after its payload. *)
val patch_u32 : wbuf -> int -> int -> unit
