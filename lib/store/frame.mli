(** The one artifact frame: header codec and atomic publish shared by
    run-store entries ({!Store}), frozen routing snapshots
    ([Routing.Bgp.Snapshot]) and the served border map
    ([Bdrmap.Mapfile]).

    {v
      offset        size     field
      0             4        magic (per format: "BDRS", "BDSN", "BDMF")
      4             4        format version (u32, big-endian)
      8             tag_len  tag (store key, 32 hex chars; empty elsewhere)
      8+tag_len     16       MD5 digest of the payload
      24+tag_len    8        payload length (u64, big-endian)
      32+tag_len    n        payload
    v}

    {!seal} and {!unseal} work in place over the caller's buffer, so a
    format that builds its payload in the output buffer copies nothing
    to frame it. Decoding checks, in order:
    size of the header, magic, version, tag, declared length, digest;
    the first failure is the typed {!error}. Length rule: a declared
    length above the bytes present is [Truncated]; a negative one, or
    bytes past the declared payload, is [Corrupt].

    The version is the only schema guard: a format whose payload layout
    changes bumps it. *)

type error =
  | Absent  (** no readable file at the path *)
  | Truncated  (** shorter than the header or the declared length *)
  | Bad_magic  (** not this format *)
  | Bad_version of int  (** written by an incompatible version *)
  | Stale  (** embedded tag differs from the expected one *)
  | Corrupt  (** digest mismatch, bad length, or malformed payload *)

val error_label : error -> string

(** [header_len tag_len] is [32 + tag_len]: the payload offset. *)
val header_len : int -> int

(** [seal ~magic ~version ?tag b] writes the header into the first
    [header_len] bytes of [b], framing the payload already in place
    from there to the end of [b]. [tag] defaults to [""]. *)
val seal : magic:string -> version:int -> ?tag:string -> bytes -> unit

(** [frame ~magic ~version ?tag payload] is a fresh sealed image of
    [payload] (one copy). *)
val frame : magic:string -> version:int -> ?tag:string -> string -> bytes

(** [unseal ~magic ~version ?tag b] validates the whole of [b] and
    returns the payload offset: on [Ok off] the payload is [b] from
    [off] to the end. Never raises. *)
val unseal : magic:string -> version:int -> ?tag:string -> bytes -> (int, error) result

(** [read_file path] is the file's bytes; [Absent] when [path] cannot
    be opened or is not a regular file. Never raises. *)
val read_file : string -> (bytes, error) result

(** [publish path write] runs [write] on a uniquely named temp file
    beside [path] (pid, domain and counter in the name) and renames it
    over [path]. Readers see the previous file or the new one, never a
    torn one; if [write] or the rename raises, the temp is removed and
    the exception re-raised. *)
val publish : string -> (out_channel -> unit) -> unit

(** [is_temp name] is true for the temp-file names {!publish} creates,
    the orphans a killed writer leaves behind. *)
val is_temp : string -> bool
