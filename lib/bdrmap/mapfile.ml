open Netcore

type t = {
  host_asns : Asn.Set.t;
  origins : (Prefix.t * Asn.t) list;
  merged : Aggregate.merged list;
}

let make ~host_asns ~bgp merged =
  let origins =
    List.filter_map
      (fun p ->
        let os = Routing.Bgp.origins bgp p in
        if Asn.Set.is_empty os then None else Some (p, Asn.Set.min_elt os))
      (Routing.Bgp.prefixes bgp)
  in
  { host_asns; origins; merged }

type decode_error = Store.Frame.error

let error_label = Store.Frame.error_label
let magic = "BDMF"
let codec_version = 1

let to_bytes t =
  Store.Frame.frame ~magic ~version:codec_version (Marshal.to_string t [])

let of_bytes b =
  Result.bind (Store.Frame.unseal ~magic ~version:codec_version b) (fun off ->
      match (Marshal.from_bytes b off : t) with
      | t -> Ok t
      | exception _ -> Error Store.Frame.Corrupt)

let save path t =
  let b = to_bytes t in
  Store.Frame.publish path (fun oc -> output_bytes oc b)

let load path = Result.bind (Store.Frame.read_file path) of_bytes
