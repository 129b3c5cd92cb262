(** The probing interface the collection driver runs against. The paper's
    contribution 2 (§5.8) splits bdrmap into a dumb prober (scamper on
    the measurement device) and a central controller holding all state;
    this abstraction keeps collection indifferent to which side it is
    on. {!local} binds directly to the simulation engine (standalone
    deployment), the only binding the pipeline runs. *)

open Netcore
module Gen = Topogen.Gen

type t = {
  trace_probe : flow:int -> dst:Ipv4.t -> ttl:int -> Engine.reply option;
  ping : dst:Ipv4.t -> Engine.reply option;
  udp_probe : dst:Ipv4.t -> Engine.reply option;
  advance : float -> unit;
  probe_count : unit -> int;
  pps : float;
}

(** [local engine ~vp] probes the engine directly from [vp]. *)
val local : Engine.t -> vp:Gen.vp -> t
