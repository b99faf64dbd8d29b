(** Resource advertisement and discovery (§ 6, challenge 1).

    "This map is shared between network operators — perhaps by
    piggy-backing on BGP messages — to describe their programmable
    infrastructure and its capabilities."  A participant periodically
    advertises the resources it hosts (today: retransmission buffers)
    to its control-plane peers as {!Mmt.Feature.Kind.Buffer_advert}
    packets, ingests peers' advertisements into its {!Resource_map},
    and re-gossips each buffer it learns of once, one hop, so maps
    converge across domains.

    Advertisement stops when a resource disappears; entries then expire
    from peers' maps after the map TTL of four advertisement periods —
    failure detection falls out of soft state, as it does in BGP. *)

open Mmt_util
open Mmt_frame

type stats = {
  adverts_sent : int;
  adverts_received : int;
  gossip_forwarded : int;
}

type t

val create :
  env:Mmt_runtime.Env.t ->
  period:Units.Time.t ->
  peers:Addr.Ip.t list ->
  unit ->
  t
(** The map's entries live for 4x the [period]. *)

val add_local : t -> (unit -> Mmt.Control.Buffer_advert.t option) -> unit
(** Register a local resource provider; polled at each advertisement
    round.  Returning [None] stops advertising it (resource failed or
    was withdrawn). *)

val start : t -> unit
(** Begin periodic advertisement; idempotent. *)

val stop : t -> unit

val set_blackholed : t -> bool -> unit
(** Fault hook: a blackholed control plane neither sends nor ingests
    advertisements, while expiry keeps running — so soft state decays
    exactly as it would if the advertisement path were severed
    (failure detection falls out of the TTL, as in BGP). *)

val blackholed : t -> bool

val on_packet : t -> Mmt_sim.Packet.t -> unit
(** Ingest a control packet; only buffer advertisements are acted on. *)

val map : t -> Resource_map.t
val best_buffer : t -> Addr.Ip.t option
(** Live buffer with the lowest advertised RTT, at the current time. *)

val stats : t -> stats
