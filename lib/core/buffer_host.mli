(** Retransmission-buffer host.

    The network element role played by DTN 1 in the pilot (§ 5.4): it
    keeps recently forwarded frames in a {!Retx_buffer} and answers
    NAKs by resending the stored frames to the requester.  "This
    buffering reduces the flow-completion time since a re-transmission
    would originate from a closer source" (§ 5.1).

    When a requested frame has already been evicted, the NAK is
    escalated to an optional upstream buffer (ultimately the source) —
    the hop-by-hop generalization of X.25 the paper describes. *)

open Mmt_util
open Mmt_frame

type stats = {
  naks_received : int;
  frames_resent : int;
  escalated : int;  (** sequences forwarded to the upstream buffer *)
  unserviceable : int;  (** missing with no upstream to ask *)
  buffer : Retx_buffer.stats;
}

type t

val create :
  env:Mmt_runtime.Env.t ->
  capacity:Units.Size.t ->
  ?upstream:Addr.Ip.t ->
  unit ->
  t
(** Resent frames are copied into slots of the environment's ring,
    with the padding they were stored with. *)

val store_packet : t -> seq:int -> Mmt_sim.Packet.t -> unit
(** Record a packet as forwarded downstream under sequence [seq]: the
    one place a frame is copied for retransmission, and the copy is
    taken inside the {!Retx_buffer}.  The buffer keeps the packet's
    materialized frame (encapsulation included, so a resend is
    byte-identical), its padding, so a resend has the original wire
    size, and its birth time, so a recovered message's latency stays
    end-to-end.  The packet itself stays the caller's. *)

val store : t -> seq:int -> born:Mmt_util.Units.Time.t -> bytes -> unit
(** Record an unpadded wire frame under [seq], born at [born].  The
    buffer copies [frame]; the caller may reuse it once [store]
    returns. *)

val on_packet : t -> Mmt_sim.Packet.t -> unit
(** Feed a control packet; only NAKs addressed to this buffer are
    acted on. *)

val advert : t -> rtt_hint:Units.Time.t -> Control.Buffer_advert.t
(** Control-plane advertisement of this buffer (§ 6 challenge 1). *)

val stats : t -> stats
