(** Control-message payloads.

    Control messages are ordinary multi-modal transport packets whose
    header kind is not [Data]; their payload is one of the codecs
    below.  The paper names three in-band control interactions: NAKs
    toward an explicit retransmission source (§ 5.4), deadline-exceeded
    notifications toward the configured address (§ 5.3), and
    back-pressure relayed to the sender (§ 5.1).  Buffer advertisements
    support the § 6 resource-map challenge. *)

open Mmt_util
open Mmt_frame

module Nak : sig
  type t = {
    requester : Addr.Ip.t;  (** where recovered packets should be sent *)
    ranges : (int * int) list;  (** inclusive [first, last] sequence ranges *)
  }

  val encode : t -> bytes
  val decode : bytes -> (t, string) result
  val sequence_count : t -> int
  (** Total sequences covered by [ranges]. *)

  val ranges_of_sorted : int list -> (int * int) list
  (** Coalesce a sorted, duplicate-free sequence list into inclusive
      ranges. *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Deadline_exceeded : sig
  type t = {
    sequence : int;  (** 0xFFFFFFFF when the stream is unsequenced *)
    deadline : Units.Time.t;
    observed : Units.Time.t;  (** arrival time at the checking element *)
  }

  val encode : t -> bytes
  val decode : bytes -> (t, string) result
  val lateness : t -> Units.Time.t
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Backpressure : sig
  type t = {
    origin : Addr.Ip.t;  (** the element that observed congestion *)
    advised_pace_mbps : int;
    severity : int;  (** 0 (clear) .. 255 (stop) *)
  }

  val encode : t -> bytes
  val decode : bytes -> (t, string) result
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Buffer_advert : sig
  type t = {
    buffer : Addr.Ip.t;
    capacity : Units.Size.t;
    rtt_hint : Units.Time.t;  (** advertised RTT from the advertising segment *)
  }

  val encode : t -> bytes
  val decode : bytes -> (t, string) result
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

val send :
  Mmt_runtime.Env.t ->
  ?experiment:Experiment_id.t ->
  dst:Addr.Ip.t ->
  Feature.Kind.t ->
  bytes ->
  unit
(** [send env ~dst kind payload] originates one control message: a
    mode-0 header of [kind] for [experiment] (default experiment 0,
    slice 0), over IPv4 from [env]'s own address to [dst]. *)
