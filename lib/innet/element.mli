(** In-network processing elements.

    An element is one per-packet function hosted on a switch or
    smartNIC pipeline: it may rewrite the packet, replicate it, drop
    it, and emit control messages (through the environment it was
    created with).  Elements compose into a chain inside a
    {!Switch}. *)

open Mmt_util

type outcome =
  | Forward of Mmt_sim.Packet.t  (** possibly rewritten in place *)
  | Replicate of Mmt_sim.Packet.t list
      (** all copies continue down the chain / out the port *)
  | Discard of string

type t = {
  name : string;
  program : Op.program;
      (** declared per-packet operations; checked P4-realizable *)
  process : now:Units.Time.t -> Mmt_sim.Packet.t -> outcome;
}

val passthrough : t
(** Forwards untouched; the empty pipeline. *)

val chain : t list -> now:Units.Time.t -> Mmt_sim.Packet.t -> outcome
(** Run elements left to right.  [Replicate] fans the remaining chain
    over every copy; the first [Discard] wins for that copy. *)
