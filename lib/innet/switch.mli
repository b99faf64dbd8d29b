(** Programmable-device hosting shell.

    Binds an element chain to a simulator node with a device profile
    (pipeline latency), mirroring the pilot hardware: a Tofino2 switch
    and Alveo FPGA smartNICs (§ 5.4).  Every element's declared program
    must pass {!Op.realizable} — attaching an unrealizable element is a
    programming error, keeping the repository honest about what the
    paper claims P4 hardware can do.

    The switch parses each packet once per pass into its header vector
    ({!Mmt.Header_vector}), the way a P4 parser fills the header
    vector for every stage: its elements read the packet's headers
    through {!Mmt.Header_vector.of_packet}.

    Routing is a table lookup, the pipeline's last match-action stage:
    each packet an element passes on (a replica included) is looked up
    in the node's {!Router} by the IPv4 destination its vector holds,
    {!Mmt.Header_vector.ip_dst} as an unsigned int ([-1] when the frame
    does not ride IPv4).  An exact hit goes to the entry's sink, a miss
    to the table's default, and with neither the packet is counted
    [unrouted] and retired. *)

open Mmt_util

type profile = { profile_name : string; pipeline_latency : Units.Time.t }

val tofino2 : profile
(** ~450 ns pipeline latency. *)

val alveo_smartnic : profile
(** ~2 µs store-and-process FPGA NIC. *)

val software_switch : profile
(** ~20 µs — the FABRIC virtual-hardware pilot variant. *)

type stats = {
  processed : int;
  forwarded : int;
  replicated : int;  (** extra copies emitted beyond the originals *)
  discarded : int;  (** by an element *)
  unrouted : int;  (** no sink for the destination *)
}

type t

val attach :
  engine:Mmt_sim.Engine.t ->
  node:Mmt_sim.Node.t ->
  profile:profile ->
  ?allow_payload:bool ->
  router:Router.t ->
  elements:Element.t list ->
  unit ->
  t
(** Installs the node's handler, forwarding through [router], the
    node's table (the one its endpoints send through).
    [allow_payload] marks a DPDK/FPGA class device that may host
    payload-processing elements (§ 6 challenge 2); P4 switches (the
    default) may not.  Packets the switch destroys (element discards,
    unroutable destinations) retire into the table's ring, the
    topology's.
    @raise Invalid_argument if any element fails {!Op.realizable} for
    the device class. *)

val stats : t -> stats

val parses : t -> int
(** Packets parsed into the switch's header vector: one per processed
    packet, plus one per replica an element hands back.  Kept out of
    {!stats}, whose values feed run digests. *)

val refreshes : t -> int
(** Frame replacements its elements announced ({!Mmt.Header_vector.refresh}). *)
