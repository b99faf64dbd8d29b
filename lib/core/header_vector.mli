(** The header vector: one parse of a frame's headers, shared by every
    stage of a switch pass (§ 5.3 "conservative, header-based
    processing").

    A P4 parser fills the packet header vector once; every
    match-action stage then reads fields at fixed offsets.  This module
    is that parser for the simulator.  From a frame's first byte it
    walks the encapsulation (raw, Ethernet, IPv4, or IPv4 inside
    Ethernet, with {!Mmt_frame.Ipv4.read}'s checks), then parses the
    transport header with {!Header.View.parse_into}.  It records the
    encapsulation, its addresses as ints, the transport header's offset
    and view, or which step failed.  Parsing allocates nothing:
    {!Encap.locate} and {!Header.View.of_frame} are wrappers that build
    their results from it.

    {b One parse per pass.}  {!Mmt_innet.Switch} owns a vector, parses
    each packet into it when its pipeline starts, and {!enter}s it for
    the pass.  Elements and the forwarding table ask {!of_packet},
    which hands back the entered vector while it still describes the
    packet (same record, same frame, same generation), so the pass
    parses once.  An
    element that replaces the packet's frame calls {!refresh}, and a
    packet the vector does not describe (a replica) is parsed into it
    again.  Outside a pass, {!of_packet} parses into a per-domain
    scratch vector every time: its result is valid until the next
    {!of_packet} outside a pass on the same domain. *)

open Mmt_frame

type t

type encap =
  | Raw
  | Ethernet
  | Ipv4
  | Ethernet_ipv4  (** IPv4 inside Ethernet: {!Encap.Over_ipv4} *)

val create : unit -> t

val parse : t -> Mmt_sim.Packet.t -> unit
(** Parse the packet's frame into the vector, counting one parse. *)

val parse_frame : t -> bytes -> unit
(** Parse a bare frame, counted nowhere; the vector then describes no
    packet. *)

val refresh : t -> Mmt_sim.Packet.t -> unit
(** Re-aim the vector at the packet after an element replaced its
    frame, counting one refresh instead of a parse.  The element wrote
    the new frame's encapsulation, so its IPv4 header is not checked
    again. *)

val of_packet : Mmt_sim.Packet.t -> t
(** The vector describing the packet's current frame (see above). *)

val enter : t -> t
(** Make [t] the vector {!of_packet} trusts on this domain, for one
    switch pass; returns the vector to restore with {!leave}. *)

val leave : t -> unit

val parsed : t -> bool
(** Both the encapsulation and the transport header parsed. *)

val located : t -> bool
(** The encapsulation parsed (the transport header may not have). *)

val error : t -> string
(** Why parsing stopped: {!Encap.locate}'s message when the
    encapsulation failed, else {!Header.View.of_frame}'s.
    @raise Invalid_argument when the frame parsed. *)

(** {2 The encapsulation} — meaningful when {!located}. *)

val encap : t -> encap
val mmt_offset : t -> int

val ip_dst : t -> int
(** The IPv4 destination as an unsigned int ({!Mmt_frame.Addr.Ip.to_int}),
    or -1 when the frame does not ride IPv4 (or did not locate): the
    key of a switch's forwarding table. *)

val dst : t -> Addr.Ip.t
val src : t -> Addr.Ip.t
val dscp : t -> int
val ttl : t -> int
val mac_src : t -> Addr.Mac.t
val mac_dst : t -> Addr.Mac.t

(** {2 The transport header} — meaningful when {!parsed}. *)

val view : t -> Header.View.t
(** The vector's own view: it is re-aimed by the next parse, so keep
    field values, not the view. *)

val kind : t -> Feature.Kind.t

(** {2 Counters} *)

val parses : t -> int
val refreshes : t -> int
