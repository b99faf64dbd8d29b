(** Segment-boundary mode rewriting — the multi-modality mechanism.

    "The mode may be changed by programmable hardware as the
    transported packets traverse network segments" (§ 5).  A rewriter
    is configured with the target {!Mmt.Mode} of the segment it guards
    the entrance to.  For each data packet it:

    - assigns a sequence number from a per-experiment register when the
      target mode is sequenced and the packet is not yet ("network
      elements add a sequence number to loss-recoverable streams",
      § 5.4);
    - names the segment's retransmission buffer in the header;
    - sets the absolute deadline (ingress time + budget) and the
      notification address when activating timeliness — preserving an
      already-present end-to-end deadline;
    - initializes the age extension when activating age tracking;
    - writes the advised pace and the back-pressure address;
    - strips features absent from the target mode;
    - optionally re-encapsulates (e.g. DAQ Ethernet → WAN IPv4 at the
      border, Req 1).

    The rewriter never decodes or re-encodes a header.  It compiles
    each (incoming feature set, target mode) transition once into a
    {!Mmt.Header.Template} and then writes every new header straight
    into the outgoing frame, copying the extensions it keeps, filling
    the per-packet fields (sequence, deadline, age) and sealing once.
    {!reference} is the same rewrite on decoded headers; the two agree
    byte for byte.  Every rewrite writes a new pool frame.  A
    checksummed data header whose checksum fails is discarded and
    counted as a parse error: the rewrite would reseal it and hide the
    corruption from every later check.

    A callback observes each rewritten packet so a co-located
    retransmission buffer can store it ({!Mmt.Buffer_host.store_packet},
    which copies the frame and keeps its padding).

    {b Graceful degradation.}  With a [liveness] oracle installed, a
    rewriter whose target mode names a retransmission buffer that is no
    longer live (failed, or its soft state expired) does not point NAK
    traffic at the corpse.  The oracle may first replan — call
    {!set_mode} to re-point the mode at a live buffer — and answer for
    the buffer the mode then names.  Only when it answers [false] does
    the rewriter strip [Reliable] {e and} [Sequenced] from the target
    mode — per {!Mmt.Mode.transition_legal}, a stream may only leave
    the recoverable region whole — so frames flow best-effort while no
    buffer is live. *)

type stats = {
  rewritten : int;
  sequenced : int;  (** sequence numbers assigned *)
  passed : int;  (** non-data packets forwarded untouched *)
  parse_errors : int;
      (** unparseable frames, and data headers whose checksum fails *)
  degraded : int;
      (** data packets rewritten into the degraded (unreliable) mode
          because the target buffer was not live *)
}

type t

val create :
  mode:Mmt.Mode.t ->
  ?re_encap:Mmt.Encap.t ->
  pool:Mmt_sim.Pool.t ->
  ?on_rewrite:
    (seq:int option -> born:Mmt_util.Units.Time.t -> Mmt_sim.Packet.t -> unit) ->
  ?liveness:(Mmt_frame.Addr.Ip.t -> now:Mmt_util.Units.Time.t -> bool) ->
  unit ->
  t
(** [liveness] is consulted per data packet for the target mode's
    retransmission buffer (typically
    [Resource_map.is_live (Control_plane.map control)]); omitting it
    preserves the historic always-trusting behaviour.  The oracle may
    call {!set_mode} before it returns: the packet is then rewritten
    into the new mode, and degrades only if the oracle answers
    [false].  Replacement
    frames are acquired from [pool] (the topology ring's) and each
    replaced frame is released back, so neither path leaks the old
    frame to the GC.  A re-encapsulated or rewrapped frame's IPv4 total
    length counts the packet's padding.

    [on_rewrite ~seq ~born packet] sees the rewritten packet, [seq] its
    sequence number if it has one and [born] its birth time, before the
    switch forwards it.  The packet is lent for the call: a callback
    that keeps the frame copies it (e.g. with
    {!Mmt.Buffer_host.store_packet}).
    @raise Invalid_argument when [mode] fails {!Mmt.Mode.check}. *)

val element : t -> Element.t

val set_mode : t -> Mmt.Mode.t -> (unit, string) result
(** Control-plane reconfiguration: swap the target mode at run time
    (e.g. pointing reliability at a different buffer after a failure).
    Validates the new mode and the legality of the transition from the
    current one; sequence counters persist across the change. *)

val mode : t -> Mmt.Mode.t

val compiled : t -> int
(** Transitions compiled so far.  A rewriter compiles once per incoming
    feature set and target mode, and keeps the degraded form of each
    mode it serves, so the count stays small over a run. *)

val degrade : Mmt.Mode.t -> Mmt.Mode.t
(** The degraded form of a mode: [Reliable] and [Sequenced] stripped,
    no buffer named. *)

val reference :
  mode:Mmt.Mode.t ->
  now:Mmt_util.Units.Time.t ->
  sequence:(Mmt.Experiment_id.t -> int) ->
  Mmt.Header.t ->
  Mmt.Header.t
(** The rewrite on a decoded header, the definition the compiled data
    path implements: [sequence] is asked for a number when the mode
    sequences a header that has none.  Encoding the result gives the
    header bytes the rewriter writes. *)

val stats : t -> stats
val next_sequence : t -> experiment:Mmt.Experiment_id.t -> int
(** Peek the register value the next packet of [experiment] would get. *)
