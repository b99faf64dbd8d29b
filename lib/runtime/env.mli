(** Protocol runtime environment.

    The multi-modal transport's endpoints (sender, receiver, buffer
    host, control messages) are written against this capability record
    instead of a concrete topology: a clock and timers from the
    simulation engine, an IP-addressed send primitive, fresh packet
    identities, and the topology's packet {!Mmt_sim.Ring}.  The pilot
    layer constructs one per host from a {!Mmt_sim.Topology}.  The
    TCP and UDP baselines do not use it: they take the engine, the
    ring, an identity source and a link-level transmit function
    directly. *)

open Mmt_util
open Mmt_frame

type t = {
  engine : Mmt_sim.Engine.t;
  local_ip : Addr.Ip.t;
  send : Addr.Ip.t -> Mmt_sim.Packet.t -> unit;
      (** Route a packet toward a destination IP and transmit it on the
          corresponding link.  Unroutable destinations are counted and
          dropped by the implementation. *)
  fresh_id : unit -> int;  (** Fresh packet identity. *)
  ring : Mmt_sim.Ring.t;
      (** The topology's packet ring: new packets take slots from it
          and consumed packets retire into it. *)
}

val now : t -> Units.Time.t
val after : t -> Units.Time.t -> (unit -> unit) -> Mmt_sim.Engine.handle

val retire : t -> Mmt_sim.Packet.t -> unit
(** Declare the packet fully consumed: return its slot and frame to
    the ring.  The caller must be the packet's last holder. *)

val pool : t -> Mmt_sim.Pool.t
(** The ring's embedded frame pool, for copy paths that recycle bare
    frames. *)

val loopback :
  ?local_ip:Addr.Ip.t ->
  ?ring:Mmt_sim.Ring.t ->
  Mmt_sim.Engine.t ->
  t * Mmt_sim.Packet.t Queue.t
(** Test helper: an environment whose [send] appends to the returned
    queue regardless of destination.  [ring] defaults to a fresh
    ring. *)
