(** Topology construction: nodes wired by links on one engine, plus
    shared identity allocation for packets.

    Topologies in this reproduction are the paper's: linear
    sensor → DTN → switch → DTN chains with optional fan-out to
    downstream researchers (Fig. 1, Fig. 4), and the facility
    generator's multi-site fan-in trees. *)

open Mmt_util

type t

val create : engine:Engine.t -> ?trace:Trace.t -> unit -> t
(** A topology owns one packet {!Ring}: every link created through it
    retires the packets it drops into that ring, and every host built
    on it creates and retires its packets there.  When [trace] is
    given, every link created through this topology records its packet
    events into it. *)

val engine : t -> Engine.t
val trace : t -> Trace.t option

val ring : t -> Ring.t option
(** The topology's packet ring.  Always [Some]; the option is kept for
    source compatibility with existing callers. *)

val fresh_packet_id : t -> int
(** Unique (per topology) packet identity, counting up from 0. *)

val add_node : t -> name:string -> Node.t
(** @raise Invalid_argument on duplicate names. *)

val find_node : t -> string -> Node.t
(** @raise Not_found for unknown names. *)

val connect :
  t ->
  src:Node.t ->
  dst:Node.t ->
  rate:Units.Rate.t ->
  propagation:Units.Time.t ->
  ?loss:Loss.t ->
  ?queue:Queue_model.t ->
  unit ->
  Link.t
(** Unidirectional [src -> dst] link delivering into [dst]'s handler. *)

val duplex :
  t -> a:Node.t -> b:Node.t -> rate:Units.Rate.t -> propagation:Units.Time.t ->
  Link.t * Link.t
(** Two lossless links with {!connect}'s default queue:
    [(a_to_b, b_to_a)]. *)

val links : t -> Link.t list
(** All links in creation order. *)

val nodes : t -> Node.t list
(** All nodes in creation order. *)
