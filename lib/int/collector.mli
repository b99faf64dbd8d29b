(** INT digest aggregation: per-hop and per-segment distributions.

    The collector is the control-plane endpoint for {!Sink} postcards.
    From each digest it accumulates, per stamping device, residency
    (egress - ingress) and egress queue-depth distributions; per
    adjacent device pair, the inter-hop ("segment") latency — including
    the final leg from the last stamp to the sink; and the end-to-end
    span each stack covers.  It also audits the telescoping invariant:
    for every packet the per-segment pieces must sum to the end-to-end
    span ({!max_inconsistency_ns} stays at zero but for integer
    rounding).

    Everything aggregates through {!Mmt_util.Stats.Summary} and renders
    through {!Mmt_util.Table} / {!Mmt_telemetry.Report}. *)

open Mmt_util

type stats = {
  digests : int;
  overflowed : int;  (** digests whose stack had dropped a hop *)
  empty : int;  (** digests with no records at all *)
}

type t

val create : ?nodes:(int * string) list -> unit -> t
(** [nodes] maps node ids to names for rendering; unnamed ids render
    as [node-<id>]. *)

val add : t -> Digest.t -> unit
val stats : t -> stats

val node_name : t -> int -> string
val hop_ids : t -> int list
(** Stamping devices seen so far, ascending id. *)

val hop_stamps : t -> int -> int
val hop_residency : t -> int -> Stats.Summary.t option
(** Nanoseconds spent inside the device, per stamp. *)

val segment_ids : t -> (int * int) list
val segment_latency : t -> src:int -> dst:int -> Stats.Summary.t option
(** Nanoseconds from [src]'s egress stamp to [dst]'s ingress stamp (or
    to the sink's strip time for the final leg). *)

val e2e : t -> Stats.Summary.t
(** End-to-end covered span (first ingress to sink), nanoseconds. *)

val max_inconsistency_ns : t -> int
(** Worst per-packet |end-to-end - sum of segments| observed. *)

val hop_table : t -> Table.t
val segment_table : t -> Table.t
val render : t -> string
(** Both tables plus the end-to-end summary line. *)

val report : ?id:string -> ?title:string -> t -> Mmt_telemetry.Report.t
(** The per-hop breakdown as a standard experiment report, with a
    checked row asserting the telescoping invariant. *)
