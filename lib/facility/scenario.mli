(** Facility-scale fan-in scenario generator.

    Assembles the paper's setting — many detector front-ends
    shape-shifting elephant flows into shared event builders across a
    WAN (§ 2) — as one deterministic simulation: N sources of mixed
    workload shape (LArTPC-like bulk, photon-burst, steady telemetry)
    spread over geographically distributed detector halls ([sites]),
    each hall fanning its block of flows into an aggregation tree of
    fixed degree and hosting that block's mode-0 → mode-1 rewriters and
    retransmission buffers at a site-edge switch.  Halls join the
    facility edge over metro-distance uplinks; all traffic crosses one
    shared WAN bottleneck and lands on M sink hosts running one MMT
    receiver per flow.  The site edges and the facility edge forward by
    exact match on the destination ({!Mmt_innet.Router}), with entries
    for the flows each serves.

    Everything is derived from the config (including every [Rng]
    stream), so equal configs produce byte-identical topologies and
    reports — the property the E-F5 sweep's sequential-vs-parallel
    check rests on. *)

open Mmt_util

type kind = Bulk | Burst | Telemetry

type config = {
  flows : int;
  sites : int;
      (** detector halls; flows split over them in contiguous,
          near-even blocks (capped at one site per flow) *)
  sinks : int;
  duration : Units.Time.t;  (** workload emission window *)
  wan_rtt : Units.Time.t;
  wan_loss : float;
  seed : int64;
}

val default : config

(** {2 Fixed provisioning} *)

val degree : int  (** fan-in per aggregation switch *)

val bulk_rate : Units.Rate.t
(** A bulk source's nominal rate: its workload emits at it and the
    uplinks are sized from it.  [telemetry_rate] likewise. *)

val telemetry_rate : Units.Rate.t
val wan_rate : Units.Rate.t  (** the shared bottleneck *)

val kind_of_flow : int -> kind
(** Deterministic mix assignment: a repeating
    bulk/bulk/telemetry/bulk/burst/telemetry pattern (½ bulk, ⅙ burst,
    ⅓ telemetry). *)

val kind_label : kind -> string

val nominal_rate : kind -> Units.Rate.t
(** Capacity-planning rate of one flow of [kind] (§ 2.1: DAQ traffic
    has "a regular shape (size and arrival rate)"). *)

val levels : flows:int -> degree:int -> int list
(** Aggregation-switch counts per tree level, leaves first, ending in
    the single root that feeds the site edge. *)

val site_spans : config -> (int * int) array
(** Per-site [(first_flow, flow_count)] blocks: contiguous, near-even,
    never empty (the site count is capped at the flow count).
    @raise Invalid_argument if [sites < 1] or [flows < 1]. *)

val describe : config -> string
(** The full static topology plan, rendered deterministically —
    compared byte-for-byte by the determinism tests. *)

type built = {
  workloads : Mmt_daq.Workload.t Flow_table.t;
  receivers : Mmt.Receiver.t Flow_table.t;
  buffers : Mmt.Buffer_host.t Flow_table.t;
  rewriters : Mmt_innet.Mode_rewriter.t Flow_table.t;
  senders : Mmt.Sender.t Flow_table.t;
}
(** Per-flow endpoint handles, for reading results back after a run —
    and, in the chaos harness, for reading sequenced-emission counts
    (rewriters) and pushing tail-probe frames (senders). *)

val build :
  ?on_deliver:(flow:int -> seq:int option -> unit) ->
  config ->
  Mmt_sim.Topology.t ->
  built
(** Construct the whole facility inside the given topology, every
    component on its engine.  [on_deliver] observes every application
    delivery with the flow id and the frame's sequence number (as
    carried by the MMT header; [None] for unsequenced frames); the
    default observer does nothing.  Construction order is identical
    regardless of [on_deliver], so instrumented and plain builds
    schedule byte-identically. *)

type result = {
  summary : Metrics.summary;
  samples : Metrics.flow_sample array;  (** indexed by flow id *)
  sim_time : Units.Time.t;
      (** first-to-last arrival span across all flows — the goodput
          window (the engine clock is pinned to the drain cap by
          [run ~until], so it can't serve as one) *)
  events : int;  (** engine events processed *)
}

val run : config -> result
(** Build the scenario on a fresh engine, run it to completion (with a
    one-second drain cap past [duration] as a safety bound), and read
    the metrics back from the endpoints' own statistics.  The whole
    forwarding path recycles records and frames through the topology's
    packet {!Mmt_sim.Ring}. *)
