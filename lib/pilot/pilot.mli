(** The pilot study topology (Fig. 4, § 5.4).

    {v
      sensor --DAQ Ethernet--> DTN 1 --WAN--> Tofino2 --WAN--> DTN 2
      (LArTPC)   mode 0        Alveo U280      switch          Alveo U55C
                               mode 0 -> 1   age tracking     mode 3 check
                               + retx buffer  (+fan-out)
    v}

    Three modes, exactly as the paper's pilot: (1) unreliable transport
    sensor → DTN 1; (2) age-sensitive, recoverable-loss transport
    DTN 1 → DTN 2 with the retransmission buffer at DTN 1; (3) a
    timeliness check at the destination.  Mode changes are performed
    entirely by network elements.

    Optional extensions used by the figure reproductions: in-network
    duplication toward downstream researchers, and back-pressure from
    the switch to the sensor.

    Fixed for every run: the DUNE catalog workload, a 13 ms DTN 1 <->
    DTN 2 round trip, receivers that NAK a gap after 1 ms and re-NAK
    every 20 ms up to 8 times, a 100 ms event-builder window, and a
    Tofino timeliness checker that marks late frames. *)

open Mmt_util

type config = {
  profile : Profile.t;
  scale : float;  (** Table 1 rate multiplier *)
  fragment_count : int;
  payload : Mmt_daq.Workload.payload;
  wan_loss : float;  (** drop probability per WAN data packet *)
  wan_corrupt : float;
  deadline_budget : Units.Time.t option;
      (** activate Timely at DTN 1 with this budget *)
  age_budget_us : int;
  slices : int;
      (** instrument partitions streaming simultaneously (Req 8); each
          emits [fragment_count] fragments and DTN 2 reassembles
          complete events from matching trigger numbers (Req 9) *)
  researchers : int;  (** duplicated-stream consumers at the switch *)
  backpressure : bool;
  wan_bottleneck : float;
      (** rate multiplier for the switch -> DTN 2 hop; below 1.0 it
          creates a congestion point for back-pressure experiments *)
  int_telemetry : bool;
      (** activate in-band telemetry: DTN 1's rewriter inserts the INT
          stack, DTN 1 and the Tofino2 stamp it, and a sink on DTN 2's
          smartNIC strips it into a {!Mmt_int.Collector} *)
  seed : int64;
}

val default_config : config
(** Physical profile, DUNE workload at 1e-4 scale, 2000 fragments,
    13 ms WAN RTT, 0.2 % WAN loss, no researchers. *)

type t

val build : config -> t
(** Construct the pilot on a fresh engine; every host, switch and link
    creates and retires its packets through the topology's
    {!Mmt_sim.Ring}. *)

val run : t -> unit
(** Drive the simulation to quiescence. *)

type results = {
  emitted : int;  (** across all slices *)
  sender : Mmt.Sender.stats;
  receiver : Mmt.Receiver.stats;
  goodput : Units.Rate.t;
  buffer : Mmt.Buffer_host.stats;
  rewriter : Mmt_innet.Mode_rewriter.stats;
  age : Mmt_innet.Age_tracker.stats;
  timeliness : Mmt_innet.Timeliness_checker.stats;
  dtn1_switch : Mmt_innet.Switch.stats;
  tofino_switch : Mmt_innet.Switch.stats;
  wan_a : Mmt_sim.Link.stats;  (** DTN 1 -> switch *)
  wan_b : Mmt_sim.Link.stats;  (** switch -> DTN 2 *)
  researcher_stats : Mmt.Receiver.stats list;
  backpressure_stats : Mmt_innet.Backpressure_monitor.stats option;
  events : Mmt_daq.Event_builder.stats;
      (** physics events reassembled at DTN 2 from the slices *)
  finished_at : Units.Time.t;
}

val results : t -> results
val receiver : t -> Mmt.Receiver.t
val researcher_receivers : t -> Mmt.Receiver.t list
val config : t -> config

val engine : t -> Mmt_sim.Engine.t

val ring_stats : t -> Mmt_sim.Ring.stats list
(** The topology ring's statistics (recycle ratios for the bench
    report) as a one-element list. *)

val switches : t -> (string * Mmt_innet.Switch.t) list
(** The programmable devices on the path, in order: DTN 1's NIC, the
    Tofino, and DTN 2's NIC when it hosts the INT sink. *)

val int_nodes : (int * string) list
(** INT node ids used by the topology: dtn1 = 1, tofino2 = 2,
    dtn2 (sink) = 3, in path order. *)

val int_collector : t -> Mmt_int.Collector.t option
(** The digest aggregate, when [int_telemetry] was set. *)

val int_stamper_stats : t -> (string * Mmt_int.Stamper.stats) list
val int_sink_stats : t -> Mmt_int.Sink.stats option
