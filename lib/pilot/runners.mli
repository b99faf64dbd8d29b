(** Reusable experiment runners behind the figure/table reproductions.

    Each function builds a topology, drives it to quiescence and
    returns a measurement record.  The bench harness and the examples
    format these into {!Mmt_telemetry.Report}s. *)

open Mmt_util

(** Point-to-point baseline TCP transfer over a WAN path (Fig. 2 /
    § 4.1 claims).  Messages are written at the link pace and message
    completion latency is tracked through {!Mmt_tcp.Framing} to expose
    head-of-line blocking. *)
module Tcp_run : sig
  type params = {
    rate : Units.Rate.t;
    rtt : Units.Time.t;
    loss : float;
    transfer : Units.Size.t;
    message_size : Units.Size.t;
    offered : Units.Rate.t;
        (** the application's message pace; default = link rate
            (back-to-back).  Set it below the steady-state TCP rate to
            isolate HoL blocking from slow-start backlog. *)
    config : Mmt_tcp.Connection.config;
  }

  val params :
    ?rate:Units.Rate.t ->
    ?rtt:Units.Time.t ->
    ?loss:float ->
    ?transfer:Units.Size.t ->
    ?message_size:Units.Size.t ->
    ?offered:Units.Rate.t ->
    ?config:Mmt_tcp.Connection.config ->
    unit ->
    params
  (** Defaults: 100 GbE, 13 ms RTT, lossless, 64 MiB transfer, 1 MiB
      messages, tuned config.  The bottleneck queue always holds twice
      the bandwidth-delay product plus 1 MB, and the loss RNG always
      starts from seed 11. *)

  type outcome = {
    fct : Units.Time.t option;  (** flow completion (all bytes acked) *)
    throughput : Units.Rate.t;  (** transfer size / fct *)
    stats : Mmt_tcp.Connection.stats;
    message_latency_p50 : float;
        (** seconds; percentiles exclude the first 20% of messages
            (slow-start warmup) *)
    message_latency_p99 : float;
    message_latency_max : float;
    messages_completed : int;
  }

  val run : params -> outcome
end

(** UDP across the DAQ segment (Fig. 2 stage 1): loss is simply gone. *)
module Udp_run : sig
  type outcome = {
    sent : int;
    received : int;
    lost : int;
    goodput : Units.Rate.t;
  }

  val run : ?loss:float -> ?datagrams:int -> unit -> outcome
  (** 7200-byte datagrams back to back at 100 Gbps over a 5 µs hop
      with [loss] (default 0.1 %) drawn from seed 3; [datagrams]
      defaults to 10 000. *)
end

(** Multi-modal transfer with the retransmission buffer placed at a
    configurable fraction of the one-way WAN path (E-A1): recovery RTT
    shrinks as the buffer moves toward the destination, which is the
    paper's core flow-completion-time argument (§ 5.1). *)
module Placement_run : sig
  type params = {
    rate : Units.Rate.t;
    rtt : Units.Time.t;  (** end-to-end WAN RTT *)
    buffer_position : float;  (** 0 = at the source, 1 = at the sink *)
    loss : float;  (** applied downstream of the buffer *)
    bursty : bool;
        (** Gilbert-Elliott burst loss at the same average rate instead
            of independent Bernoulli loss *)
    buffer_capacity : Units.Size.t;
        (** shrink below the working set to exercise eviction and NAK
            escalation *)
    fragment_count : int;
    fragment_size : Units.Size.t;
    seed : int64;
  }

  val params :
    ?rate:Units.Rate.t ->
    ?rtt:Units.Time.t ->
    ?buffer_position:float ->
    ?loss:float ->
    ?bursty:bool ->
    ?buffer_capacity:Units.Size.t ->
    ?fragment_count:int ->
    ?fragment_size:Units.Size.t ->
    ?seed:int64 ->
    unit ->
    params
  (** The receiver waits 1 ms before its first NAK, and the buffer
      point's mode carries a 50 ms age budget. *)

  type outcome = {
    delivered : int;
    recovered : int;
    lost : int;
    fct : Units.Time.t option;  (** all fragments delivered *)
    latency_p50 : float;  (** seconds, per-message transport latency *)
    latency_p99 : float;
    latency_max : float;
    recovery_rtt : Units.Time.t;  (** theoretical NAK round trip *)
    receiver : Mmt.Receiver.stats;
  }

  val run : params -> outcome
end

(** Deadline-aware queueing vs drop-tail under bulk congestion
    (E-A5): a bulk stream oversubscribes a bottleneck while a small
    deadline-bearing alert stream shares it — § 5.3's "deadlines as an
    input to active queue management". *)
module Priority_run : sig
  type outcome = {
    alerts_delivered : int;
    alerts_late : int;
    bulk_delivered : int;
    alert_latency_p99 : float;  (** seconds *)
  }

  val run : deadline_aware:bool -> outcome
  (** 10 000 bulk messages of 8 KiB offered at 12 Gbps oversubscribe a
      10 Gbps, 5 ms bottleneck while 1 000 alerts of 1 KiB, each with a
      12 ms deadline budget, share it.  [deadline_aware] swaps the
      bottleneck's drop-tail queue for earliest-deadline-first. *)
end
