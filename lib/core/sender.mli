(** Data source endpoint.

    Sends discrete, timestamped messages (Req 7) toward a destination,
    encapsulated per segment (Req 1).  A sensor's sender starts in mode
    0 — identification only, no buffering, no retransmission — exactly
    as the paper's Fig. 3 point (1); downstream features are activated
    by the network, not here.

    The sender optionally honours pacing, and reacts to in-band
    back-pressure messages by adjusting its pace ("relay a backpressure
    signal to the sender", § 5.1). *)

open Mmt_util
open Mmt_frame

type config = {
  experiment : Experiment_id.t;
  destination : Addr.Ip.t;
  encap : Encap.t;
  deadline_budget : (Units.Time.t * Addr.Ip.t) option;
      (** sender-applied Timely feature: per-message absolute deadline
          of send-time + budget, and the notification sink *)
  backpressure_to : Addr.Ip.t option;
      (** advertise this control address in the header so on-path
          elements know where congestion signals go *)
  pace : Units.Rate.t option;  (** initial pace; [None] = unpaced *)
  padding : int;
      (** extra wire bytes per message, to model jumbo payloads without
          materializing them *)
}

type stats = {
  messages_sent : int;
  bytes_sent : int;  (** wire bytes including padding *)
  backpressure_received : int;
  deadline_notices_received : int;
  current_pace : Units.Rate.t option;
  queued : int;  (** messages waiting behind the pacer *)
}

type t

val create : env:Mmt_runtime.Env.t -> config -> t

val send : t -> bytes -> unit
(** Enqueue one message.  Departs immediately when unpaced and the
    queue is empty; otherwise at the pace.  At departure the payload
    is copied once, with the encapsulation and header, into a frame
    from the environment's ring pool.  A message queued behind the
    pacer is held by reference until then, so the caller must not
    mutate the payload after [send]. *)

val on_control : t -> Header.t -> bytes -> unit
(** Feed a control-kind transport message addressed to this sender
    (back-pressure, deadline-exceeded notices). *)

val stats : t -> stats
val config : t -> config
