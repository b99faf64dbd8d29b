(** Data source endpoint.

    Sends discrete, timestamped messages (Req 7) toward a destination,
    encapsulated per segment (Req 1).  A sensor's sender starts in mode
    0 — identification only, no buffering, no retransmission — exactly
    as the paper's Fig. 3 point (1); downstream features are activated
    by the network, not here.

    The sender starts unpaced and paces itself only when in-band
    back-pressure asks it to ("relay a backpressure signal to the
    sender", § 5.1); a notice of severity 0 lifts the pace again. *)

open Mmt_util
open Mmt_frame

type config = {
  experiment : Experiment_id.t;
  destination : Addr.Ip.t;
  encap : Encap.t;
  deadline_budget : (Units.Time.t * Addr.Ip.t) option;
      (** sender-applied Timely feature: per-message absolute deadline
          of send-time + budget, and the notification sink *)
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

val send_with :
  t -> ?padding:int -> length:int -> (Mmt_wire.Cursor.Writer.t -> unit) -> unit
(** [send_with t ~length write] sends one message of [length] bytes
    that [write] produces, e.g. [Fragment.write w fragment].  [write]
    runs once, before [send_with] returns, and nothing it reads is kept
    afterwards, so it may read buffers the caller lends only for the
    call.  The message departs immediately when unpaced and the queue is
    empty: [write] then fills the payload of a frame from the
    environment's ring pool after the encapsulation and header
    ({!Encap.packet}), the message's one copy.  Otherwise it waits for
    the pace, and [write] fills a buffer of its own that the frame is
    written from at departure.

    [padding] (default 0) adds that many virtual payload bytes after
    the written ones: the frame carries them as wire padding, so the
    message has its full size on every link, queue and pacer, queued
    or not, without being materialized (e.g. [Fragment.write ~padding]
    of a synthetic payload).
    @raise Invalid_argument when [write] does not write exactly
    [length] bytes. *)

val send : t -> bytes -> unit
(** [send_with] writing [payload]: the caller may reuse [payload] as
    soon as [send] returns. *)

val on_control : t -> Header.t -> bytes -> unit
(** Feed a control-kind transport message addressed to this sender
    (back-pressure, deadline-exceeded notices). *)

val stats : t -> stats
val config : t -> config
