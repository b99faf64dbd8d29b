(** Data sink endpoint.

    Implements the destination behaviour of the pilot study (§ 5.4):
    loss detection from in-network-assigned sequence numbers, NAK-based
    recovery against the retransmission buffer named in the header
    (mode 2), and the timeliness check (mode 3): final age
    accumulation, deadline comparison, and deadline-exceeded
    notifications toward the configured address.

    Messages are delivered to the application immediately on arrival,
    out of order — the message abstraction (Req 7) means there is no
    head-of-line blocking; recovered messages are delivered late and
    flagged. *)

open Mmt_util

type config = {
  experiment : Experiment_id.t;
  nak_delay : Units.Time.t;
      (** debounce between detecting a gap and sending the first NAK *)
  nak_retry_timeout : Units.Time.t;
      (** re-NAK period for still-missing sequences *)
  max_nak_retries : int;  (** give up (count as lost) after this many NAKs *)
  expected_total : int option;
      (** when known, completion time is recorded at full delivery *)
}

type meta = {
  sequence : int option;
      (** the header's sequence number, when it is sequenced — the one
          header field delivery callbacks need; the receiver reads data
          headers through a {!Header.View} and decodes none *)
  arrival : Units.Time.t;
  transport_latency : Units.Time.t;  (** arrival - packet birth *)
  recovered : bool;  (** this message previously appeared as a gap *)
  late : bool;  (** arrived past its deadline *)
  aged : bool;  (** age budget exceeded by final accumulation *)
  age_us : int option;  (** final accumulated age, when age-tracked *)
}

type stats = {
  delivered : int;
  delivered_bytes : int;
  duplicates : int;
  corrupted : int;
      (** discarded on arrival: oracle-flagged, undecodable, or failed
          checksum verification *)
  checksum_failed : int;
      (** subset of [corrupted] caught by real header-checksum
          verification (Checksummed feature) rather than the
          simulator's oracle flag *)
  implausible : int;
      (** subset of [corrupted] rejected by the sequence-plausibility
          bound: the frame implied a gap span no honest reordering
          produces, so it is treated as undetected header corruption
          instead of opening (and NAKing) millions of phantom gaps *)
  unsequenced : int;
  gaps_detected : int;
  recovered : int;
  lost : int;  (** gaps abandoned after [max_nak_retries] *)
  unrecoverable : int;  (** gaps with no retransmission source in the header *)
  naks_sent : int;
  nak_sequences_requested : int;
  late : int;
  aged : int;
  deadline_notices_sent : int;
  out_of_order : int;
  source_updates : int;
      (** retransmission source retargeted by buffer advertisements
          (e.g. after an in-network buffer failover) *)
  resurrected : int;
      (** sequences abandoned (counted in [lost]) that a straggling
          retransmission later delivered anyway — invariant checkers
          subtract these so every frame nets exactly one terminal
          state *)
  first_arrival : Units.Time.t option;
  last_arrival : Units.Time.t option;
  completion : Units.Time.t option;
  still_missing : int;
  nak_state_high_water : int;
      (** most sequences simultaneously tracked as missing — the
          receiver-side soft-state footprint a hardware NAK engine
          would have to provision for *)
}

type t

val create :
  env:Mmt_runtime.Env.t ->
  config ->
  deliver:(meta -> Mmt_wire.Cursor.Reader.t -> unit) ->
  t
(** [deliver meta payload] runs once per delivered message.  [payload]
    is a reader over the message's payload bytes inside the arriving
    frame, not a copy.  The frame goes back to the ring when
    {!on_packet} returns, so the reader is valid only until [deliver]
    returns.  A callback that keeps the payload copies it out, e.g.
    with {!Mmt_wire.Cursor.Reader.rest}.  The packet's padding is the
    reader's virtual tail: it counts in [remaining], so a length field
    covering a virtual payload checks out, but it has no bytes to
    read. *)

val on_packet : t -> Mmt_sim.Packet.t -> unit
(** Feed an arriving packet (any encapsulation).  Corrupted packets
    are discarded, as a failed frame check would.  The receiver is the
    packet's last holder: it retires the packet into the ring before
    returning. *)

val stats : t -> stats

val latency_summary : t -> Stats.Summary.t
(** Transport latency of every delivered message. *)

val age_summary : t -> Stats.Summary.t
(** Final age (microseconds) of every age-tracked delivery. *)

val goodput : t -> Units.Rate.t
(** Delivered bytes over the first-to-last arrival window. *)
