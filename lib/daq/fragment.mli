(** DAQ fragment format.

    Models DUNE's readout convention (Req 9): "DUNE's four detectors
    each have specific headers but they all share a top-level DAQ
    header" [68].  The shared header identifies the run, the trigger,
    the slice (Req 8) and a 64-bit hardware timestamp; a
    detector-specific subheader follows; the detector payload (e.g. a
    serialized {!Lartpc} window) closes the fragment.

    Fragments are the {e messages} the transport carries (Req 7) —
    discrete and timestamped. *)

open Mmt_util

type detector =
  | Wib_ethernet of {
      crate : int;
      slot : int;
      fiber : int;
      first_channel : int;
      channel_count : int;
    }  (** LArTPC warm-interface-board readout *)
  | Photon_detector of { module_id : int; sipm_count : int; gain : int }
  | Beam_instrument of { device : int; sample_rate_khz : int; adc_bits : int }
  | Telescope_alert of {
      alert_id : int;
      ra_udeg : int;  (** right ascension, micro-degrees *)
      dec_udeg : int;  (** declination, micro-degrees, offset-encoded *)
      severity : int;
    }  (** Vera-Rubin-style alert (§ 2.1) *)

type header = {
  run : int;
  trigger : int;
  timestamp : Units.Time.t;
  experiment : Mmt.Experiment_id.t;
  detector : detector;
  payload_length : int;  (** bytes of payload that follow the subheader *)
}
(** Everything a fragment says about itself except its payload bytes. *)

type t = {
  run : int;
  trigger : int;  (** trigger/sequence number within the run *)
  timestamp : Units.Time.t;  (** hardware clock at digitization *)
  experiment : Mmt.Experiment_id.t;  (** includes the slice (Req 8) *)
  detector : detector;
  payload : bytes;
}

val header_size : int
(** Shared top-level header: 28 bytes. *)

val subheader_size : int
(** All detector subheaders are padded to 12 bytes. *)

val total_size : t -> int
(** Bytes {!write} writes: the headers plus the materialized payload. *)

val detector_kind_code : detector -> int

val write : ?padding:int -> Mmt_wire.Cursor.Writer.t -> t -> unit
(** The codec: serialize the fragment, [total_size] bytes, at the
    writer's position.  Senders write straight into the ring frame this
    way (see [Mmt.Sender.send_with]), so the fragment's bytes are copied
    once, from its payload into the frame.

    [padding] (default 0) declares that many {e virtual} payload bytes
    after [payload]: the header's payload length counts them, but they
    are not written.  The frame carries them as wire padding
    ([Mmt_sim.Packet.padding]), which is how a synthetic payload whose
    content nothing reads travels without being materialized.
    @raise Mmt_wire.Cursor.Out_of_bounds when the writer has too little
    room. *)

val encode : t -> bytes
(** [write] into a fresh buffer of [total_size] bytes. *)

val read_header : Mmt_wire.Cursor.Reader.t -> (header, string) result
(** Parse one fragment's header and subheader from the reader's
    position and check what {!read} checks: magic, version, detector
    kind, and that the whole payload lies within the reader, its
    virtual tail included ({!Mmt_wire.Cursor.Reader.remaining}).  It
    copies nothing and leaves the reader at the first payload byte, so
    a consumer that needs only the fragment's identity (e.g. an
    {!Event_builder}) reads a receiver's payload view in place, virtual
    payload or not.  On a reader without a tail it accepts exactly the
    inputs {!read} accepts; on a tail reader it also accepts a payload
    that reaches into the tail, which {!read} cannot copy. *)

val read : Mmt_wire.Cursor.Reader.t -> (t, string) result
(** {!read_header}, then the payload is copied out, so the result
    outlives the underlying buffer.  A payload that reaches into the
    reader's virtual tail has no bytes to copy: [Error], never an
    exception. *)

val decode : bytes -> (t, string) result
(** [read] over the whole buffer. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
