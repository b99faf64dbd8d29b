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
val detector_kind_code : detector -> int
val encode : t -> bytes

val read : Mmt_wire.Cursor.Reader.t -> (t, string) result
(** Parse one fragment from the reader's position, e.g. a receiver's
    payload view; the payload is copied out, so the result outlives
    the underlying buffer. *)

val decode : bytes -> (t, string) result
(** [read] over the whole buffer. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
