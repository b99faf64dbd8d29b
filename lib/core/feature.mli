(** Transport features and the 24-bit configuration-data encoding.

    The core header carries an 8-bit configuration identifier (a
    version for interpreting the next field) and 24 bits of
    configuration data (§ 5.2 of the paper).  Under configuration
    identifier 1 — the only one defined here — the configuration data
    is laid out as:

    {v
      bits 0..15   feature activation bits (one per feature below)
      bits 16..19  reserved (must be zero)
      bits 20..23  message kind (data / control discriminator)
    v}

    A {e mode} is a configuration identifier plus an activated feature
    set plus the values of the features' extension fields; changing any
    of these mid-path is a mode change (§ 5). *)

type t =
  | Sequenced  (** packets carry a per-stream sequence number *)
  | Reliable
      (** loss is recoverable by NAK to an explicit retransmission
          source (the header names the buffer's IP) *)
  | Timely  (** a delivery deadline plus a notification address *)
  | Age_tracked
      (** network elements accumulate an age field and set the [aged]
          flag past a budget (§ 5.4) *)
  | Paced  (** sender honours an advised pace *)
  | Backpressured
      (** on-path elements may relay congestion back to the sender *)
  | Duplicated
      (** the stream is duplicated in-network to extra consumers *)
  | Encrypted  (** payload is encrypted (Req 5) *)
  | Int_telemetry
      (** the header carries a bounded in-band-telemetry stack that
          each programmable hop stamps with its identity, timestamps
          and queue depth (§ 6: per-hop observability) *)
  | Checksummed
      (** the header carries a 16-bit ones'-complement checksum over
          the fixed MMT header; receivers and P4-realizable verify
          elements detect on-the-wire corruption instead of trusting
          a simulator oracle (§ 5.3: fixed-size header fields keep
          this a constant-offset integer computation) *)

val all : t list
val to_string : t -> string
val bit : t -> int
(** Bit position inside the feature field; stable across versions. *)

module Set : sig
  type feature := t
  type t [@@immediate]
  (** An immutable feature set (bitmask). *)

  val empty : t
  val of_list : feature list -> t
  val to_list : t -> feature list
  val mem : feature -> t -> bool
  val add : feature -> t -> t
  val remove : feature -> t -> t
  val union : t -> t -> t
  val equal : t -> t -> bool
  val subset : t -> t -> bool
  val cardinal : t -> int
  val pp : Format.formatter -> t -> unit
end

module Kind : sig
  type t =
    | Data
    | Nak  (** request for retransmission of sequence ranges *)
    | Deadline_exceeded  (** notification toward the configured address *)
    | Backpressure  (** advised pace relayed toward the sender *)
    | Buffer_advert
        (** control-plane advertisement of an in-network retransmission
            buffer (§ 6 challenge 1) *)

  val to_int : t -> int
  val of_int : int -> t option
  val to_string : t -> string
  val equal : t -> t -> bool
end

val config_id_v1 : int

val encode_config_data : kind:Kind.t -> Set.t -> int
(** Pack kind and features into the 24-bit configuration data. *)

val decode_config_data : int -> (Kind.t * Set.t, string) result
(** Reject unknown kinds and non-zero reserved bits. *)

val decode_config_kind : int -> Kind.t option
(** The kind {!decode_config_data} would return, without allocating:
    [None] exactly when it returns [Error]. *)

val config_features : int -> Set.t
(** The feature bits of configuration data. *)
