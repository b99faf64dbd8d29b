(** The multi-modal transport header (§ 5.2 of the paper).

    Core header — 8 bytes, present in every packet:

    {v
      u8   configuration identifier (version of the next field)
      u24  configuration data (message kind + feature bits, {!Feature})
      u32  experiment identifier ({!Experiment_id})
    v}

    Followed by fixed-size optional extension fields {e in a fixed
    order}, present exactly when the corresponding feature bit is set:

    {v
      checksum          u16 checksum, u16 zero pad   (Checksummed)
      sequence          u32                      (Sequenced)
      retransmit_from   u32 IPv4                 (Reliable)
      deadline, notify  u64 ns, u32 IPv4         (Timely)
      age               u32 age_us, u32 budget_us,
                        u8 flags (bit0 = aged),
                        u24 hop count, u64 last-touch ns   (Age_tracked)
      pace              u32 Mbps                 (Paced)
      backpressure_to   u32 IPv4                 (Backpressured)
      int stack         u8 count, u8 flags (bit0 = overflow),
                        u16 reserved, then {!max_int_hops} fixed
                        24-byte slots: u16 node id, u8 mode id,
                        u8 hop index, u32 queue depth (bytes),
                        u64 ingress ns, u64 egress ns   (Int_telemetry)
    v}

    The checksum extension comes {e first} (constant offset
    {!core_size} whenever present): a 16-bit RFC 1071 ones'-complement
    sum over the entire fixed header with the checksum field zeroed.
    Verification is therefore "ones'-complement sum over the header
    equals zero" — a constant-offset integer computation a P4 verify
    stage performs without parsing the payload.

    The header is designed for conservative, header-only rewriting in
    P4 hardware: every field is a fixed-width integer at an offset
    computable from the feature bits alone, and the hot-path age update
    has an in-place primitive ({!touch_age_in_place}). *)

open Mmt_util
open Mmt_frame

type age = {
  age_us : int;  (** accumulated one-way age, microseconds *)
  budget_us : int;  (** threshold after which the aged flag is set *)
  aged : bool;
  hop_count : int;
  last_touch_ns : Units.Time.t;
      (** when an element last accumulated age into this header *)
}

type timely = {
  deadline : Units.Time.t;  (** absolute delivery deadline *)
  notify : Addr.Ip.t;  (** where deadline-exceeded messages go *)
}

type int_record = {
  node_id : int;  (** stable identity of the stamping device, u16 *)
  mode_id : int;  (** which mode segment the hop serves, u8 *)
  hop_index : int;  (** position in the stack at stamping time *)
  queue_depth : int;  (** egress queue occupancy in bytes, u32 saturating *)
  ingress_ns : Units.Time.t;  (** when the packet entered the device *)
  egress_ns : Units.Time.t;  (** when it left the pipeline *)
}
(** One hop's in-band telemetry stamp (INT "embedded stack" style). *)

type int_stack = {
  records : int_record list;  (** oldest hop first; at most {!max_int_hops} *)
  overflowed : bool;
      (** a hop wanted to stamp but the stack was full (INT E-bit) *)
}

val empty_int_stack : int_stack

type t = private {
  config_id : int;
  kind : Feature.Kind.t;
  features : Feature.Set.t;
  experiment : Experiment_id.t;
  sequence : int option;
  retransmit_from : Addr.Ip.t option;
  timely : timely option;
  age : age option;
  pace_mbps : int option;
  backpressure_to : Addr.Ip.t option;
  int_stack : int_stack option;
}

val create :
  ?kind:Feature.Kind.t ->
  ?sequence:int ->
  ?retransmit_from:Addr.Ip.t ->
  ?timely:timely ->
  ?age:age ->
  ?pace_mbps:int ->
  ?backpressure_to:Addr.Ip.t ->
  ?int_stack:int_stack ->
  ?extra_features:Feature.t list ->
  experiment:Experiment_id.t ->
  unit ->
  t
(** The feature set is derived from which optional arguments are
    given, plus [extra_features] for value-less features (Duplicated,
    Encrypted).  [Reliable] implies [Sequenced] in any well-formed
    header, but [create] does not add it implicitly — pass both.
    @raise Invalid_argument on out-of-range field values or if
    [extra_features] names a feature that carries a field. *)

val mode0 : experiment:Experiment_id.t -> t
(** Mode 0: identification only — how DAQ data leaves the sensor. *)

val size : t -> int
(** Encoded size in bytes. *)

val core_size : int
(** 8. *)

val checksum_size : int
(** 4 — u16 checksum plus u16 zero pad, keeping extensions 32-bit
    aligned. *)

val max_int_hops : int
(** 4 — the bounded depth of the in-band telemetry stack.  A fixed
    bound keeps the extension a constant-size header field, as a P4
    parser requires. *)

val int_record_size : int
(** 24 — encoded bytes per telemetry record. *)

val int_ext_size : int
(** Encoded size of the whole INT extension (count/flags word plus
    {!max_int_hops} slots), feature-independent. *)

val max_size : int
(** Encoded size of a header carrying every extension: the most bytes a
    parse starting at the header can read, whatever its feature bits
    say. *)

val encode : t -> bytes
(** Seals the checksum when the Checksummed feature is active. *)

val encode_into : Mmt_wire.Cursor.Writer.t -> t -> unit

val seal_in_place : bytes -> off:int -> size:int -> unit
(** Recompute and store the checksum of the header spanning
    [\[off, off + size)]; the caller asserts the Checksummed feature is
    active (the field lives at [off + core_size]). *)

val verify_in_place : bytes -> off:int -> size:int -> bool
(** True iff the ones'-complement sum over the header window is zero —
    the sealed-and-uncorrupted property. *)

val decode : Mmt_wire.Cursor.Reader.t -> (t, string) result
(** Consumes exactly [size] bytes on success. *)

val decode_bytes : ?off:int -> bytes -> (t, string) result

(* Field surgery *)

val with_sequence : t -> int -> t
val with_retransmit_from : t -> Addr.Ip.t -> t
val with_timely : t -> timely -> t
val with_age : t -> age -> t
val with_pace : t -> int -> t
val with_backpressure_to : t -> Addr.Ip.t -> t
val with_int_stack : t -> int_stack -> t
val with_checksummed : t -> t
(** Activate the Checksummed feature; {!encode} then seals the header. *)

val with_kind : t -> Feature.Kind.t -> t
val strip : t -> Feature.t -> t
(** Remove a feature and its field; no-op if absent. *)

val offset_of_age : t -> int option
(** Byte offset of the age extension from the header start, when
    present — computable from the feature bits alone, as a P4 parser
    would. *)

val touch_age_in_place :
  bytes -> ext_off:int -> now:Units.Time.t -> int * bool
(** [touch_age_in_place frame ~ext_off ~now] accumulates
    [now - last_touch] into the age field, updates last-touch, sets the
    aged flag if the budget is exceeded and increments the hop count —
    all by in-place byte surgery, the way a switch pipeline would.
    Returns [(age_us, aged)].  The caller supplies [ext_off] as the
    header start offset within [frame] plus {!offset_of_age}. *)

val offset_of_int : t -> int option
(** Byte offset of the INT extension from the header start, when
    present — computable from the feature bits alone. *)

val push_int_record_in_place :
  bytes ->
  ext_off:int ->
  node_id:int ->
  mode_id:int ->
  queue_depth:int ->
  ingress:Units.Time.t ->
  egress:Units.Time.t ->
  int option
(** Append one telemetry record to the stack by in-place byte surgery
    (the INT transit-hop fast path).  Returns [Some hop_index] when
    stamped; when the stack is already {!max_int_hops} deep it sets the
    overflow flag instead and returns [None].  Out-of-range node/mode
    ids are masked to field width and [queue_depth] saturates, as
    fixed-width ALU writes would. *)

(** Zero-copy header views — the simulated equivalent of a Tofino
    match-action stage's header vector (§ 5.3 "conservative,
    header-based processing").

    A view parses only the 8-byte core (configuration identifier +
    configuration data) and derives the byte offset of every extension
    from the feature bits alone — exactly the arithmetic a P4 parser
    state machine performs.  All reads and writes are then fixed-offset
    integer accesses directly into the frame's [Bytes.t]: no record is
    materialised, no list is built, nothing is re-encoded.  The
    per-packet elements, the switches' routes and the receiver's data
    path use views, and a rewriter that changes the header's shape
    writes a {!Template}; the full {!decode} is left to control
    messages and tests. *)
module View : sig
  type nonrec t
  (** A window onto one encoded header inside a frame.  A view is
      reusable: {!parse_into} re-aims it at another header without
      allocating, which is how a switch's header vector
      ({!Header_vector}) parses every packet into the same record.
      Accessors never allocate except where documented, and read the
      frame the view was last aimed at. *)

  val blank : unit -> t
  (** A view of nothing, to be aimed with {!parse_into}. *)

  val parse_into : t -> bytes -> off:int -> bool
  (** The header parser: validate the core header at [off] and compute
      every extension offset from the feature bits.  False on an
      unknown configuration identifier, reserved configuration bits, a
      truncated frame, or an out-of-range INT stack count — the same
      conditions {!decode} rejects — and then only {!parse_error} may
      be asked of the view.  Allocates nothing. *)

  val parse_error : t -> string
  (** Why the last {!parse_into} failed.
      @raise Invalid_argument when it succeeded. *)

  val of_frame : ?off:int -> bytes -> (t, string) result
  (** {!parse_into} a fresh view. *)

  val kind : t -> Feature.Kind.t
  val features : t -> Feature.Set.t
  val has : t -> Feature.t -> bool

  val size : t -> int
  (** Encoded header size implied by the feature bits; the payload
      starts at [off + size]. *)

  val experiment : t -> Experiment_id.t

  (** Field accessors below raise [Invalid_argument] when the feature
      is absent — check {!has} first on paths where that is possible.
      Setters mask/validate exactly like the record-level [with_*]
      functions, and never change the header's size.  When the
      Checksummed feature is active, every setter reseals the checksum
      (the deparser's checksum-update stage); otherwise setters pay a
      single branch. *)

  val checksum : t -> int
  (** Stored checksum value (u16). *)

  val verify : t -> bool
  (** True when the Checksummed feature is absent, or when the stored
      checksum matches the header bytes.  Corrupt feature bits
      themselves are caught earlier: they change the implied size or
      trip {!of_frame}'s validation, or turn the header into one whose
      checksum no longer sums to zero. *)

  val sequence : t -> int
  val set_sequence : t -> int -> unit
  val retransmit_from : t -> Addr.Ip.t
  val set_retransmit_from : t -> Addr.Ip.t -> unit
  val deadline_ns : t -> Units.Time.t
  val set_deadline_ns : t -> Units.Time.t -> unit
  val notify : t -> Addr.Ip.t
  val set_notify : t -> Addr.Ip.t -> unit
  val age_us : t -> int
  val budget_us : t -> int
  val aged : t -> bool
  val hop_count : t -> int
  val last_touch_ns : t -> Units.Time.t

  val touch_age : t -> now:Units.Time.t -> int * bool
  (** {!touch_age_in_place} at the view's age offset. *)

  val pace_mbps : t -> int
  val set_pace_mbps : t -> int -> unit
  val backpressure_to : t -> Addr.Ip.t
  val set_backpressure_to : t -> Addr.Ip.t -> unit

  val int_count : t -> int
  val int_overflowed : t -> bool

  val int_record : t -> int -> int_record
  (** Read one stamped slot (allocates the record).
      @raise Invalid_argument outside [0 .. int_count - 1]. *)

  val int_records : t -> int_record list
  (** All stamped slots, oldest hop first (allocates; sink-only). *)

  val push_int_record :
    t ->
    node_id:int ->
    mode_id:int ->
    queue_depth:int ->
    ingress:Units.Time.t ->
    egress:Units.Time.t ->
    int option
  (** {!push_int_record_in_place} at the view's INT offset. *)

  val set_duplicated : t -> unit
  (** Set the Duplicated bit in the configuration data in place (the
      bit is value-less, so the header size is unchanged). *)

  val strip_int : t -> bytes
  (** A fresh MMT frame (header plus payload) with the INT extension
      removed and its feature bit cleared — two blits and a two-byte
      patch, no decode.  The INT extension is the last extension, so
      the strip is a contiguous cut. *)

  val stripped_int_length : t -> int
  (** Byte length {!strip_int} would return — lets a caller size a
      pool buffer before {!strip_int_into}. *)

  val strip_int_into : t -> bytes -> off:int -> unit
  (** {!strip_int} written at [off] of a caller-owned buffer (e.g. a
      pool frame with the encapsulation prefix already in place), so
      the per-packet strip at an INT sink allocates nothing. *)

  val set_duplicated_in : t -> bytes -> unit
  (** {!set_duplicated} applied to a byte-identical copy of the viewed
      frame instead of the frame itself (the duplicator marks the
      copies it sends, not the original). *)

  val copy_extension : t -> Feature.t -> bytes -> at:int -> unit
  (** Write the viewed header's extension for a field-carrying feature
      at [at] of another buffer, in exactly the bytes {!decode} then
      {!encode} would produce: flag bytes keep only their defined bit,
      reserved bytes and unused INT slots become zero, and u64 times
      pass through an OCaml int (63 bits).
      @raise Invalid_argument when the feature is absent or carries no
      field. *)
end

(** Compiled header shapes: how a segment-boundary rewriter writes a
    new header without building a {!t} per packet.  A template is one
    encoded header holding the constant fields of a target shape; each
    packet's header is the template with the fields it keeps copied
    from the incoming header and its per-packet fields filled in. *)
module Template : sig
  type header := t
  type t

  val make : ?features:Feature.Set.t -> header -> t
  (** The template of [header]'s shape and constant field values.
      [features] (default [header]'s) may differ from the header's
      only in bits that carry no field (e.g. feature bits this version
      does not define).
      @raise Invalid_argument otherwise. *)

  val size : t -> int
  (** Encoded header size. *)

  val emit :
    t ->
    from:View.t ->
    keep:Feature.Set.t ->
    bytes ->
    at:int ->
    sequence:int ->
    deadline:Units.Time.t ->
    last_touch:Units.Time.t ->
    unit
  (** Write the template at [at], with [from]'s experiment identifier.
      Each field-carrying extension of the template in [keep] is
      copied from [from] with {!View.copy_extension}; otherwise a
      sequence field takes [sequence], a timely field's deadline
      [deadline] and an age field's last-touch [last_touch], and every
      other field keeps the template's value.  The header is sealed
      once, at the end, when it is checksummed.  [from] must not view
      the bytes being written. *)

  val write :
    t ->
    bytes ->
    at:int ->
    sequence:int ->
    deadline:Units.Time.t ->
    last_touch:Units.Time.t ->
    unit
  (** {!emit} for a header that copies nothing: the template's own
      experiment identifier and constant fields, the per-packet fields
      filled as {!emit} fills them.  How an originating host writes
      the header it would otherwise build and encode per message. *)
end

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
