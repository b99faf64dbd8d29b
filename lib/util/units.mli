(** Physical units used across the simulator and protocol layers.

    Time is an immediate [int] count of nanoseconds — 63 bits cover
    ~146 years of simulated time at exact integer precision, which
    keeps event ordering deterministic (no float drift) and keeps every
    timestamp unboxed: arithmetic and comparisons on [Time.t] never
    allocate, unlike the boxed [int64] representation this replaced.
    The on-wire format is still a 64-bit field; {!Time.of_int64_ns} and
    {!Time.to_int64_ns} convert at the codec boundary.  Data sizes are
    byte counts; rates are bits per second. *)

module Time : sig
  type t = private int
  (** Nanoseconds since simulation start.  Immediate (unboxed). *)

  val zero : t
  val ns : int -> t
  val of_int_ns : int -> t
  val of_int64_ns : int64 -> t
  (** Wire-format decode; truncates to 63 bits. *)

  val to_int64_ns : t -> int64
  (** Wire-format encode. *)

  val us : float -> t
  val ms : float -> t
  val seconds : float -> t
  val to_ns : t -> int
  val to_float_s : t -> float
  val add : t -> t -> t
  val sub : t -> t -> t
  (** Saturates at zero rather than going negative. *)

  val diff : t -> t -> t
  (** [diff later earlier]; saturates at zero. *)

  val scale : t -> float -> t
  val compare : t -> t -> int
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
  val equal : t -> t -> bool
  val min : t -> t -> t
  val max : t -> t -> t
  val is_zero : t -> bool
  val pp : Format.formatter -> t -> unit
  (** Human-scaled rendering: "1.5ms", "2.3s", "250ns", ... *)

  val to_string : t -> string
end

module Size : sig
  type t = private int
  (** A byte count. *)

  val zero : t
  val bytes : int -> t
  val kib : int -> t
  val mib : int -> t
  val gib : int -> t
  val to_bytes : t -> int
  val to_bits : t -> int
  val add : t -> t -> t
  val sub : t -> t -> t
  (** Saturates at zero. *)

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module Rate : sig
  type t = private float
  (** Bits per second. *)

  val zero : t
  val bps : float -> t
  val mbps : float -> t
  val gbps : float -> t
  val tbps : float -> t
  val to_bps : t -> float
  val to_gbps : t -> float
  val scale : t -> float -> t
  val add : t -> t -> t
  val compare : t -> t -> int
  val is_zero : t -> bool
  val transmission_time : t -> Size.t -> Time.t
  (** [transmission_time rate size] is the serialization delay of
      [size] bytes at [rate]; [Time.zero] for a zero rate (treated as
      infinitely fast, used by ideal links). *)

  val bytes_in : t -> Time.t -> Size.t
  (** [bytes_in rate window] is how many whole bytes fit in [window]. *)

  val of_size_per_time : Size.t -> Time.t -> t
  (** Measured rate: bytes transferred over elapsed time. *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end
