(** Streaming and sampled statistics used by the telemetry layer.

    [Welford] keeps O(1) moments for unbounded streams; [Summary]
    stores the full sample for exact quantiles (experiment runs are
    small enough); [Histogram] buckets values for distribution shape
    reports. *)

module Welford : sig
  type t
  (** Numerically stable running mean/variance accumulator. *)

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0. when empty. *)

  val variance : t -> float
  (** Sample (n-1) variance; 0. for fewer than two observations. *)

  val stddev : t -> float
  val min : t -> float
  (** [infinity] when empty. *)

  val max : t -> float
  (** [neg_infinity] when empty. *)

  val sum : t -> float
  val merge : t -> t -> t
  (** [merge a b] is the accumulator over both streams. *)
end

module Summary : sig
  type t
  (** Exact-quantile summary backed by a growable sample array. *)

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [\[0, 1\]], by linear interpolation of
      the order statistics.  [nan] when empty.
      @raise Invalid_argument if [q] outside [\[0, 1\]]. *)

  val median : t -> float
  val min : t -> float
  (** [nan] when empty. *)

  val max : t -> float
  (** [nan] when empty. *)

  val to_array : t -> float array
  (** Sorted copy of the sample. *)
end

module Histogram : sig
  type t
  (** Fixed-width bucket histogram over [\[lo, hi)]; outliers are
      counted in saturating edge buckets. *)

  val create : lo:float -> hi:float -> buckets:int -> t
  (** @raise Invalid_argument if [hi <= lo] or [buckets < 1]. *)

  val add : t -> float -> unit
  val count : t -> int
  val bucket_bounds : t -> int -> float * float
  (** Inclusive-exclusive bounds of bucket [i]. *)

  val bucket_value : t -> int -> int
  (** Occupancy of bucket [i]. *)

  val underflow : t -> int
  val overflow : t -> int
  val render : t -> width:int -> string
  (** ASCII bar rendering for reports. *)
end

module Counter : sig
  type t
  (** Named monotone counters, for loss/retransmit/etc. tallies. *)

  val create : unit -> t
  val incr : ?by:int -> t -> string -> unit
  val get : t -> string -> int
  (** 0 for never-incremented names. *)

  val to_list : t -> (string * int) list
  (** Sorted by name. *)
end
