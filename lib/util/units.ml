module Time = struct
  type t = int

  let zero = 0
  let ns x = x
  let of_int_ns x = x
  let of_int64_ns x = Int64.to_int x
  let to_int64_ns t = Int64.of_int t
  let us x = int_of_float (x *. 1e3)
  let ms x = int_of_float (x *. 1e6)
  let seconds x = int_of_float (x *. 1e9)
  let to_ns t = t
  let to_float_s t = float_of_int t *. 1e-9
  let add = ( + )

  let sub a b = if a <= b then 0 else a - b
  let diff later earlier = sub later earlier

  let scale t k =
    let scaled = float_of_int t *. k in
    if scaled <= 0. then 0 else int_of_float scaled

  let compare = Int.compare
  let ( < ) (a : t) (b : t) = Stdlib.( < ) a b
  let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
  let ( > ) (a : t) (b : t) = Stdlib.( > ) a b
  let ( >= ) (a : t) (b : t) = Stdlib.( >= ) a b
  let equal = Int.equal
  let min (a : t) (b : t) = if Stdlib.( <= ) a b then a else b
  let max (a : t) (b : t) = if Stdlib.( >= ) a b then a else b
  let is_zero (t : t) = t = 0

  let pp fmt t =
    let f = float_of_int t in
    if t < 1_000 then Format.fprintf fmt "%dns" t
    else if t < 1_000_000 then Format.fprintf fmt "%.3gus" (f /. 1e3)
    else if t < 1_000_000_000 then Format.fprintf fmt "%.4gms" (f /. 1e6)
    else Format.fprintf fmt "%.4gs" (f /. 1e9)

  let to_string t = Format.asprintf "%a" pp t
end

module Size = struct
  type t = int

  let zero = 0
  let bytes x = x
  let kib x = x * 1024
  let mib x = x * 1024 * 1024
  let gib x = x * 1024 * 1024 * 1024
  let to_bytes t = t
  let to_bits t = t * 8
  let add = ( + )
  let sub a b = Stdlib.max 0 (a - b)
  let compare = Int.compare
  let equal = Int.equal

  let pp fmt t =
    let f = float_of_int t in
    if t < 1024 then Format.fprintf fmt "%dB" t
    else if t < 1024 * 1024 then Format.fprintf fmt "%.3gKiB" (f /. 1024.)
    else if t < 1024 * 1024 * 1024 then Format.fprintf fmt "%.4gMiB" (f /. 1048576.)
    else Format.fprintf fmt "%.4gGiB" (f /. 1073741824.)

  let to_string t = Format.asprintf "%a" pp t
end

module Rate = struct
  type t = float

  let zero = 0.
  let bps x = x
  let mbps x = x *. 1e6
  let gbps x = x *. 1e9
  let tbps x = x *. 1e12
  let to_bps t = t
  let to_gbps t = t /. 1e9
  let scale t k = t *. k
  let add = ( +. )
  let compare = Float.compare
  let is_zero t = t = 0.

  let transmission_time rate size =
    if rate <= 0. then Time.zero
    else
      let bits = float_of_int (Size.to_bits size) in
      Time.ns (int_of_float (Float.round (bits /. rate *. 1e9)))

  let bytes_in rate window =
    let seconds = Time.to_float_s window in
    Size.bytes (int_of_float (rate *. seconds /. 8.))

  let of_size_per_time size window =
    let seconds = Time.to_float_s window in
    if seconds <= 0. then 0.
    else float_of_int (Size.to_bits size) /. seconds

  let pp fmt t =
    if t < 1e3 then Format.fprintf fmt "%.3gbps" t
    else if t < 1e6 then Format.fprintf fmt "%.4gKbps" (t /. 1e3)
    else if t < 1e9 then Format.fprintf fmt "%.4gMbps" (t /. 1e6)
    else if t < 1e12 then Format.fprintf fmt "%.4gGbps" (t /. 1e9)
    else Format.fprintf fmt "%.4gTbps" (t /. 1e12)

  let to_string t = Format.asprintf "%a" pp t
end
