(* Clock and order statistics shared by the parent process and the
   workloads. *)

(* CLOCK_MONOTONIC in nanoseconds.  The clock is system-wide, so a
   timestamp taken by the parent before it spawns a repetition and one
   taken inside that repetition are directly comparable. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles by the same rule as Python's
   [statistics.quantiles(values, n=4)] (the "exclusive" method), so the
   spreads printed here and the ones [compare.py] computes agree. *)
let quartiles values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = Stdlib.max 1 (Stdlib.min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 3)

(* Nearest-rank percentile of an already sorted int array. *)
let percentile_sorted (a : int array) p =
  let n = Array.length a in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))
