module Welford = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable sum : float;
  }

  let create () =
    { count = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; sum = 0. }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.sum <- t.sum +. x

  let count t = t.count
  let mean t = t.mean

  let variance t = if t.count < 2 then 0. else t.m2 /. float_of_int (t.count - 1)

  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
  let sum t = t.sum

  let merge a b =
    if a.count = 0 then { b with count = b.count }
    else if b.count = 0 then { a with count = a.count }
    else begin
      let count = a.count + b.count in
      let delta = b.mean -. a.mean in
      let mean =
        a.mean +. (delta *. float_of_int b.count /. float_of_int count)
      in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.count *. float_of_int b.count
            /. float_of_int count)
      in
      {
        count;
        mean;
        m2;
        min = Float.min a.min b.min;
        max = Float.max a.max b.max;
        sum = a.sum +. b.sum;
      }
    end
end

module Summary = struct
  type t = {
    mutable values : float array;
    mutable length : int;
    mutable sorted : bool;
  }

  let create () = { values = Array.make 16 0.; length = 0; sorted = true }

  let add t x =
    if t.length = Array.length t.values then begin
      let bigger = Array.make (2 * t.length) 0. in
      Array.blit t.values 0 bigger 0 t.length;
      t.values <- bigger
    end;
    t.values.(t.length) <- x;
    t.length <- t.length + 1;
    t.sorted <- false

  let count t = t.length

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.values 0 t.length in
      Array.sort compare live;
      Array.blit live 0 t.values 0 t.length;
      t.sorted <- true
    end

  let mean t =
    if t.length = 0 then 0.
    else begin
      let total = ref 0. in
      for i = 0 to t.length - 1 do
        total := !total +. t.values.(i)
      done;
      !total /. float_of_int t.length
    end

  let quantile t q =
    if q < 0. || q > 1. then invalid_arg "Stats.Summary.quantile";
    if t.length = 0 then nan
    else begin
      ensure_sorted t;
      let position = q *. float_of_int (t.length - 1) in
      let below = int_of_float (Float.floor position) in
      let above = Stdlib.min (below + 1) (t.length - 1) in
      let fraction = position -. float_of_int below in
      t.values.(below) +. (fraction *. (t.values.(above) -. t.values.(below)))
    end

  let median t = quantile t 0.5

  let min t = if t.length = 0 then nan else (ensure_sorted t; t.values.(0))
  let max t = if t.length = 0 then nan else (ensure_sorted t; t.values.(t.length - 1))

  let to_array t =
    ensure_sorted t;
    Array.sub t.values 0 t.length
end

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    width : float;
    buckets : int array;
    mutable underflow : int;
    mutable overflow : int;
    mutable count : int;
  }

  let create ~lo ~hi ~buckets =
    if hi <= lo then invalid_arg "Stats.Histogram.create: hi <= lo";
    if buckets < 1 then invalid_arg "Stats.Histogram.create: buckets < 1";
    {
      lo;
      hi;
      width = (hi -. lo) /. float_of_int buckets;
      buckets = Array.make buckets 0;
      underflow = 0;
      overflow = 0;
      count = 0;
    }

  let add t x =
    t.count <- t.count + 1;
    if x < t.lo then t.underflow <- t.underflow + 1
    else if x >= t.hi then t.overflow <- t.overflow + 1
    else begin
      let i = int_of_float ((x -. t.lo) /. t.width) in
      let i = Stdlib.min i (Array.length t.buckets - 1) in
      t.buckets.(i) <- t.buckets.(i) + 1
    end

  let count t = t.count

  let bucket_bounds t i =
    (t.lo +. (float_of_int i *. t.width), t.lo +. (float_of_int (i + 1) *. t.width))

  let bucket_value t i = t.buckets.(i)
  let underflow t = t.underflow
  let overflow t = t.overflow

  let render t ~width =
    let peak = Array.fold_left Stdlib.max 1 t.buckets in
    let buffer = Buffer.create 256 in
    Array.iteri
      (fun i occupancy ->
        let lo, hi = bucket_bounds t i in
        let bar_length = occupancy * width / peak in
        Buffer.add_string buffer
          (Printf.sprintf "[%10.3g, %10.3g) %6d %s\n" lo hi occupancy
             (String.make bar_length '#')))
      t.buckets;
    Buffer.contents buffer
end

module Counter = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let incr ?(by = 1) t name =
    let current = Option.value ~default:0 (Hashtbl.find_opt t name) in
    Hashtbl.replace t name (current + by)

  let get t name = Option.value ~default:0 (Hashtbl.find_opt t name)

  let to_list t =
    Hashtbl.fold (fun name value acc -> (name, value) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end
