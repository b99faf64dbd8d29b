open Mmt_util

(* Structure-of-arrays binary min-heap ordered by (at, seq).

   The hot path — schedule, sift, pop, run — touches only immediate
   [int] arrays plus one closure array, so scheduling an event performs
   no heap allocation beyond the caller's callback: timestamps are
   unboxed nanosecond ints ({!Mmt_util.Units.Time}), handles are packed
   slot+generation ints, and sifting swaps parallel array elements with
   int temporaries.

   Layout: three parallel arrays indexed by heap position hold the key
   ([h_at], [h_seq]) and the owning slot id ([h_slot]).  A slot table
   indexed by slot id carries the callback ([s_fn]) and the handle
   generation ([s_gen]); free slots are chained through [s_free].
   Cancellation replaces the slot's callback with a private sentinel
   closure — O(1), no heap walk — and exact dead-weight accounting
   triggers an in-place compaction when cancelled entries exceed half
   the heap, so cancel-heavy workloads (timeouts, retransmit timers)
   cannot grow the queue without bound. *)

type t = {
  (* heap arrays, parallel, indexed by heap position *)
  mutable h_at : int array;
  mutable h_seq : int array;
  mutable h_slot : int array;
  mutable size : int;
  (* slot table, parallel, indexed by slot id *)
  mutable s_fn : (unit -> unit) array;
  mutable s_gen : int array;
  mutable s_free : int array; (* freelist chain; -1 terminates *)
  mutable free_head : int;
  mutable clock : int; (* ns *)
  mutable next_seq : int;
  mutable live : int;
  mutable processed : int;
  mutable last_at : int; (* ns timestamp of the last executed event *)
  mutable cancelled_in_heap : int;
}

type handle = int
(* [(slot lsl 31) lor generation]: immediate, so scheduling returns
   without allocating.  A slot's generation bumps every time the slot
   is freed, so handles to events that already ran (or were cancelled)
   go stale and [cancel] ignores them. *)

let null : handle = -1
let gen_mask = 0x7FFF_FFFF

(* Distinct top-level closures: [no_fn] fills empty slots, [cancelled_fn]
   marks cancelled ones.  Physical identity distinguishes them from any
   user callback (including [Stdlib.ignore]). *)
let no_fn = fun () -> ()
let cancelled_fn = fun () -> ()

let initial_capacity = 64

let create () =
  let cap = initial_capacity in
  let s_free = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1) in
  {
    h_at = Array.make cap 0;
    h_seq = Array.make cap 0;
    h_slot = Array.make cap 0;
    size = 0;
    s_fn = Array.make cap no_fn;
    s_gen = Array.make cap 0;
    s_free;
    free_head = 0;
    clock = 0;
    next_seq = 0;
    live = 0;
    processed = 0;
    last_at = 0;
    cancelled_in_heap = 0;
  }

let now t : Units.Time.t = Units.Time.of_int_ns t.clock

(* (at, seq) lexicographic order between heap positions i and j. *)
let earlier t i j =
  let ai = t.h_at.(i) and aj = t.h_at.(j) in
  if ai <> aj then ai < aj else t.h_seq.(i) < t.h_seq.(j)

let swap t i j =
  let at = t.h_at.(i) in
  t.h_at.(i) <- t.h_at.(j);
  t.h_at.(j) <- at;
  let seq = t.h_seq.(i) in
  t.h_seq.(i) <- t.h_seq.(j);
  t.h_seq.(j) <- seq;
  let slot = t.h_slot.(i) in
  t.h_slot.(i) <- t.h_slot.(j);
  t.h_slot.(j) <- slot

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < t.size && earlier t left !smallest then smallest := left;
  if right < t.size && earlier t right !smallest then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

(* Double every array; free slots above the old capacity join the
   freelist.  Amortized over the doubling, schedule stays O(log n)
   with no per-event allocation. *)
let grow t =
  let old = Array.length t.h_at in
  let cap = 2 * old in
  let extend_int a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.h_at <- extend_int t.h_at 0;
  t.h_seq <- extend_int t.h_seq 0;
  t.h_slot <- extend_int t.h_slot 0;
  let fns = Array.make cap no_fn in
  Array.blit t.s_fn 0 fns 0 old;
  t.s_fn <- fns;
  t.s_gen <- extend_int t.s_gen 0;
  t.s_free <- extend_int t.s_free 0;
  for i = old to cap - 1 do
    t.s_free.(i) <- (if i = cap - 1 then t.free_head else i + 1)
  done;
  t.free_head <- old

let alloc_slot t =
  if t.free_head = -1 then grow t;
  let slot = t.free_head in
  t.free_head <- t.s_free.(slot);
  slot

(* Bump the generation (staling every outstanding handle) and release
   the callback so the GC can collect it. *)
let free_slot t slot =
  t.s_gen.(slot) <- (t.s_gen.(slot) + 1) land gen_mask;
  t.s_fn.(slot) <- no_fn;
  t.s_free.(slot) <- t.free_head;
  t.free_head <- slot

let schedule t ~at fn =
  let at = Stdlib.max (Units.Time.to_ns at) t.clock in
  let slot = alloc_slot t in
  t.s_fn.(slot) <- fn;
  (* Heap arrays share capacity with the slot table and at most one
     slot per heap entry is live, so after [alloc_slot] there is room. *)
  let i = t.size in
  t.h_at.(i) <- at;
  t.h_seq.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.h_slot.(i) <- slot;
  t.size <- i + 1;
  t.live <- t.live + 1;
  sift_up t i;
  (slot lsl 31) lor t.s_gen.(slot)

let schedule_after t ~delay fn =
  schedule t ~at:(Units.Time.add (now t) delay) fn

(* Remove the root; returns its slot.  The caller decides whether the
   event runs or was dead weight. *)
let pop t =
  let slot = t.h_slot.(0) in
  let last = t.size - 1 in
  t.h_at.(0) <- t.h_at.(last);
  t.h_seq.(0) <- t.h_seq.(last);
  t.h_slot.(0) <- t.h_slot.(last);
  t.size <- last;
  if last > 0 then sift_down t 0;
  slot

(* Drop cancelled entries and restore the heap property bottom-up.
   The comparator is a total order, so pop order — and therefore the
   simulation — is unchanged. *)
let compact t =
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    let slot = t.h_slot.(i) in
    if t.s_fn.(slot) == cancelled_fn then free_slot t slot
    else begin
      let k = !kept in
      t.h_at.(k) <- t.h_at.(i);
      t.h_seq.(k) <- t.h_seq.(i);
      t.h_slot.(k) <- slot;
      incr kept
    end
  done;
  t.size <- !kept;
  t.cancelled_in_heap <- 0;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

let cancel t handle =
  if handle >= 0 then begin
    let slot = handle lsr 31 in
    let gen = handle land gen_mask in
    if
      slot < Array.length t.s_gen
      && t.s_gen.(slot) = gen
      && t.s_fn.(slot) != cancelled_fn
    then begin
      t.s_fn.(slot) <- cancelled_fn;
      t.live <- t.live - 1;
      t.cancelled_in_heap <- t.cancelled_in_heap + 1;
      if 2 * t.cancelled_in_heap > t.size then compact t
    end
  end

let pending t = t.live
let processed t = t.processed
let last_event_at t = Units.Time.of_int_ns t.last_at

(* Run the live event [fn] in [slot], just taken from the root at
   [at]. *)
let[@inline] fire t at slot fn =
  t.clock <- at;
  t.last_at <- at;
  t.live <- t.live - 1;
  t.processed <- t.processed + 1;
  free_slot t slot;
  fn ()

let[@inline] discard t slot =
  t.cancelled_in_heap <- t.cancelled_in_heap - 1;
  free_slot t slot

(* Top-level recursion (not a local [rec] closure): [step] and the run
   loop sit on the per-event hot path, and a closure capturing [t]
   would be allocated on every call. *)
let rec step t =
  if t.size = 0 then false
  else begin
    let at = t.h_at.(0) in
    let slot = pop t in
    let fn = t.s_fn.(slot) in
    if fn == cancelled_fn then begin
      discard t slot;
      step t
    end
    else begin
      fire t at slot fn;
      true
    end
  end

(* The one dispatch loop: execute live events at or before [limit]
   until [processed] reaches [stop].  Cancelled roots are drained
   without consuming budget. *)
let rec run_loop t limit stop =
  if t.size > 0 then begin
    let slot = t.h_slot.(0) in
    let fn = t.s_fn.(slot) in
    if fn == cancelled_fn then begin
      ignore (pop t);
      discard t slot;
      run_loop t limit stop
    end
    else begin
      let at = t.h_at.(0) in
      if at <= limit && t.processed < stop then begin
        ignore (pop t);
        fire t at slot fn;
        run_loop t limit stop
      end
    end
  end

let[@inline] clamp t limit =
  if limit <> max_int && t.clock < limit then t.clock <- limit

(* A chaos scenario whose faults provoke a zero-delay event livelock
   would make a pure time cap spin forever — the clock never reaches
   [until] — so the invariant checker needs a bound expressed in
   events.  [run] drives the same loop with a budget that never trips. *)
let run_bounded t ~until ~budget =
  let limit = Units.Time.to_ns until in
  let stop =
    if budget >= max_int - t.processed then max_int else t.processed + budget
  in
  run_loop t limit stop;
  (* After the loop any remaining root is live, so [h_at] is exact:
     the run terminated iff no live work remains inside the window. *)
  let terminated = t.size = 0 || t.h_at.(0) > limit in
  if terminated then clamp t limit;
  terminated

(* Same loop and clamp as [run_bounded ~budget:max_int], without that
   wrapper's budget arithmetic: [run] is called once per packet on the
   benchmarked forward path, where the wrapper showed up. *)
let run ?until t =
  let limit = match until with None -> max_int | Some l -> Units.Time.to_ns l in
  run_loop t limit max_int;
  clamp t limit
