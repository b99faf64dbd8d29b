(* In-memory trace of one traced repetition, recorded from the bench's
   side of every layer boundary: the duration of each leaf (an engine
   step, a campaign trial or a registry entry), a span for each named
   leaf, and the engine's pending depth before each step.  Nothing here
   is enabled in the untraced repetitions that give the end-to-end
   numbers. *)

type t = {
  mutable leaf_ns : int array;
  mutable leaves : int;
  mutable spans : (string * int * int) list;  (** newest first *)
  mutable depth_counts : int array;  (** histogram indexed by depth *)
  mutable depth_hw : int;
}

let create () =
  {
    leaf_ns = Array.make 65_536 0;
    leaves = 0;
    spans = [];
    depth_counts = Array.make 1024 0;
    depth_hw = 0;
  }

let grown a needed =
  let len = ref (Array.length a) in
  while !len <= needed do
    len := 2 * !len
  done;
  let b = Array.make !len 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let leaf t ns =
  if t.leaves >= Array.length t.leaf_ns then t.leaf_ns <- grown t.leaf_ns t.leaves;
  t.leaf_ns.(t.leaves) <- ns;
  t.leaves <- t.leaves + 1

let named t name f =
  let start = Timing.now_ns () in
  let result = f () in
  let stop = Timing.now_ns () in
  leaf t (stop - start);
  t.spans <- (name, start, stop) :: t.spans;
  result

let depth t d =
  if d >= Array.length t.depth_counts then
    t.depth_counts <- grown t.depth_counts d;
  t.depth_counts.(d) <- t.depth_counts.(d) + 1;
  if d > t.depth_hw then t.depth_hw <- d

(* Drive [engine] one event at a time through [step] (which returns
   [false] once the run is over), timing every call that executed an
   event and sampling the pending depth before it. *)
let drive t engine step =
  let continue = ref true in
  while !continue do
    depth t (Mmt_sim.Engine.pending engine);
    let before = Mmt_sim.Engine.processed engine in
    let start = Timing.now_ns () in
    continue := step ();
    let stop = Timing.now_ns () in
    if Mmt_sim.Engine.processed engine > before then leaf t (stop - start)
  done

let sorted_leaves t =
  let a = Array.sub t.leaf_ns 0 t.leaves in
  Array.sort Int.compare a;
  a

(* Median pending depth over the sampled steps; 0 when the workload's
   engine is not driven by the bench. *)
let depth_median t =
  let total = Array.fold_left ( + ) 0 t.depth_counts in
  let rec walk d seen =
    if d >= Array.length t.depth_counts then 0
    else
      let seen = seen + t.depth_counts.(d) in
      if 2 * seen >= total then d else walk (d + 1) seen
  in
  if total = 0 then 0 else walk 0 0

let spans t = List.rev t.spans
