open Mmt_util
module Pool = Mmt_sim.Pool
module Packet = Mmt_sim.Packet

let mk_packet ~id len fill =
  Packet.create ~id ~born:Units.Time.zero (Bytes.make len fill)

(* --- recycle mechanics -------------------------------------------------- *)

let test_release_retires_and_recycles () =
  let pool = Pool.create () in
  let frame = Bytes.make 100 'a' in
  let packet = Packet.create ~id:0 ~born:Units.Time.zero frame in
  let gen0 = packet.Packet.gen in
  Pool.release_packet pool packet;
  Alcotest.(check bool)
    "released packet holds the retired sentinel" true
    (Packet.frame packet == Pool.retired);
  Alcotest.(check int) "generation bumped" (gen0 + 1) packet.Packet.gen;
  let recycled = Pool.acquire pool 100 in
  Alcotest.(check bool)
    "acquire returns the recycled buffer" true (recycled == frame);
  let fresh = Pool.acquire pool 100 in
  Alcotest.(check bool) "pool empty again: fresh buffer" true (fresh != frame);
  let stats = Pool.stats pool in
  Alcotest.(check int) "one recycled acquire" 1 stats.Pool.recycled;
  Alcotest.(check int) "two acquires total" 2 stats.Pool.acquired

let test_double_release_is_noop () =
  let pool = Pool.create () in
  let packet = mk_packet ~id:0 100 'x' in
  Pool.release_packet pool packet;
  Pool.release_packet pool packet;
  Pool.release_packet pool packet;
  let stats = Pool.stats pool in
  Alcotest.(check int) "frame entered the pool once" 1 stats.Pool.released;
  (* The single pooled copy can be handed out exactly once: a double
     release must never let two acquires share one buffer. *)
  let a = Pool.acquire pool 100 in
  let b = Pool.acquire pool 100 in
  Alcotest.(check bool) "acquires are distinct buffers" true (a != b)

let test_size_classes_are_exact () =
  let pool = Pool.create () in
  Pool.release pool (Bytes.make 64 'a');
  let b = Pool.acquire pool 65 in
  Alcotest.(check int) "no cross-class reuse" 65 (Bytes.length b);
  Alcotest.(check int) "64-byte class still holds its frame" 64
    (Bytes.length (Pool.acquire pool 64))

let test_class_capacity_bounded () =
  let pool = Pool.create ~max_per_class:2 () in
  Pool.release pool (Bytes.make 32 'a');
  Pool.release pool (Bytes.make 32 'b');
  Pool.release pool (Bytes.make 32 'c');
  let stats = Pool.stats pool in
  Alcotest.(check int) "third release discarded" 1 stats.Pool.dropped;
  Alcotest.(check int) "class holds two frames" (2 * 32) stats.Pool.pooled_bytes

let test_no_aliasing_fuzz () =
  let pool = Pool.create ~max_per_class:64 () in
  let rng = Rng.create ~seed:7L in
  let sizes = [| 64; 64; 128; 256 |] in
  let live = ref [] in
  for i = 1 to 5_000 do
    if Rng.int rng ~bound:2 = 0 || !live = [] then begin
      let len = sizes.(Rng.int rng ~bound:(Array.length sizes)) in
      let frame = Pool.acquire pool len in
      (* The buffer we just got must not be under any live packet. *)
      List.iter
        (fun p ->
          if Packet.frame p == frame then
            Alcotest.failf "acquire #%d aliases live packet #%d" i
              p.Packet.id)
        !live;
      live := Packet.create ~id:i ~born:Units.Time.zero frame :: !live
    end
    else begin
      let victim = Rng.int rng ~bound:(List.length !live) in
      let packet = List.nth !live victim in
      live := List.filteri (fun j _ -> j <> victim) !live;
      Pool.release_packet pool packet;
      (* A stale second release through the dead packet must stay inert. *)
      if Rng.int rng ~bound:4 = 0 then Pool.release_packet pool packet
    end
  done;
  let stats = Pool.stats pool in
  Alcotest.(check bool) "fuzz exercised recycling" true (stats.Pool.recycled > 0)

(* --- task pool ---------------------------------------------------------- *)

let test_task_pool_runs_everywhere () =
  let pool = Task_pool.create ~max_workers:2 () in
  let counter = Atomic.make 0 in
  (* Three batches on the same pool: workers must be reusable. *)
  for _ = 1 to 3 do
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < 100 then begin
          Atomic.incr counter;
          loop ()
        end
      in
      loop ()
    in
    Task_pool.run pool ~extra:2 worker
  done;
  Alcotest.(check int) "every item claimed exactly once" 300
    (Atomic.get counter);
  Task_pool.shutdown pool;
  (* After shutdown the pool degrades to caller-only execution. *)
  let ran = ref false in
  Task_pool.run pool ~extra:2 (fun () -> ran := true);
  Alcotest.(check bool) "degrades after shutdown" true !ran

let test_task_pool_propagates_exception () =
  let pool = Task_pool.create ~max_workers:1 () in
  let raised =
    match Task_pool.run pool ~extra:1 (fun () -> failwith "boom") with
    | () -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "exception reaches the caller" true raised;
  (* The pool survives a failing batch. *)
  let ok = ref 0 in
  Task_pool.run pool ~extra:1 (fun () -> incr ok);
  Alcotest.(check bool) "pool usable after failure" true (!ok >= 1);
  Task_pool.shutdown pool

let suite =
  [
    Alcotest.test_case "release retires and recycles" `Quick
      test_release_retires_and_recycles;
    Alcotest.test_case "double release is a no-op" `Quick
      test_double_release_is_noop;
    Alcotest.test_case "size classes are exact" `Quick
      test_size_classes_are_exact;
    Alcotest.test_case "class capacity bounded" `Quick
      test_class_capacity_bounded;
    Alcotest.test_case "no aliasing under fuzz" `Quick test_no_aliasing_fuzz;
    Alcotest.test_case "task pool reuses workers" `Quick
      test_task_pool_runs_everywhere;
    Alcotest.test_case "task pool propagates exceptions" `Quick
      test_task_pool_propagates_exception;
  ]
