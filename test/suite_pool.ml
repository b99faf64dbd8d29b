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

(* --- parallel map ---------------------------------------------------------- *)

(* [Parallel.init] runs on at most [Domain.recommended_domain_count ()]
   domains, so on a one-core host it never spawns one and these tests
   exercise only the caller's loop; with two or more cores, [jobs] 2
   and 0 run helper domains. *)

let spin units =
  let acc = ref 0 in
  for k = 1 to units * 50_000 do
    acc := !acc + (k land 7)
  done;
  ignore (Sys.opaque_identity !acc)

let test_parallel_init_order () =
  List.iter
    (fun jobs ->
      let n = 40 in
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      (* Early indices take longest, so later ones finish first. *)
      let results =
        Parallel.init ~jobs n (fun i ->
            Atomic.incr runs.(i);
            spin (n - i);
            (i * 7) + 1)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "results in index order (jobs %d)" jobs)
        (Array.init n (fun i -> (i * 7) + 1))
        results;
      Alcotest.(check (array int))
        (Printf.sprintf "each index ran once (jobs %d)" jobs)
        (Array.make n 1) (Array.map Atomic.get runs);
      Alcotest.(check int)
        (Printf.sprintf "n = 0 (jobs %d)" jobs)
        0
        (Array.length (Parallel.init ~jobs 0 (fun _ -> assert false))))
    [ 1; 2; 0 ]

let test_parallel_init_raises_after_join () =
  let caller = Domain.self () in
  List.iter
    (fun jobs ->
      let started = Atomic.make 0 and in_flight = Atomic.make 0 in
      (* Tasks on the calling domain fail at once, so with a helper the
         exception comes while the helper is still busy; the last index
         fails wherever it runs, in case the helper claimed them all. *)
      let raised =
        match
          Parallel.init ~jobs 16 (fun i ->
              if Domain.self () = caller || i = 15 then failwith "boom";
              Atomic.incr started;
              Atomic.incr in_flight;
              spin 20;
              Atomic.decr in_flight)
        with
        | _ -> false
        | exception Failure msg -> msg = "boom"
      in
      let running = Atomic.get in_flight and seen = Atomic.get started in
      spin 100;
      Alcotest.(check bool)
        (Printf.sprintf "exception re-raised (jobs %d)" jobs)
        true raised;
      Alcotest.(check int)
        (Printf.sprintf "no task still running (jobs %d)" jobs)
        0 running;
      Alcotest.(check int)
        (Printf.sprintf "no task starts afterwards (jobs %d)" jobs)
        seen (Atomic.get started))
    [ 1; 2; 0 ]

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
    Alcotest.test_case "parallel init keeps index order" `Quick
      test_parallel_init_order;
    Alcotest.test_case "parallel init raises after join" `Quick
      test_parallel_init_raises_after_join;
  ]
