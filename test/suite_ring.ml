(* The preallocated packet ring: slot recycling, the in_packet /
   in_packet_done ownership protocol, growth and overflow fallback,
   detach, and an aliasing fuzz. *)
open Mmt_util
module Ring = Mmt_sim.Ring
module Pool = Mmt_sim.Pool
module Packet = Mmt_sim.Packet

let test_slot_reuse () =
  let ring = Ring.create ~slots:4 () in
  let p = Ring.in_packet ring ~id:1 ~born:Units.Time.zero 100 in
  Alcotest.(check int) "frame sized exactly" 100 (Bytes.length (Packet.frame p));
  Alcotest.(check bool) "slot assigned" true (p.Packet.slot >= 0);
  let slot = p.Packet.slot in
  let frame = Packet.frame p in
  Ring.in_packet_done ring p;
  let q = Ring.in_packet ring ~id:2 ~born:Units.Time.zero 100 in
  Alcotest.(check bool) "record recycled (LIFO slot reuse)" true (q == p);
  Alcotest.(check int) "same slot index" slot q.Packet.slot;
  Alcotest.(check bool) "frame recycled through the pool" true
    (Packet.frame q == frame);
  Alcotest.(check int) "id rewritten for the new incarnation" 2 q.Packet.id;
  let stats = Ring.stats ring in
  Alcotest.(check int) "two acquires" 2 stats.Ring.acquired;
  Alcotest.(check int) "one retirement" 1 stats.Ring.retired;
  Alcotest.(check int) "one live slot" 1 stats.Ring.in_use

let test_double_done_is_noop () =
  let ring = Ring.create ~slots:4 () in
  let p = Ring.in_packet ring ~id:1 ~born:Units.Time.zero 64 in
  Ring.in_packet_done ring p;
  Ring.in_packet_done ring p;
  Ring.in_packet_done ring p;
  let stats = Ring.stats ring in
  Alcotest.(check int) "retired once" 1 stats.Ring.retired;
  Alcotest.(check int) "extra dones counted, not applied" 2
    stats.Ring.double_done;
  Alcotest.(check int) "no live slots" 0 stats.Ring.in_use;
  (* The freed slot must be handed out exactly once even after the
     redundant dones. *)
  let a = Ring.in_packet ring ~id:2 ~born:Units.Time.zero 64 in
  let b = Ring.in_packet ring ~id:3 ~born:Units.Time.zero 64 in
  Alcotest.(check bool) "subsequent acquires are distinct records" true (a != b)

let test_stale_done_after_reacquire () =
  (* A component that holds a packet past its retirement and calls done
     again after the slot was re-acquired must NOT free the new
     incarnation out from under its owner. *)
  let ring = Ring.create ~slots:4 () in
  let p = Ring.in_packet ring ~id:1 ~born:Units.Time.zero 64 in
  Ring.in_packet_done ring p;
  let q = Ring.in_packet ring ~id:2 ~born:Units.Time.zero 64 in
  Alcotest.(check bool) "slot reused" true (q == p);
  (* [p] and [q] are the same record, so a stale done through the old
     handle is indistinguishable from a legitimate one — the protocol
     point is that the counters stay consistent and a *floating* stale
     handle (from detach) stays inert. *)
  let f = Ring.detach ring q in
  Alcotest.(check int) "slot freed by detach" (-1) f.Packet.slot;
  Alcotest.(check bool) "slot record disarmed (retired sentinel)" true
    (Packet.frame q == Pool.retired);
  let r = Ring.in_packet ring ~id:3 ~born:Units.Time.zero 64 in
  ignore r;
  Ring.in_packet_done ring f;
  (* the floating packet's frame recycles; r's slot must stay live *)
  Alcotest.(check int) "live slot untouched by floating done" 1
    (Ring.stats ring).Ring.in_use

let test_growth_and_overflow () =
  let ring = Ring.create ~slots:2 ~max_slots:4 () in
  let live =
    List.init 4 (fun i -> Ring.in_packet ring ~id:i ~born:Units.Time.zero 32)
  in
  Alcotest.(check int) "arena doubled to max_slots" 4
    (Ring.stats ring).Ring.capacity;
  List.iter
    (fun p -> Alcotest.(check bool) "slot-backed" true (p.Packet.slot >= 0))
    live;
  (* Past max_slots the ring degrades to floating records rather than
     growing without bound. *)
  let extra = Ring.in_packet ring ~id:99 ~born:Units.Time.zero 32 in
  Alcotest.(check int) "overflow packet floats" (-1) extra.Packet.slot;
  Alcotest.(check int) "overflow counted" 1 (Ring.stats ring).Ring.overflow;
  Ring.in_packet_done ring extra;
  List.iter (Ring.in_packet_done ring) live;
  Alcotest.(check int) "all retired" 0 (Ring.stats ring).Ring.in_use

let test_detach () =
  let ring = Ring.create ~slots:4 () in
  let p = Ring.in_packet ring ~id:7 ~born:(Units.Time.us 3.) 48 in
  Bytes.fill (Packet.frame p) 0 48 'z';
  p.Packet.hops <- 5;
  p.Packet.corrupted <- true;
  let frame = Packet.frame p in
  let f = Ring.detach ring p in
  Alcotest.(check bool) "floating record" true (f.Packet.slot = -1);
  Alcotest.(check bool) "frame adopted, not copied" true
    (Packet.frame f == frame);
  Alcotest.(check int) "id carried" 7 f.Packet.id;
  Alcotest.(check int) "hops carried" 5 f.Packet.hops;
  Alcotest.(check bool) "corruption carried" true f.Packet.corrupted;
  Alcotest.(check int) "slot freed immediately" 0 (Ring.stats ring).Ring.in_use;
  Alcotest.(check int) "detach counted" 1 (Ring.stats ring).Ring.detached;
  (* Identity on already-floating packets. *)
  let g = Ring.detach ring f in
  Alcotest.(check bool) "detach of floating is identity" true (g == f)

let test_alloc_adopts_frame () =
  let ring = Ring.create ~slots:4 () in
  let frame = Bytes.make 80 'q' in
  let p = Ring.alloc ring ~id:4 ~born:Units.Time.zero frame in
  Alcotest.(check bool) "adopts the caller's frame" true
    (Packet.frame p == frame);
  Ring.in_packet_done ring p;
  (* The adopted frame lands in the ring's pool for future in_packets. *)
  let q = Ring.in_packet ring ~id:5 ~born:Units.Time.zero 80 in
  Alcotest.(check bool) "adopted frame recycled" true (Packet.frame q == frame)

let test_clone_copies_everything () =
  let ring = Ring.create ~slots:4 () in
  let p = Ring.in_packet ring ~padding:13 ~id:1 ~born:(Units.Time.us 9.) 64 in
  Bytes.fill (Packet.frame p) 0 64 'c';
  p.Packet.hops <- 3;
  let q = Ring.clone ring p ~id:2 in
  Alcotest.(check bool) "distinct records" true (q != p);
  Alcotest.(check bool) "distinct frames" true
    (Packet.frame q != Packet.frame p);
  Alcotest.(check string) "same bytes"
    (Bytes.to_string (Packet.frame p))
    (Bytes.to_string (Packet.frame q));
  Alcotest.(check int) "padding copied" p.Packet.padding q.Packet.padding;
  Alcotest.(check int) "hops copied" 3 q.Packet.hops;
  Alcotest.(check bool) "born copied" true
    (Units.Time.equal p.Packet.born q.Packet.born)

let test_no_aliasing_fuzz () =
  (* Random interleaving of acquires, retirements, stale double-dones,
     detaches and clones.  Invariant: no live packet ever shares a
     record or a frame with another live packet. *)
  let ring = Ring.create ~slots:8 ~max_slots:32 () in
  let rng = Rng.create ~seed:0xA11A5L in
  let live = ref [] in
  let check_fresh i (p : Packet.t) =
    List.iter
      (fun (q : Packet.t) ->
        if q == p then Alcotest.failf "op %d: record aliases live #%d" i q.id;
        if Packet.frame q == Packet.frame p then
          Alcotest.failf "op %d: frame aliases live #%d" i q.id)
      !live;
    live := p :: !live
  in
  for i = 1 to 10_000 do
    match Rng.int rng ~bound:6 with
    | 0 | 1 ->
        let len = 32 + (32 * Rng.int rng ~bound:4) in
        check_fresh i (Ring.in_packet ring ~id:i ~born:Units.Time.zero len)
    | 2 when !live <> [] ->
        let victim = Rng.int rng ~bound:(List.length !live) in
        let p = List.nth !live victim in
        live := List.filteri (fun j _ -> j <> victim) !live;
        Ring.in_packet_done ring p;
        (* a stale retirement through the dead handle must stay inert
           for whatever acquires happened since *)
        if Rng.int rng ~bound:4 = 0 then Ring.in_packet_done ring p
    | 3 when !live <> [] ->
        let victim = Rng.int rng ~bound:(List.length !live) in
        let p = List.nth !live victim in
        live := List.filteri (fun j _ -> j <> victim) !live;
        let f = Ring.detach ring p in
        (* the floating record is still live from the fuzzer's view *)
        live := f :: !live
    | 4 when !live <> [] ->
        let src = List.nth !live (Rng.int rng ~bound:(List.length !live)) in
        check_fresh i (Ring.clone ring src ~id:(100_000 + i))
    | _ -> ()
  done;
  List.iter (Ring.in_packet_done ring) !live;
  let stats = Ring.stats ring in
  Alcotest.(check int) "everything retired" 0 stats.Ring.in_use;
  Alcotest.(check bool) "fuzz exercised slot recycling" true
    (stats.Ring.retired > 1_000);
  Alcotest.(check bool) "fuzz hit stale dones" true (stats.Ring.double_done > 0)

let suite =
  [
    Alcotest.test_case "slot reuse through in_packet_done" `Quick
      test_slot_reuse;
    Alcotest.test_case "double done is a counted no-op" `Quick
      test_double_done_is_noop;
    Alcotest.test_case "stale done after re-acquire stays inert" `Quick
      test_stale_done_after_reacquire;
    Alcotest.test_case "growth doubles, overflow floats" `Quick
      test_growth_and_overflow;
    Alcotest.test_case "detach frees the slot, keeps the frame" `Quick
      test_detach;
    Alcotest.test_case "alloc adopts and recycles the frame" `Quick
      test_alloc_adopts_frame;
    Alcotest.test_case "clone copies contents and metadata" `Quick
      test_clone_copies_everything;
    Alcotest.test_case "no aliasing under fuzz" `Quick test_no_aliasing_fuzz;
  ]
