(* The preallocated packet ring: slot recycling, the in_packet /
   in_packet_done ownership protocol, growth and overflow fallback, an
   aliasing fuzz, and the retirement points that hand packets back to a
   topology's ring. *)
open Mmt_util
module Ring = Mmt_sim.Ring
module Pool = Mmt_sim.Pool
module Packet = Mmt_sim.Packet
module Engine = Mmt_sim.Engine
module Topology = Mmt_sim.Topology

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
     again after its storage was re-acquired must NOT free the new
     incarnation out from under its owner.  A slot record's stale done
     is indistinguishable from a legitimate one (the record is reused),
     so the protocol point is that a *floating* record — an acquire
     past [max_slots] — stays inert once retired. *)
  let ring = Ring.create ~slots:1 ~max_slots:1 () in
  let p = Ring.in_packet ring ~id:1 ~born:Units.Time.zero 64 in
  let f = Ring.in_packet ring ~id:2 ~born:Units.Time.zero 64 in
  Alcotest.(check int) "overflow floats" (-1) f.Packet.slot;
  Ring.in_packet_done ring f;
  Alcotest.(check bool) "floating record disarmed (retired sentinel)" true
    (Packet.frame f == Pool.retired);
  Ring.in_packet_done ring p;
  let q = Ring.in_packet ring ~id:3 ~born:Units.Time.zero 64 in
  Alcotest.(check bool) "slot reused" true (q == p);
  Ring.in_packet_done ring f;
  Alcotest.(check int) "live slot untouched by a stale floating done" 1
    (Ring.stats ring).Ring.in_use;
  Alcotest.(check int) "stale done not counted as a retirement" 2
    (Ring.stats ring).Ring.retired

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

(* A floating packet over a caller's buffer is disarmed at retirement,
   but its frame stays the caller's: the next acquire of that size must
   neither hand the buffer out nor write into it. *)
let test_floating_done_keeps_caller_frame () =
  let ring = Ring.create ~slots:4 () in
  let buffer = Bytes.make 64 'k' in
  let p = Packet.create ~id:1 ~born:Units.Time.zero buffer in
  Ring.in_packet_done ring p;
  Alcotest.(check bool) "disarmed" true (Packet.frame p == Pool.retired);
  Alcotest.(check int) "counted once" 1 (Ring.stats ring).Ring.retired;
  let q = Ring.in_packet ring ~id:2 ~born:Units.Time.zero 64 in
  Bytes.fill (Packet.frame q) 0 64 'n';
  Alcotest.(check bool) "buffer not handed out" true (Packet.frame q != buffer);
  Alcotest.(check string) "buffer unchanged" (String.make 64 'k')
    (Bytes.to_string buffer)

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
  (* Random interleaving of acquires (slot-backed, and floating once
     the live set passes [max_slots]), retirements, stale double-dones
     and clones.  Invariants: no live packet ever shares a record or a
     frame with another live packet, and the ring's live-slot count is
     exactly the number of slot-backed live packets — a floating done
     never frees a slot. *)
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
  let retire victim =
    let p = List.nth !live victim in
    live := List.filteri (fun j _ -> j <> victim) !live;
    Ring.in_packet_done ring p;
    (* a stale retirement through the dead handle must stay inert for
       whatever acquires happened since *)
    if Rng.int rng ~bound:4 = 0 then Ring.in_packet_done ring p
  in
  for i = 1 to 10_000 do
    (match Rng.int rng ~bound:6 with
    | 0 | 1 ->
        let len = 32 + (32 * Rng.int rng ~bound:4) in
        check_fresh i (Ring.in_packet ring ~id:i ~born:Units.Time.zero len)
    | 2 when !live <> [] -> retire (Rng.int rng ~bound:(List.length !live))
    | 3 -> (
        (* retire a floating (overflow) record when one is live *)
        let rec first_floating j = function
          | [] -> None
          | (p : Packet.t) :: rest ->
              if p.Packet.slot < 0 then Some j else first_floating (j + 1) rest
        in
        match first_floating 0 !live with Some j -> retire j | None -> ())
    | 4 when !live <> [] ->
        let src = List.nth !live (Rng.int rng ~bound:(List.length !live)) in
        check_fresh i (Ring.clone ring src ~id:(100_000 + i))
    | _ -> ());
    let slotted =
      List.length (List.filter (fun (p : Packet.t) -> p.Packet.slot >= 0) !live)
    in
    if (Ring.stats ring).Ring.in_use <> slotted then
      Alcotest.failf "op %d: %d live slots for %d slot-backed packets" i
        (Ring.stats ring).Ring.in_use slotted
  done;
  List.iter (Ring.in_packet_done ring) !live;
  let stats = Ring.stats ring in
  Alcotest.(check int) "everything retired" 0 stats.Ring.in_use;
  Alcotest.(check bool) "fuzz exercised slot recycling" true
    (stats.Ring.retired > 1_000);
  Alcotest.(check bool) "fuzz exercised overflow" true (stats.Ring.overflow > 0);
  Alcotest.(check bool) "fuzz hit stale dones" true (stats.Ring.double_done > 0)

(* --- retirement points --------------------------------------------------- *)

let check_quiescent ring =
  let stats = Ring.stats ring in
  Alcotest.(check int) "no live slots" 0 stats.Ring.in_use;
  Alcotest.(check int) "no stale or double done" 0 stats.Ring.double_done

let test_expired_drops_retire_into_topology_ring () =
  (* The link that polls a drop-expired EDF queue retires every expired
     packet into its topology's ring. *)
  let engine = Engine.create () in
  let topo = Topology.create ~engine () in
  let ring = Option.get (Topology.ring topo) in
  let src = Topology.add_node topo ~name:"a" in
  let dst = Topology.add_node topo ~name:"b" in
  Mmt_sim.Node.set_handler dst (Ring.in_packet_done ring);
  let queue =
    Mmt_sim.Queue_model.deadline_aware ~capacity:(Units.Size.kib 64)
      ~drop_expired:true
      ~deadline_of:(fun _ -> Some Units.Time.zero)
      ()
  in
  let link =
    Topology.connect topo ~src ~dst ~rate:(Units.Rate.mbps 1.)
      ~propagation:(Units.Time.us 1.) ~queue ()
  in
  ignore
    (Engine.schedule engine ~at:(Units.Time.us 1.) (fun () ->
         for i = 0 to 9 do
           Mmt_sim.Link.send link
             (Ring.in_packet ring ~id:i ~born:(Engine.now engine) 100)
         done));
  Engine.run engine;
  Alcotest.(check int) "every packet expired" 10
    (Mmt_sim.Queue_model.expired_drops queue);
  check_quiescent ring;
  let stats = Ring.stats ring in
  Alcotest.(check int) "retired = acquired" stats.Ring.acquired
    stats.Ring.retired

let test_unroutable_router_retires () =
  let ring = Ring.create () in
  let router = Mmt_innet.Router.create ~ring 0 in
  Mmt_innet.Router.send router
    (Mmt_frame.Addr.Ip.of_octets 10 9 9 9)
    (Ring.in_packet ring ~id:0 ~born:Units.Time.zero 64);
  Alcotest.(check int) "unrouted counted" 1 (Mmt_innet.Router.unrouted router);
  check_quiescent ring

let switch_drop ~elements ~default =
  let engine = Engine.create () in
  let topo = Topology.create ~engine () in
  let ring = Option.get (Topology.ring topo) in
  let node = Topology.add_node topo ~name:"sw" in
  let switch =
    Mmt_innet.Switch.attach ~engine ~node ~profile:Mmt_innet.Switch.tofino2
      ~router:(Mmt_innet.Router.create ?default ~ring 0)
      ~elements ()
  in
  Mmt_sim.Node.handle node (Ring.in_packet ring ~id:0 ~born:Units.Time.zero 64);
  Engine.run engine;
  check_quiescent ring;
  Mmt_innet.Switch.stats switch

let test_unrouted_switch_retires () =
  let stats = switch_drop ~elements:[] ~default:None in
  Alcotest.(check int) "unrouted counted" 1 stats.Mmt_innet.Switch.unrouted

let test_discarding_switch_retires () =
  let discard =
    {
      Mmt_innet.Element.name = "discard";
      program = { Mmt_innet.Op.name = "discard"; ops = [] };
      process = (fun ~now:_ _ -> Mmt_innet.Element.Discard "test");
    }
  in
  let stats =
    switch_drop ~elements:[ discard ] ~default:(Some ignore)
  in
  Alcotest.(check int) "discard counted" 1 stats.Mmt_innet.Switch.discarded

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
    Alcotest.test_case "alloc adopts and recycles the frame" `Quick
      test_alloc_adopts_frame;
    Alcotest.test_case "floating done keeps the caller's frame" `Quick
      test_floating_done_keeps_caller_frame;
    Alcotest.test_case "clone copies contents and metadata" `Quick
      test_clone_copies_everything;
    Alcotest.test_case "no aliasing under fuzz" `Quick test_no_aliasing_fuzz;
    Alcotest.test_case "expired drops retire into the topology ring" `Quick
      test_expired_drops_retire_into_topology_ring;
    Alcotest.test_case "unroutable router retires" `Quick
      test_unroutable_router_retires;
    Alcotest.test_case "unrouted switch retires" `Quick
      test_unrouted_switch_retires;
    Alcotest.test_case "discarding switch retires" `Quick
      test_discarding_switch_retires;
  ]
