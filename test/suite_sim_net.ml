(* Queue disciplines, loss models, links and topology. *)
open Mmt_util
module Sim = Mmt_sim

let mk_packet ?(padding = 0) ?(id = 0) size =
  Sim.Packet.create ~padding ~id ~born:Units.Time.zero (Bytes.create size)

(* The link's view of a queue: poll, retiring expired drops into [ring]. *)
let dequeue ?(ring = Sim.Ring.create ()) q ~now =
  let p = Sim.Queue_model.poll q ~ring ~now in
  if p == Sim.Packet.none then None else Some p

(* Queue models ---------------------------------------------------------- *)

let test_droptail_fifo_order () =
  let q = Sim.Queue_model.droptail ~capacity:(Units.Size.kib 64) () in
  let now = Units.Time.zero in
  for i = 0 to 9 do
    Alcotest.(check bool) "accepted" true
      (Sim.Queue_model.enqueue q ~now (mk_packet ~id:i 100) = `Accepted)
  done;
  let order = List.init 10 (fun _ ->
      match dequeue q ~now with
      | Some p -> p.Sim.Packet.id
      | None -> -1)
  in
  Alcotest.(check (list int)) "fifo" (List.init 10 Fun.id) order

let test_droptail_overflow () =
  let q = Sim.Queue_model.droptail ~capacity:(Units.Size.bytes 250) () in
  let now = Units.Time.zero in
  Alcotest.(check bool) "fits" true (Sim.Queue_model.enqueue q ~now (mk_packet 100) = `Accepted);
  Alcotest.(check bool) "fits" true (Sim.Queue_model.enqueue q ~now (mk_packet 100) = `Accepted);
  Alcotest.(check bool) "overflow" true (Sim.Queue_model.enqueue q ~now (mk_packet 100) = `Dropped);
  Alcotest.(check int) "drop counted" 1 (Sim.Queue_model.overflow_drops q);
  Alcotest.(check int) "bytes" 200 (Units.Size.to_bytes (Sim.Queue_model.queued_bytes q))

let test_droptail_padding_counts () =
  let q = Sim.Queue_model.droptail ~capacity:(Units.Size.bytes 150) () in
  let now = Units.Time.zero in
  Alcotest.(check bool) "padding included in occupancy" true
    (Sim.Queue_model.enqueue q ~now (mk_packet ~padding:100 10) = `Accepted);
  Alcotest.(check bool) "overflow from padding" true
    (Sim.Queue_model.enqueue q ~now (mk_packet ~padding:100 10) = `Dropped)

(* EDF queue: deadlines via a side table keyed by packet id. *)
let edf_queue deadlines =
  Sim.Queue_model.deadline_aware ~capacity:(Units.Size.kib 64) ~drop_expired:false
    ~deadline_of:(fun p -> List.assoc_opt p.Sim.Packet.id deadlines)
    ()

let test_edf_orders_by_deadline () =
  let deadlines = [ (0, Units.Time.ms 3.); (1, Units.Time.ms 1.); (2, Units.Time.ms 2.) ] in
  let q = edf_queue deadlines in
  let now = Units.Time.zero in
  List.iter (fun i -> ignore (Sim.Queue_model.enqueue q ~now (mk_packet ~id:i 10))) [ 0; 1; 2 ];
  let order = List.init 3 (fun _ ->
      match dequeue q ~now with Some p -> p.Sim.Packet.id | None -> -1)
  in
  Alcotest.(check (list int)) "earliest deadline first" [ 1; 2; 0 ] order

let test_edf_deadline_free_after_deadlines () =
  let deadlines = [ (1, Units.Time.ms 9.) ] in
  let q = edf_queue deadlines in
  let now = Units.Time.zero in
  List.iter (fun i -> ignore (Sim.Queue_model.enqueue q ~now (mk_packet ~id:i 10))) [ 0; 1; 2 ];
  let order = List.init 3 (fun _ ->
      match dequeue q ~now with Some p -> p.Sim.Packet.id | None -> -1)
  in
  Alcotest.(check (list int)) "deadline-bearing first, then fifo" [ 1; 0; 2 ] order

let test_edf_drop_expired () =
  let deadlines = [ (0, Units.Time.ms 1.); (1, Units.Time.ms 10.) ] in
  let q =
    Sim.Queue_model.deadline_aware ~capacity:(Units.Size.kib 64) ~drop_expired:true
      ~deadline_of:(fun p -> List.assoc_opt p.Sim.Packet.id deadlines)
      ()
  in
  List.iter
    (fun i -> ignore (Sim.Queue_model.enqueue q ~now:Units.Time.zero (mk_packet ~id:i 10)))
    [ 0; 1 ];
  (match dequeue q ~now:(Units.Time.ms 5.) with
  | Some p -> Alcotest.(check int) "expired dropped, live served" 1 p.Sim.Packet.id
  | None -> Alcotest.fail "expected a packet");
  Alcotest.(check int) "expired counted" 1 (Sim.Queue_model.expired_drops q)

let test_edf_heap_stress () =
  let rng = Rng.create ~seed:123L in
  let deadline_of (p : Sim.Packet.t) =
    Some (Units.Time.of_int_ns ((p.Sim.Packet.id * 7919) mod 104729))
  in
  let q =
    Sim.Queue_model.deadline_aware ~capacity:(Units.Size.mib 16) ~drop_expired:false
      ~deadline_of ()
  in
  for i = 0 to 999 do
    ignore (Sim.Queue_model.enqueue q ~now:Units.Time.zero (mk_packet ~id:i 10));
    if Rng.bool rng then ignore (dequeue q ~now:Units.Time.zero)
  done;
  let rec drain last =
    match dequeue q ~now:Units.Time.zero with
    | None -> ()
    | Some p ->
        let d = (p.Sim.Packet.id * 7919) mod 104729 in
        Alcotest.(check bool) "non-decreasing deadlines" true (d >= last);
        drain d
  in
  drain (-1)

(* An expired-drop cascade — several expired packets discarded inside a
   single dequeue — must debit every dropped packet's bytes, so the
   freed capacity is immediately reusable. *)
let test_edf_expired_cascade_byte_accounting () =
  let deadlines =
    [
      (0, Units.Time.ms 1.);
      (1, Units.Time.ms 2.);
      (2, Units.Time.ms 3.);
      (3, Units.Time.ms 4.);
      (4, Units.Time.ms 50.);
    ]
  in
  let q =
    Sim.Queue_model.deadline_aware ~capacity:(Units.Size.bytes 1_000)
      ~drop_expired:true
      ~deadline_of:(fun p -> List.assoc_opt p.Sim.Packet.id deadlines)
      ()
  in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        "accepted" true
        (Sim.Queue_model.enqueue q ~now:Units.Time.zero (mk_packet ~id:i 200)
        = `Accepted))
    [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "full" 1_000
    (Units.Size.to_bytes (Sim.Queue_model.queued_bytes q));
  (* At t=10ms packets 0-3 are expired: one dequeue call cascades over
     all four and serves the live one. *)
  (match dequeue q ~now:(Units.Time.ms 10.) with
  | Some p -> Alcotest.(check int) "live packet served" 4 p.Sim.Packet.id
  | None -> Alcotest.fail "expected the unexpired packet");
  Alcotest.(check int) "cascade counted" 4 (Sim.Queue_model.expired_drops q);
  Alcotest.(check int) "every dropped byte debited" 0
    (Units.Size.to_bytes (Sim.Queue_model.queued_bytes q));
  (* The freed capacity must be reusable at once. *)
  Alcotest.(check bool)
    "capacity reusable after cascade" true
    (Sim.Queue_model.enqueue q ~now:(Units.Time.ms 10.) (mk_packet ~id:9 1_000)
    = `Accepted)

let test_edf_expired_cascade_recycles_into_pool () =
  let ring = Sim.Ring.create () in
  let q =
    Sim.Queue_model.deadline_aware ~capacity:(Units.Size.kib 64)
      ~drop_expired:true
      ~deadline_of:(fun _ -> Some (Units.Time.us 1.))
      ()
  in
  for i = 0 to 9 do
    let p = Sim.Ring.in_packet ring ~id:i ~born:Units.Time.zero 128 in
    ignore (Sim.Queue_model.enqueue q ~now:Units.Time.zero p)
  done;
  Alcotest.(check bool)
    "all expired: nothing to serve" true
    (dequeue ~ring q ~now:(Units.Time.ms 1.) = None);
  let stats = Sim.Ring.stats ring in
  Alcotest.(check int) "all ten slots retired" 10 stats.Sim.Ring.retired;
  Alcotest.(check int) "no live slots" 0 stats.Sim.Ring.in_use;
  Alcotest.(check int) "all ten frames recycled" 10
    (Sim.Pool.stats (Sim.Ring.pool ring)).Sim.Pool.released

let test_queue_capacity_reusable_after_overflow () =
  let q = Sim.Queue_model.droptail ~capacity:(Units.Size.bytes 300) () in
  let now = Units.Time.zero in
  Alcotest.(check bool) "fits" true
    (Sim.Queue_model.enqueue q ~now (mk_packet ~id:0 200) = `Accepted);
  Alcotest.(check bool) "overflows" true
    (Sim.Queue_model.enqueue q ~now (mk_packet ~id:1 200) = `Dropped);
  Alcotest.(check int) "overflow counted" 1 (Sim.Queue_model.overflow_drops q);
  (* The overflow drop must not corrupt the byte count ... *)
  Alcotest.(check int) "bytes unchanged by overflow" 200
    (Units.Size.to_bytes (Sim.Queue_model.queued_bytes q));
  ignore (dequeue q ~now);
  (* ... and after draining, the full capacity is available again. *)
  Alcotest.(check int) "empty" 0
    (Units.Size.to_bytes (Sim.Queue_model.queued_bytes q));
  Alcotest.(check bool) "full capacity back" true
    (Sim.Queue_model.enqueue q ~now (mk_packet ~id:2 300) = `Accepted)

(* Loss models ------------------------------------------------------------ *)

let test_loss_perfect () =
  for _ = 1 to 100 do
    Alcotest.(check bool) "always delivers" true
      (Sim.Loss.decide Sim.Loss.perfect = Sim.Loss.Deliver)
  done

let test_loss_bernoulli_rates () =
  let rng = Rng.create ~seed:42L in
  let model = Sim.Loss.bernoulli ~drop:0.1 ~corrupt:0.05 ~rng in
  let drops = ref 0 and corrupts = ref 0 and n = 100_000 in
  for _ = 1 to n do
    match Sim.Loss.decide model with
    | Sim.Loss.Drop -> incr drops
    | Sim.Loss.Corrupt -> incr corrupts
    | Sim.Loss.Deliver -> ()
  done;
  Alcotest.(check bool) "drop rate ~10%" true (abs (!drops - 10_000) < 500);
  Alcotest.(check bool) "corrupt rate ~5%" true (abs (!corrupts - 5_000) < 400)

let test_loss_bernoulli_validation () =
  let rng = Rng.create ~seed:1L in
  Alcotest.(check bool) "sum > 1 rejected" true
    (match Sim.Loss.bernoulli ~drop:0.7 ~corrupt:0.7 ~rng with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_loss_gilbert_burstiness () =
  let rng = Rng.create ~seed:9L in
  let model =
    Sim.Loss.gilbert_elliott ~p_good_to_bad:0.01 ~p_bad_to_good:0.2 ~drop_in_bad:0.8 ~rng ()
  in
  (* Count runs of consecutive drops: burst loss should produce longer
     runs than independent loss at the same average rate. *)
  let drops = ref 0 and runs = ref 0 and in_run = ref false and n = 200_000 in
  for _ = 1 to n do
    match Sim.Loss.decide model with
    | Sim.Loss.Drop ->
        incr drops;
        if not !in_run then begin incr runs; in_run := true end
    | _ -> in_run := false
  done;
  Alcotest.(check bool) "some loss" true (!drops > 0);
  let mean_run = float_of_int !drops /. float_of_int (max 1 !runs) in
  Alcotest.(check bool) "bursty (mean run > 1.5)" true (mean_run > 1.5)

let test_loss_gilbert_corrupt_in_bad () =
  let rng = Rng.create ~seed:11L in
  let model =
    Sim.Loss.gilbert_elliott ~corrupt_in_bad:0.5 ~p_good_to_bad:0.05
      ~p_bad_to_good:0.1 ~drop_in_bad:0.3 ~rng ()
  in
  let drops = ref 0 and corrupts = ref 0 in
  for _ = 1 to 100_000 do
    match Sim.Loss.decide model with
    | Sim.Loss.Drop -> incr drops
    | Sim.Loss.Corrupt -> incr corrupts
    | Sim.Loss.Deliver -> ()
  done;
  Alcotest.(check bool) "drops in bad state" true (!drops > 0);
  Alcotest.(check bool) "corruptions in bad state" true (!corrupts > 0);
  (* corrupt_in_bad (0.5) > drop_in_bad (0.3): corruption dominates. *)
  Alcotest.(check bool) "corrupts outnumber drops" true (!corrupts > !drops)

let test_loss_gilbert_corrupt_validation () =
  let rng = Rng.create ~seed:1L in
  Alcotest.(check bool) "drop + corrupt > 1 rejected" true
    (match
       Sim.Loss.gilbert_elliott ~corrupt_in_bad:0.5 ~p_good_to_bad:0.01
         ~p_bad_to_good:0.2 ~drop_in_bad:0.6 ~rng ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "corrupt_in_bad > 1 rejected" true
    (match
       Sim.Loss.gilbert_elliott ~corrupt_in_bad:1.5 ~p_good_to_bad:0.01
         ~p_bad_to_good:0.2 ~drop_in_bad:0. ~rng ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Links ------------------------------------------------------------------ *)

let test_link_delivers_with_latency () =
  let engine = Sim.Engine.create () in
  let arrivals = ref [] in
  let link =
    Sim.Link.create ~engine ~name:"l" ~rate:(Units.Rate.gbps 1.)
      ~ring:(Sim.Ring.create ())
      ~propagation:(Units.Time.us 100.)
      ~deliver:(fun p -> arrivals := (Sim.Engine.now engine, p) :: !arrivals)
      ()
  in
  (* 1250 bytes at 1 Gbps = 10 us serialization + 100 us propagation. *)
  Sim.Link.send link (mk_packet 1250);
  Sim.Engine.run engine;
  match !arrivals with
  | [ (at, p) ] ->
      Alcotest.(check bool) "arrival time" true
        (Units.Time.equal at (Units.Time.us 110.));
      Alcotest.(check int) "hop counted" 1 p.Sim.Packet.hops
  | _ -> Alcotest.fail "expected one arrival"

(* Packets on the wire are a delay line: a packet's delivery is keyed
   when it finishes serializing, not when the packet ahead of it
   arrives.  A finishes at 10 us and arrives at 110 us; B finishes at
   20 us and arrives at 120 us.  E is scheduled at 50 us for 120 us, so
   B's key (drawn at 20 us) precedes E's, and B must arrive first. *)
let test_link_keys_delivery_at_serialization () =
  let engine = Sim.Engine.create () in
  let order = ref [] in
  let link =
    Sim.Link.create ~engine ~name:"l" ~rate:(Units.Rate.gbps 1.)
      ~ring:(Sim.Ring.create ())
      ~propagation:(Units.Time.us 100.)
      ~deliver:(fun p ->
        order := Printf.sprintf "%d@%d" p.Sim.Packet.id
          (Units.Time.to_ns (Sim.Engine.now engine)) :: !order)
      ()
  in
  Sim.Link.send link (mk_packet ~id:1 1250);
  Sim.Link.send link (mk_packet ~id:2 1250);
  ignore
    (Sim.Engine.schedule engine ~at:(Units.Time.us 50.) (fun () ->
         ignore
           (Sim.Engine.schedule engine ~at:(Units.Time.us 120.) (fun () ->
                order := "E@120000" :: !order))));
  Sim.Engine.run engine;
  Alcotest.(check (list string))
    "B before E" [ "1@110000"; "2@120000"; "E@120000" ] (List.rev !order)

(* However many packets are on the wire, the link holds one heap entry
   for them (plus its transmitter's). *)
let test_link_in_flight_one_heap_entry () =
  let engine = Sim.Engine.create () in
  let ring = Sim.Ring.create () in
  let delivered = ref 0 in
  let link =
    Sim.Link.create ~engine ~name:"l" ~rate:(Units.Rate.gbps 100.) ~ring
      ~propagation:(Units.Time.ms 1.)
      ~deliver:(fun p ->
        incr delivered;
        Sim.Ring.in_packet_done ring p)
      ()
  in
  let n = 10_000 in
  for i = 1 to n do
    Sim.Link.send link (Sim.Ring.in_packet ring ~id:i ~born:Units.Time.zero 100)
  done;
  let deepest = ref (Sim.Engine.pending engine) in
  let in_flight_peak = ref 0 in
  while Sim.Engine.step engine do
    deepest := max !deepest (Sim.Engine.pending engine);
    let s = Sim.Link.stats link in
    in_flight_peak :=
      max !in_flight_peak (s.Sim.Link.transmitted - s.Sim.Link.delivered)
  done;
  Alcotest.(check int) "all on the wire at once" n !in_flight_peak;
  Alcotest.(check int) "all delivered" n !delivered;
  Alcotest.(check bool)
    (Printf.sprintf "heap depth %d <= 2" !deepest)
    true (!deepest <= 2)

let test_link_serializes_back_to_back () =
  let engine = Sim.Engine.create () in
  let arrivals = ref [] in
  let link =
    Sim.Link.create ~engine ~name:"l" ~rate:(Units.Rate.gbps 1.)
      ~ring:(Sim.Ring.create ())
      ~propagation:Units.Time.zero
      ~deliver:(fun _ -> arrivals := Sim.Engine.now engine :: !arrivals)
      ()
  in
  Sim.Link.send link (mk_packet 1250);
  Sim.Link.send link (mk_packet 1250);
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "second waits for first"
    [ "10us"; "20us" ]
    (List.rev_map Units.Time.to_string !arrivals)

let test_link_zero_rate_is_ideal () =
  let engine = Sim.Engine.create () in
  let arrived = ref Units.Time.zero in
  let link =
    Sim.Link.create ~engine ~name:"ideal" ~rate:Units.Rate.zero
      ~ring:(Sim.Ring.create ())
      ~propagation:(Units.Time.ms 1.)
      ~deliver:(fun _ -> arrived := Sim.Engine.now engine)
      ()
  in
  Sim.Link.send link (mk_packet 1_000_000);
  Sim.Engine.run engine;
  Alcotest.(check string) "propagation only" "1ms" (Units.Time.to_string !arrived)

let test_link_loss_accounting () =
  let engine = Sim.Engine.create () in
  let delivered = ref 0 and corrupted_seen = ref 0 in
  let rng = Rng.create ~seed:5L in
  let link =
    Sim.Link.create ~engine ~name:"lossy" ~rate:(Units.Rate.gbps 10.)
      ~ring:(Sim.Ring.create ())
      ~propagation:Units.Time.zero
      ~loss:(Sim.Loss.bernoulli ~drop:0.2 ~corrupt:0.1 ~rng)
      ~deliver:(fun p ->
        incr delivered;
        if p.Sim.Packet.corrupted then incr corrupted_seen)
      ()
  in
  let n = 10_000 in
  for i = 0 to n - 1 do
    ignore
      (Sim.Engine.schedule engine ~at:(Units.Time.of_int_ns (i * 2_000)) (fun () ->
           Sim.Link.send link (mk_packet 100)))
  done;
  Sim.Engine.run engine;
  let stats = Sim.Link.stats link in
  Alcotest.(check int) "offered" n stats.Sim.Link.offered;
  Alcotest.(check int) "conservation: delivered + dropped = transmitted"
    stats.Sim.Link.transmitted
    (stats.Sim.Link.delivered + stats.Sim.Link.loss_drops);
  Alcotest.(check int) "delivered matches callback" !delivered stats.Sim.Link.delivered;
  Alcotest.(check int) "corrupted flagged" !corrupted_seen stats.Sim.Link.corrupted;
  Alcotest.(check bool) "roughly 20% dropped" true
    (abs (stats.Sim.Link.loss_drops - 2_000) < 300)

let test_link_queue_overflow_accounting () =
  let engine = Sim.Engine.create () in
  let link =
    Sim.Link.create ~engine ~name:"tiny" ~rate:(Units.Rate.mbps 1.)
      ~ring:(Sim.Ring.create ())
      ~propagation:Units.Time.zero
      ~queue:(Sim.Queue_model.droptail ~capacity:(Units.Size.bytes 500) ())
      ~deliver:ignore ()
  in
  for _ = 1 to 20 do
    Sim.Link.send link (mk_packet 100)
  done;
  Sim.Engine.run engine;
  let stats = Sim.Link.stats link in
  Alcotest.(check int) "offered" 20 stats.Sim.Link.offered;
  Alcotest.(check bool) "some queue drops" true (stats.Sim.Link.queue_drops > 0);
  Alcotest.(check int) "conservation" 20
    (stats.Sim.Link.transmitted + stats.Sim.Link.queue_drops)

let test_link_utilization () =
  let engine = Sim.Engine.create () in
  let link =
    Sim.Link.create ~engine ~name:"u" ~rate:(Units.Rate.gbps 1.)
      ~ring:(Sim.Ring.create ())
      ~propagation:Units.Time.zero ~deliver:ignore ()
  in
  (* 10 packets x 10 us = 100 us busy. *)
  for _ = 1 to 10 do
    Sim.Link.send link (mk_packet 1250)
  done;
  Sim.Engine.run engine;
  Alcotest.(check bool) "50% busy over 200us" true
    (Float.abs (Sim.Link.utilization link ~over:(Units.Time.us 200.) -. 0.5) < 1e-9)

(* Topology ---------------------------------------------------------------- *)

let test_topology_nodes_and_links () =
  let engine = Sim.Engine.create () in
  let topo = Sim.Topology.create ~engine () in
  let a = Sim.Topology.add_node topo ~name:"a" in
  let b = Sim.Topology.add_node topo ~name:"b" in
  let ab, ba =
    Sim.Topology.duplex topo ~a ~b ~rate:(Units.Rate.gbps 1.)
      ~propagation:(Units.Time.us 1.) ()
  in
  Alcotest.(check string) "link name" "a->b" (Sim.Link.name ab);
  Alcotest.(check string) "reverse name" "b->a" (Sim.Link.name ba);
  Alcotest.(check int) "two links" 2 (List.length (Sim.Topology.links topo));
  Alcotest.(check bool) "find node" true (Sim.Topology.find_node topo "a" == a);
  Alcotest.(check bool) "duplicate rejected" true
    (match Sim.Topology.add_node topo ~name:"a" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_topology_delivery_to_handler () =
  let engine = Sim.Engine.create () in
  let topo = Sim.Topology.create ~engine () in
  let a = Sim.Topology.add_node topo ~name:"a" in
  let b = Sim.Topology.add_node topo ~name:"b" in
  let link =
    Sim.Topology.connect topo ~src:a ~dst:b ~rate:(Units.Rate.gbps 1.)
      ~propagation:(Units.Time.us 1.) ()
  in
  let got = ref 0 in
  Sim.Node.set_handler b (fun _ -> incr got);
  Sim.Link.send link (mk_packet 100);
  Sim.Engine.run engine;
  Alcotest.(check int) "handler invoked" 1 !got;
  Alcotest.(check int) "received counted" 1 (Sim.Node.received b)

let test_topology_fresh_ids () =
  let engine = Sim.Engine.create () in
  let topo = Sim.Topology.create ~engine () in
  let ids = List.init 100 (fun _ -> Sim.Topology.fresh_packet_id topo) in
  Alcotest.(check int) "unique ids" 100 (List.length (List.sort_uniq compare ids))


(* Trace ----------------------------------------------------------------- *)

let test_trace_capacity_evicts_oldest () =
  let trace = Sim.Trace.create ~capacity:5 () in
  for i = 0 to 7 do
    Sim.Trace.record trace
      ~at:(Units.Time.us (float_of_int i))
      ~link:"a->b" Sim.Link.Sent (mk_packet ~id:i 100)
  done;
  let entries = Sim.Trace.entries trace in
  Alcotest.(check int) "bounded to capacity" 5 (List.length entries);
  Alcotest.(check int) "truncated counts the discarded" 3
    (Sim.Trace.truncated trace);
  Alcotest.(check (list int)) "oldest entries were evicted" [ 3; 4; 5; 6; 7 ]
    (List.map (fun (e : Sim.Trace.entry) -> e.Sim.Trace.packet_id) entries)

let test_trace_under_capacity_keeps_everything () =
  let trace = Sim.Trace.create ~capacity:10 () in
  for i = 0 to 3 do
    Sim.Trace.record trace
      ~at:(Units.Time.us (float_of_int i))
      ~link:"a->b" Sim.Link.Delivered (mk_packet ~id:i 100)
  done;
  Alcotest.(check int) "all kept" 4 (List.length (Sim.Trace.entries trace));
  Alcotest.(check int) "nothing truncated" 0 (Sim.Trace.truncated trace);
  Alcotest.(check int) "count sees them" 4 (Sim.Trace.count trace Sim.Link.Delivered)

let test_trace_truncation_keeps_counting () =
  (* Eviction must not corrupt per-event counts of surviving entries,
     and packet_history reflects only what is still retained. *)
  let trace = Sim.Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    let event = if i mod 2 = 0 then Sim.Link.Sent else Sim.Link.Delivered in
    Sim.Trace.record trace
      ~at:(Units.Time.us (float_of_int i))
      ~link:"a->b" event (mk_packet ~id:i 100)
  done;
  Alcotest.(check int) "six truncated" 6 (Sim.Trace.truncated trace);
  Alcotest.(check int) "surviving sent" 2 (Sim.Trace.count trace Sim.Link.Sent);
  Alcotest.(check int) "surviving delivered" 2
    (Sim.Trace.count trace Sim.Link.Delivered);
  Alcotest.(check int) "evicted packet has no history" 0
    (List.length (Sim.Trace.packet_history trace ~packet_id:0));
  Alcotest.(check int) "retained packet has history" 1
    (List.length (Sim.Trace.packet_history trace ~packet_id:9))

let suite =
  [
    Alcotest.test_case "droptail fifo" `Quick test_droptail_fifo_order;
    Alcotest.test_case "droptail overflow" `Quick test_droptail_overflow;
    Alcotest.test_case "droptail counts padding" `Quick test_droptail_padding_counts;
    Alcotest.test_case "edf deadline order" `Quick test_edf_orders_by_deadline;
    Alcotest.test_case "edf deadline-free last" `Quick test_edf_deadline_free_after_deadlines;
    Alcotest.test_case "edf drop expired" `Quick test_edf_drop_expired;
    Alcotest.test_case "edf heap stress" `Quick test_edf_heap_stress;
    Alcotest.test_case "edf expired cascade byte accounting" `Quick
      test_edf_expired_cascade_byte_accounting;
    Alcotest.test_case "edf expired cascade recycles into pool" `Quick
      test_edf_expired_cascade_recycles_into_pool;
    Alcotest.test_case "queue capacity reusable after overflow" `Quick
      test_queue_capacity_reusable_after_overflow;
    Alcotest.test_case "loss perfect" `Quick test_loss_perfect;
    Alcotest.test_case "loss bernoulli rates" `Quick test_loss_bernoulli_rates;
    Alcotest.test_case "loss validation" `Quick test_loss_bernoulli_validation;
    Alcotest.test_case "loss gilbert bursty" `Quick test_loss_gilbert_burstiness;
    Alcotest.test_case "loss gilbert corrupt_in_bad" `Quick
      test_loss_gilbert_corrupt_in_bad;
    Alcotest.test_case "loss gilbert corrupt validation" `Quick
      test_loss_gilbert_corrupt_validation;
    Alcotest.test_case "link latency" `Quick test_link_delivers_with_latency;
    Alcotest.test_case "link keys delivery at serialization" `Quick
      test_link_keys_delivery_at_serialization;
    Alcotest.test_case "link in flight one heap entry" `Quick
      test_link_in_flight_one_heap_entry;
    Alcotest.test_case "link serialization queueing" `Quick test_link_serializes_back_to_back;
    Alcotest.test_case "link ideal rate" `Quick test_link_zero_rate_is_ideal;
    Alcotest.test_case "link loss accounting" `Quick test_link_loss_accounting;
    Alcotest.test_case "link queue overflow" `Quick test_link_queue_overflow_accounting;
    Alcotest.test_case "link utilization" `Quick test_link_utilization;
    Alcotest.test_case "topology nodes/links" `Quick test_topology_nodes_and_links;
    Alcotest.test_case "topology delivery" `Quick test_topology_delivery_to_handler;
    Alcotest.test_case "topology fresh ids" `Quick test_topology_fresh_ids;
    Alcotest.test_case "trace capacity eviction" `Quick
      test_trace_capacity_evicts_oldest;
    Alcotest.test_case "trace under capacity" `Quick
      test_trace_under_capacity_keeps_everything;
    Alcotest.test_case "trace counts after truncation" `Quick
      test_trace_truncation_keeps_counting;
  ]
