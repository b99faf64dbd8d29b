(* Per-layer unit costs: timed loops over each layer's public functions,
   on inputs shaped like the workload (its message size, its engine
   pending depth, INT on or off).  Each loop is run [rounds] times after
   one warm-up round and the median round gives the cost per call.
   Where a call needs a fresh frame, the loop's frame preparation is
   timed on its own and taken off, so a unit cost is the layer's call
   alone. *)

open Mmt_util
module Engine = Mmt_sim.Engine
module Ring = Mmt_sim.Ring
module Address = Mmt_pilot.Address

type shape = {
  fragment_bytes : int;  (** DAQ message size the workload emits *)
  depth : int;  (** engine pending depth to hold during dispatch *)
  int_telemetry : bool;  (** DTN 1 inserts the INT stack *)
  pilot_mode : bool;
      (** rewrite into the pilot's WAN mode (age, IPv4 re-encapsulation);
          otherwise the facility edge's (reliability and deadline only) *)
  scale : float;  (** loop-length multiplier *)
}

let rounds = 5

(* Per-call nanoseconds (median round) and major-heap words per call
   (over every timed round) of [body i], for [n] calls per round. *)
let timed ~n body =
  for i = 0 to n - 1 do
    body i
  done;
  let major_before = (Gc.quick_stat ()).Gc.major_words in
  let per_round =
    List.init rounds (fun r ->
        let start = Timing.now_ns () in
        for i = 0 to n - 1 do
          body (((r + 1) * n) + i)
        done;
        float_of_int (Timing.now_ns () - start) /. float_of_int n)
  in
  let major_words = (Gc.quick_stat ()).Gc.major_words -. major_before in
  (Timing.median per_round, major_words /. float_of_int (rounds * n))

let experiment = Mmt.Experiment_id.make ~experiment:2 ~slice:1

let fragment shape =
  {
    Mmt_daq.Fragment.run = 1;
    trigger = 42;
    timestamp = Units.Time.us 17.;
    experiment;
    detector =
      Mmt_daq.Fragment.Wib_ethernet
        { crate = 1; slot = 2; fiber = 3; first_channel = 0; channel_count = 64 };
    payload =
      Bytes.make
        (Stdlib.max 0
           (shape.fragment_bytes - Mmt_daq.Fragment.header_size
          - Mmt_daq.Fragment.subheader_size))
        'x';
  }

(* The DTN 1 (pilot) or site-edge (facility) rewriter. *)
let rewriter shape ~int_telemetry ring =
  let mode, re_encap =
    if shape.pilot_mode then
      ( Mmt.Mode.make ~name:"bench/wan" ~reliable:Address.dtn1_ip
          ~deadline_budget:(Units.Time.ms 20., Address.sensor_ip)
          ~age_budget_us:20_000 ~int_telemetry (),
        Some
          (Mmt.Encap.Over_ipv4
             { src = Address.dtn1_ip; dst = Address.dtn2_ip; dscp = 0; ttl = 64 }) )
    else
      ( Mmt.Mode.make ~name:"bench/facility-wan" ~reliable:Address.dtn1_ip
          ~deadline_budget:(Units.Time.ms 40., Mmt_frame.Addr.Ip.any)
          ~int_telemetry (),
        None )
  in
  Mmt_innet.Mode_rewriter.element
    (Mmt_innet.Mode_rewriter.create ~mode ?re_encap ~pool:(Ring.pool ring)
       ~on_rewrite:(fun ~seq:_ ~born:_ _ -> ())
       ())

(* A mode-0 frame as the sensor sends it: Ethernet, then the header. *)
let mode0_frame shape =
  Mmt.Encap.wrap
    (Mmt.Encap.Over_ethernet { src = Address.sensor_mac; dst = Address.dtn1_mac })
    (Bytes.cat
       (Mmt.Header.encode (Mmt.Header.mode0 ~experiment))
       (Mmt_daq.Fragment.encode (fragment shape)))

let process element packet =
  match element.Mmt_innet.Element.process ~now:Units.Time.zero packet with
  | Mmt_innet.Element.Forward p -> p
  | Mmt_innet.Element.Replicate _ | Mmt_innet.Element.Discard _ ->
      failwith "unit costs: element did not forward"

(* [template] rewritten once: what the next hop receives. *)
let rewritten shape ~int_telemetry template =
  let ring = Ring.create () in
  let packet = Ring.alloc ring ~id:0 ~born:Units.Time.zero (Bytes.copy template) in
  Bytes.copy (Mmt_sim.Packet.frame (process (rewriter shape ~int_telemetry ring) packet))

let mmt_offset frame =
  match Mmt.Encap.locate frame with
  | Ok (_, off) -> off
  | Error reason -> failwith ("unit costs: " ^ reason)

let measure shape =
  let n base = Stdlib.max 200 (int_of_float (float_of_int base *. shape.scale)) in
  let template = mode0_frame shape in
  let frame_len = Bytes.length template in
  let ring = Ring.create () in
  (* Frame preparation shared by the loops that consume their input. *)
  let fresh frame i =
    let p = Ring.in_packet ring ~id:i ~born:Units.Time.zero (Bytes.length frame) in
    Bytes.blit frame 0 (Mmt_sim.Packet.frame p) 0 (Bytes.length frame);
    p
  in

  (* Schedule and dispatch one event while [depth] others wait behind it. *)
  let engine_unit, _ =
    let engine = Engine.create () in
    let far = Units.Time.seconds 1e6 in
    for k = 0 to shape.depth - 1 do
      ignore (Engine.schedule engine ~at:(Units.Time.add far (Units.Time.ns k)) ignore)
    done;
    timed ~n:(n 100_000) (fun i ->
        ignore (Engine.schedule engine ~at:(Units.Time.ns (i + 1)) ignore);
        ignore (Engine.step engine))
  in

  let ring_unit, _ =
    timed ~n:(n 100_000) (fun i ->
        Ring.in_packet_done ring
          (Ring.in_packet ring ~id:i ~born:Units.Time.zero frame_len))
  in

  (* One hop over a default [Topology.connect] link: send -> serialize
     and propagate events -> deliver -> retire. *)
  let link_unit, events_per_hop =
    let engine = Engine.create () in
    let topo = Mmt_sim.Topology.create ~engine () in
    let src = Mmt_sim.Topology.add_node topo ~name:"a" in
    let dst = Mmt_sim.Topology.add_node topo ~name:"b" in
    let hop_ring = Option.get (Mmt_sim.Topology.ring topo) in
    Mmt_sim.Node.set_handler dst (Ring.in_packet_done hop_ring);
    let link =
      Mmt_sim.Topology.connect topo ~src ~dst ~rate:(Units.Rate.gbps 100.)
        ~propagation:(Units.Time.us 1.) ()
    in
    let hops = n 100_000 in
    let before = Engine.processed engine in
    let ns, _ =
      timed ~n:hops (fun i ->
          Mmt_sim.Link.send link
            (Ring.in_packet hop_ring ~id:i ~born:(Engine.now engine) frame_len);
          Engine.run engine)
    in
    ( ns,
      float_of_int (Engine.processed engine - before)
      /. float_of_int ((rounds + 1) * hops) )
  in

  let rewrite_ns, rewrite_words =
    let element = rewriter shape ~int_telemetry:shape.int_telemetry ring in
    let prep, _ =
      timed ~n:(n 20_000) (fun i -> Ring.in_packet_done ring (fresh template i))
    in
    let ns, words =
      timed ~n:(n 20_000) (fun i ->
          Ring.in_packet_done ring (process element (fresh template i)))
    in
    (ns -. prep, words)
  in

  let stamp_ns =
    let frame = rewritten shape ~int_telemetry:true template in
    let off = mmt_offset frame in
    let header =
      match Mmt.Header.decode_bytes ~off frame with
      | Ok h -> h
      | Error reason -> failwith ("unit costs: " ^ reason)
    in
    let count_byte = off + Option.get (Mmt.Header.offset_of_int header) in
    let packet = Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero frame in
    let stamper = Mmt_int.Stamper.create ~node_id:2 ~mode_id:1 () in
    let element = Mmt_int.Stamper.element stamper in
    fst
      (timed ~n:(n 100_000) (fun _ ->
           (* an empty stack each time, so every call appends *)
           Bytes.set frame count_byte '\000';
           ignore (process element packet)))
  in

  let receive_ns, receive_words =
    let frame = rewritten shape ~int_telemetry:false template in
    let off = mmt_offset frame in
    let engine = Engine.create () in
    let env, _ = Mmt_runtime.Env.loopback ~ring engine in
    let receiver =
      Mmt.Receiver.create ~env
        {
          Mmt.Receiver.experiment;
          nak_delay = Units.Time.ms 1.;
          nak_retry_timeout = Units.Time.ms 20.;
          max_nak_retries = 8;
          expected_total = None;
        }
        ~deliver:(fun _ _ -> ())
    in
    let sequenced i =
      let p = fresh frame i in
      (match Mmt.Header.View.of_frame ~off (Mmt_sim.Packet.frame p) with
      | Ok view -> Mmt.Header.View.set_sequence view i
      | Error reason -> failwith ("unit costs: " ^ reason));
      p
    in
    let prep, _ = timed ~n:(n 20_000) (fun i -> Ring.in_packet_done ring (sequenced i)) in
    (* [timed] numbers calls 0, 1, 2, ...: an in-order stream, so every
       call delivers *)
    let ns, words =
      timed ~n:(n 20_000) (fun i -> Mmt.Receiver.on_packet receiver (sequenced i))
    in
    (ns -. prep, words)
  in

  let retx_store_ns, retx_store_words =
    let engine = Engine.create () in
    let env, _ = Mmt_runtime.Env.loopback ~ring engine in
    let buffer = Mmt.Buffer_host.create ~env ~capacity:(Units.Size.mib 256) () in
    let frame = rewritten shape ~int_telemetry:false template in
    timed ~n:(n 50_000) (fun i ->
        Mmt.Buffer_host.store buffer ~seq:i ~born:Units.Time.zero frame)
  in

  let encode_ns, encode_words =
    let fragment = fragment shape in
    timed ~n:(n 20_000) (fun _ -> ignore (Mmt_daq.Fragment.encode fragment))
  in

  let trial_base_ms =
    let params =
      Mmt_pilot.Chaos_run.campaign_trial
        ~fragment_count:(Stdlib.max 20 (int_of_float (1500. *. shape.scale)))
        ()
    in
    Timing.median
      (List.init 3 (fun _ ->
           let start = Timing.now_ns () in
           ignore (Mmt_pilot.Chaos_run.run params);
           float_of_int (Timing.now_ns () - start) /. 1e6))
  in
  [
    ("engine.unit_ns", engine_unit);
    ("link.unit_ns", link_unit);
    ("link.events_per_hop", events_per_hop);
    ("ring.unit_ns", ring_unit);
    ("innet.unit_ns_rewrite", rewrite_ns);
    ("innet.major_words_rewrite", rewrite_words);
    ("innet.unit_ns_stamp", stamp_ns);
    ("transport.unit_ns_receive", receive_ns);
    ("transport.major_words_receive", receive_words);
    ("transport.unit_ns_retx_store", retx_store_ns);
    ("transport.major_words_retx_store", retx_store_words);
    ("daq.unit_ns_encode", encode_ns);
    ("daq.major_words_encode", encode_words);
    ("fault.trial_base_ms", trial_base_ms);
  ]
