(* Osmotic computing (§ 6, challenge 3): "a large number of distributed
   sensors, instead of a few large instruments.  Sensors lack a DAQ
   network — instead they rely on cell networks and backhaul.  We
   believe that TCP is adequate for these low-volume streams."

   Twelve dispersed sensors (a SAGA-style GPS scintillation array [20])
   push small readings over high-RTT, lossy cell links using the plain
   TCP baseline into an aggregation gateway; the gateway forwards the
   aggregate over the science WAN using the multi-modal transport.
   The integration point is the gateway: low-volume TCP edges, one
   recoverable high-volume MMT core.

   Run with: dune exec examples/osmotic_sensors.exe *)

open Mmt_util
open Mmt_frame

let sensor_count = 12
let readings_per_sensor = 200
let reading_size = 512

let () =
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let ring = Option.get (Mmt_sim.Topology.ring topo) in
  let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
  let rng = Rng.create ~seed:13L in
  let gateway = Mmt_sim.Topology.add_node topo ~name:"gateway" in
  let facility = Mmt_sim.Topology.add_node topo ~name:"facility" in
  let gateway_ip = Addr.Ip.of_octets 10 5 0 1 in
  let facility_ip = Addr.Ip.of_octets 10 5 0 2 in

  (* Cell edges: 20 Mbps, 60-140 ms RTT, 1% loss — TCP territory. *)
  let sensors =
    List.init sensor_count (fun i ->
        let node = Mmt_sim.Topology.add_node topo ~name:(Printf.sprintf "sensor%d" i) in
        let rtt = Units.Time.ms (60. +. float_of_int (i * 7)) in
        let half = Units.Time.scale rtt 0.5 in
        let cell_rng = Rng.split rng in
        let up =
          Mmt_sim.Topology.connect topo ~src:node ~dst:gateway
            ~rate:(Units.Rate.mbps 20.) ~propagation:half
            ~loss:(Mmt_sim.Loss.bernoulli ~drop:0.01 ~corrupt:0. ~rng:cell_rng)
            ()
        in
        let down =
          Mmt_sim.Topology.connect topo ~src:gateway ~dst:node
            ~rate:(Units.Rate.mbps 20.) ~propagation:half ()
        in
        (i, node, up, down))
  in

  (* The science-WAN core: gateway -> facility over the multi-modal
     transport, with the gateway itself hosting the retransmission
     buffer (it is the first line of storage, like DTN 1). *)
  let wan_rng = Rng.split rng in
  let wan =
    Mmt_sim.Topology.connect topo ~src:gateway ~dst:facility
      ~rate:(Units.Rate.gbps 10.) ~propagation:(Units.Time.ms 10.)
      ~loss:(Mmt_sim.Loss.bernoulli ~drop:0.003 ~corrupt:0. ~rng:wan_rng)
      ()
  in
  let wan_back =
    Mmt_sim.Topology.connect topo ~src:facility ~dst:gateway
      ~rate:(Units.Rate.gbps 10.) ~propagation:(Units.Time.ms 10.) ()
  in

  (* TCP endpoints per sensor; the gateway demuxes by port. *)
  let tcp_config = Mmt_tcp.Connection.default_config in
  let connections =
    List.map
      (fun (i, node, up, down) ->
        let port = i + 1 in
        let received = ref 0 in
        let receiver =
          Mmt_tcp.Connection.create ~engine ~ring ~fresh_id ~config:tcp_config
            ~port ~tx:(Mmt_sim.Link.send down)
            ~deliver:(fun n -> received := !received + n)
            ()
        in
        let sender =
          Mmt_tcp.Connection.create ~engine ~ring ~fresh_id ~config:tcp_config
            ~port ~tx:(Mmt_sim.Link.send up) ()
        in
        Mmt_sim.Node.set_handler node (Mmt_tcp.Connection.on_packet sender);
        (i, sender, receiver, received))
      sensors
  in

  (* Gateway: feed TCP receivers; aggregate completed readings into MMT
     fragments toward the facility. *)
  let router = Mmt_pilot.Router.create ~default:(Mmt_sim.Link.send wan) ~ring () in
  let env_gw = Mmt_pilot.Router.env router ~engine ~fresh_id ~local_ip:gateway_ip in
  let buffer = Mmt.Buffer_host.create ~env:env_gw ~capacity:(Units.Size.mib 64) () in
  let experiment = Mmt.Experiment_id.make ~experiment:20 ~slice:0 in
  let wan_mode =
    Mmt.Mode.make ~name:"osmotic/wan" ~reliable:gateway_ip ~age_budget_us:100_000 ()
  in
  let rewriter =
    Mmt_innet.Mode_rewriter.create ~mode:wan_mode ~pool:(Mmt_sim.Ring.pool ring)
      ~on_rewrite:(fun ~seq ~born frame ->
        match seq with
        | Some seq -> Mmt.Buffer_host.store buffer ~seq ~born frame
        | None -> ())
      ()
  in
  let rewrite_element = Mmt_innet.Mode_rewriter.element rewriter in
  let mmt_sender =
    Mmt.Sender.create ~env:env_gw
      {
        Mmt.Sender.experiment;
        destination = facility_ip;
        encap =
          Mmt.Encap.Over_ipv4 { src = gateway_ip; dst = facility_ip; dscp = 0; ttl = 64 };
        deadline_budget = None;
        backpressure_to = None;
        pace = None;
        padding = 0;
      }
  in
  (* Intercept the sender's frames through the rewriter before the WAN
     (the gateway is its own mode-changing element). *)
  let env_gw_send = env_gw.Mmt_runtime.Env.send in
  let send_via_rewriter dst packet =
    match rewrite_element.Mmt_innet.Element.process ~now:(Mmt_sim.Engine.now engine) packet with
    | Mmt_innet.Element.Forward p -> env_gw_send dst p
    | Mmt_innet.Element.Replicate ps -> List.iter (env_gw_send dst) ps
    | Mmt_innet.Element.Discard _ -> Mmt_sim.Ring.in_packet_done ring packet
  in
  let env_rewriting = { env_gw with Mmt_runtime.Env.send = send_via_rewriter } in
  let mmt_sender = Mmt.Sender.create ~env:env_rewriting (Mmt.Sender.config mmt_sender) in

  let aggregated = ref 0 in
  let to_receivers =
    Mmt_tcp.Connection.dispatch ~ring
      (List.map (fun (_, _, receiver, _) -> receiver) connections)
  in
  Mmt_sim.Node.set_handler gateway (fun packet ->
      (* NAKs from the facility terminate at the gateway's buffer. *)
      let is_nak =
        match Mmt.Encap.locate (Mmt_sim.Packet.frame packet) with
        | Ok (_encap, off) -> (
            match Mmt.Header.decode_bytes ~off (Mmt_sim.Packet.frame packet) with
            | Ok { Mmt.Header.kind = Mmt.Feature.Kind.Nak; _ } -> true
            | _ -> false)
        | Error _ -> false
      in
      if is_nak then Mmt.Buffer_host.on_packet buffer packet
      else to_receivers packet);

  (* Every completed sensor reading becomes one aggregated fragment. *)
  let forward_reading sensor_id =
    incr aggregated;
    let fragment =
      {
        Mmt_daq.Fragment.run = 1;
        trigger = !aggregated;
        timestamp = Mmt_sim.Engine.now engine;
        experiment;
        detector =
          Mmt_daq.Fragment.Beam_instrument
            { device = sensor_id; sample_rate_khz = 50; adc_bits = 16 };
        payload = Bytes.make reading_size 's';
      }
    in
    Mmt.Sender.send_with mmt_sender
      ~length:(Mmt_daq.Fragment.total_size fragment)
      (fun w -> Mmt_daq.Fragment.write w fragment)
  in
  List.iter
    (fun (i, sender, _, received) ->
      (* Pace readings out of each sensor; count completions at the
         gateway by watching delivered byte boundaries. *)
      let boundary = ref reading_size in
      let watcher () =
        while !received >= !boundary do
          forward_reading i;
          boundary := !boundary + reading_size
        done
      in
      for r = 0 to readings_per_sensor - 1 do
        ignore
          (Mmt_sim.Engine.schedule engine
             ~at:(Units.Time.scale (Units.Time.ms 2.) (float_of_int r))
             (fun () ->
               Mmt_tcp.Connection.write sender reading_size;
               watcher ()))
      done;
      (* Poll for late deliveries as cell losses are retransmitted. *)
      for tick = 1 to 100 do
        ignore
          (Mmt_sim.Engine.schedule engine
             ~at:(Units.Time.scale (Units.Time.ms 25.) (float_of_int tick))
             watcher)
      done)
    connections;

  (* Facility receiver. *)
  let router_fac =
    Mmt_pilot.Router.create ~default:(Mmt_sim.Link.send wan_back) ~ring ()
  in
  let env_fac = Mmt_pilot.Router.env router_fac ~engine ~fresh_id ~local_ip:facility_ip in
  let receiver =
    Mmt.Receiver.create ~env:env_fac
      {
        Mmt.Receiver.experiment;
        nak_delay = Units.Time.ms 2.;
        nak_retry_timeout = Units.Time.ms 40.;
        max_nak_retries = 8;
        expected_total = None;
      }
      ~deliver:(fun _ _ -> ())
  in
  Mmt_sim.Node.set_handler facility (Mmt.Receiver.on_packet receiver);

  Mmt_sim.Engine.run ~until:(Units.Time.seconds 30.) engine;

  print_endline "Osmotic sensors (§ 6 challenge 3): TCP edges, multi-modal core";
  print_endline "----------------------------------------------------------------";
  let total_readings = sensor_count * readings_per_sensor in
  let tcp_retx =
    List.fold_left
      (fun acc (_, sender, _, _) ->
        acc + (Mmt_tcp.Connection.stats sender).Mmt_tcp.Connection.retransmits)
      0 connections
  in
  Printf.printf "sensor readings sent over cell TCP : %d (%d TCP retransmissions)\n"
    total_readings tcp_retx;
  Printf.printf "readings aggregated at the gateway : %d\n" !aggregated;
  let stats = Mmt.Receiver.stats receiver in
  Printf.printf "fragments delivered at the facility: %d (%d recovered from the \
                 gateway buffer, %d lost)\n"
    stats.Mmt.Receiver.delivered stats.Mmt.Receiver.recovered stats.Mmt.Receiver.lost;
  if !aggregated = total_readings && stats.Mmt.Receiver.delivered = total_readings then
    print_endline "\nevery dispersed reading crossed both worlds intact."
