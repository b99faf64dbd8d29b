open Mmt_util

module Tcp_run = struct
  type params = {
    rate : Units.Rate.t;
    rtt : Units.Time.t;
    loss : float;
    transfer : Units.Size.t;
    message_size : Units.Size.t;
    offered : Units.Rate.t;  (* application's message pace *)
    config : Mmt_tcp.Connection.config;
    queue_capacity : Units.Size.t;
    seed : int64;
  }

  let params ?(rate = Units.Rate.gbps 100.) ?(rtt = Units.Time.ms 13.)
      ?(loss = 0.) ?(transfer = Units.Size.mib 64)
      ?(message_size = Units.Size.mib 1) ?offered ?config ?(seed = 11L) () =
    let bdp = Units.Rate.bytes_in rate rtt in
    let config =
      match config with
      | Some config -> config
      | None -> Mmt_tcp.Connection.tuned_config ~bdp
    in
    {
      rate;
      rtt;
      loss;
      transfer;
      message_size;
      offered = Option.value ~default:rate offered;
      config;
      queue_capacity = Units.Size.bytes (2 * Units.Size.to_bytes bdp + 1_000_000);
      seed;
    }

  type outcome = {
    fct : Units.Time.t option;
    throughput : Units.Rate.t;
    stats : Mmt_tcp.Connection.stats;
    message_latency_p50 : float;
    message_latency_p99 : float;
    message_latency_max : float;
    messages_completed : int;
  }

  let run p =
    let engine = Mmt_sim.Engine.create () in
    let topo = Mmt_sim.Topology.create ~engine () in
    let ring = Option.get (Mmt_sim.Topology.ring topo) in
    let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
    let rng = Rng.create ~seed:p.seed in
    let a = Mmt_sim.Topology.add_node topo ~name:"dtn-src" in
    let b = Mmt_sim.Topology.add_node topo ~name:"dtn-dst" in
    let half = Units.Time.scale p.rtt 0.5 in
    let forward =
      Mmt_sim.Topology.connect topo ~src:a ~dst:b ~rate:p.rate ~propagation:half
        ~loss:
          (if p.loss > 0. then Mmt_sim.Loss.bernoulli ~drop:p.loss ~corrupt:0. ~rng
           else Mmt_sim.Loss.perfect)
        ~queue:(Mmt_sim.Queue_model.droptail ~capacity:p.queue_capacity ())
        ()
    in
    let reverse =
      Mmt_sim.Topology.connect topo ~src:b ~dst:a ~rate:p.rate ~propagation:half ()
    in
    let framing = Mmt_tcp.Framing.create () in
    let sender =
      Mmt_tcp.Connection.create ~engine ~ring ~fresh_id ~config:p.config
        ~tx:(Mmt_sim.Link.send forward) ()
    in
    let receiver =
      Mmt_tcp.Connection.create ~engine ~ring ~fresh_id ~config:p.config
        ~tx:(Mmt_sim.Link.send reverse)
        ~deliver:(fun n ->
          ignore
            (Mmt_tcp.Framing.on_delivered framing ~now:(Mmt_sim.Engine.now engine) n))
        ()
    in
    Mmt_sim.Node.set_handler a (Mmt_tcp.Connection.on_packet sender);
    Mmt_sim.Node.set_handler b (Mmt_tcp.Connection.on_packet receiver);
    (* Write message-by-message at the sending application's natural
       pace (one message per message-transmission-time), recording send
       instants for HoL latency. *)
    let total = Units.Size.to_bytes p.transfer in
    let msg = max 1 (Units.Size.to_bytes p.message_size) in
    let message_count = max 1 (total / msg) in
    let gap = Units.Rate.transmission_time p.offered p.message_size in
    let send_times = Array.make message_count Units.Time.zero in
    for i = 0 to message_count - 1 do
      ignore
        (Mmt_sim.Engine.schedule engine
           ~at:(Units.Time.scale gap (float_of_int i))
           (fun () ->
             send_times.(i) <- Mmt_sim.Engine.now engine;
             Mmt_tcp.Framing.mark_message framing ~size:msg;
             Mmt_tcp.Connection.write sender msg;
             if i = message_count - 1 then Mmt_tcp.Connection.finish sender))
    done;
    Mmt_sim.Engine.run ~until:(Units.Time.seconds 600.) engine;
    let stats = Mmt_tcp.Connection.stats sender in
    let fct = stats.Mmt_tcp.Connection.completed_at in
    let sent_bytes = msg * message_count in
    let throughput =
      match fct with
      | Some t when not (Units.Time.is_zero t) ->
          Units.Rate.of_size_per_time (Units.Size.bytes sent_bytes) t
      | _ -> Units.Rate.zero
    in
    let completions = Mmt_tcp.Framing.completion_times framing in
    (* Skip the first 20% of messages: slow-start backlog is a ramp
       artifact, and the HoL observable is steady-state behaviour. *)
    let warmup = message_count / 5 in
    let latencies = Stats.Summary.create () in
    Array.iteri
      (fun i done_at ->
        if i >= warmup && i < message_count then
          Stats.Summary.add latencies
            (Units.Time.to_float_s (Units.Time.diff done_at send_times.(i))))
      completions;
    {
      fct;
      throughput;
      stats;
      message_latency_p50 =
        (if Stats.Summary.count latencies = 0 then nan
         else Stats.Summary.quantile latencies 0.5);
      message_latency_p99 =
        (if Stats.Summary.count latencies = 0 then nan
         else Stats.Summary.quantile latencies 0.99);
      message_latency_max =
        (if Stats.Summary.count latencies = 0 then nan
         else Stats.Summary.max latencies);
      messages_completed = Mmt_tcp.Framing.messages_completed framing;
    }
end

module Udp_run = struct
  type outcome = {
    sent : int;
    received : int;
    lost : int;
    goodput : Units.Rate.t;
  }

  let run ?(rate = Units.Rate.gbps 100.) ?(loss = 0.001) ?(datagrams = 10_000)
      ?(size = Units.Size.bytes 7200) ?(seed = 3L) () =
    let engine = Mmt_sim.Engine.create () in
    let topo = Mmt_sim.Topology.create ~engine () in
    let ring = Option.get (Mmt_sim.Topology.ring topo) in
    let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
    let rng = Rng.create ~seed in
    let a = Mmt_sim.Topology.add_node topo ~name:"sensor" in
    let b = Mmt_sim.Topology.add_node topo ~name:"dtn" in
    let link =
      Mmt_sim.Topology.connect topo ~src:a ~dst:b ~rate
        ~propagation:(Units.Time.us 5.)
        ~loss:
          (if loss > 0. then Mmt_sim.Loss.bernoulli ~drop:loss ~corrupt:0. ~rng
           else Mmt_sim.Loss.perfect)
        ()
    in
    let receiver =
      Mmt_tcp.Udp_transport.create_receiver ~ring
        ~deliver:(fun ~src:_ ~src_port:_ _payload -> ())
        ()
    in
    Mmt_sim.Node.set_handler b (Mmt_tcp.Udp_transport.on_packet receiver);
    let sender =
      Mmt_tcp.Udp_transport.create_sender ~engine ~ring ~fresh_id
        ~src:(Mmt_frame.Addr.Ip.of_octets 10 0 0 1)
        ~dst:(Mmt_frame.Addr.Ip.of_octets 10 0 0 2)
        ~src_port:4000 ~dst_port:4001 ~tx:(Mmt_sim.Link.send link) ()
    in
    let payload = Bytes.make (Units.Size.to_bytes size) '\x5A' in
    let gap = Units.Rate.transmission_time rate size in
    for i = 0 to datagrams - 1 do
      ignore
        (Mmt_sim.Engine.schedule engine
           ~at:(Units.Time.scale gap (float_of_int i))
           (fun () -> Mmt_tcp.Udp_transport.send sender payload))
    done;
    Mmt_sim.Engine.run engine;
    let s = Mmt_tcp.Udp_transport.sender_stats sender in
    let r = Mmt_tcp.Udp_transport.receiver_stats receiver in
    let duration = Mmt_sim.Engine.now engine in
    {
      sent = s.Mmt_tcp.Udp_transport.datagrams_sent;
      received = r.Mmt_tcp.Udp_transport.datagrams_received;
      lost =
        s.Mmt_tcp.Udp_transport.datagrams_sent
        - r.Mmt_tcp.Udp_transport.datagrams_received;
      goodput = Mmt_tcp.Udp_transport.receiver_goodput receiver ~over:duration;
    }
end

module Placement_run = struct
  type params = {
    rate : Units.Rate.t;
    rtt : Units.Time.t;
    buffer_position : float;
    loss : float;
    bursty : bool;  (* Gilbert-Elliott burst loss instead of Bernoulli *)
    buffer_capacity : Units.Size.t;
    fragment_count : int;
    fragment_size : Units.Size.t;
    nak_delay : Units.Time.t;
    age_budget_us : int;
    seed : int64;
  }

  let params ?(rate = Units.Rate.gbps 100.) ?(rtt = Units.Time.ms 13.)
      ?(buffer_position = 0.) ?(loss = 0.003) ?(bursty = false)
      ?(buffer_capacity = Units.Size.mib 512) ?(fragment_count = 3000)
      ?(fragment_size = Units.Size.bytes 7200) ?(nak_delay = Units.Time.ms 1.)
      ?(age_budget_us = 50_000) ?(seed = 17L) () =
    if buffer_position < 0. || buffer_position > 1. then
      invalid_arg "Placement_run.params: buffer_position outside [0, 1]";
    {
      rate;
      rtt;
      buffer_position;
      loss;
      bursty;
      buffer_capacity;
      fragment_count;
      fragment_size;
      nak_delay;
      age_budget_us;
      seed;
    }

  type outcome = {
    delivered : int;
    recovered : int;
    lost : int;
    fct : Units.Time.t option;
    latency_p50 : float;
    latency_p99 : float;
    latency_max : float;
    recovery_rtt : Units.Time.t;
    receiver : Mmt.Receiver.stats;
  }

  let source_ip = Mmt_frame.Addr.Ip.of_octets 10 9 0 1
  let buffer_ip = Mmt_frame.Addr.Ip.of_octets 10 9 0 2
  let sink_ip = Mmt_frame.Addr.Ip.of_octets 10 9 0 3

  let run p =
    let engine = Mmt_sim.Engine.create () in
    let topo = Mmt_sim.Topology.create ~engine () in
    let ring = Option.get (Mmt_sim.Topology.ring topo) in
    let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
    let rng = Rng.create ~seed:p.seed in
    let loss_rng = Rng.split rng in
    let src = Mmt_sim.Topology.add_node topo ~name:"source" in
    let buf = Mmt_sim.Topology.add_node topo ~name:"buffer-point" in
    let dst = Mmt_sim.Topology.add_node topo ~name:"sink" in
    let one_way = Units.Time.scale p.rtt 0.5 in
    let prop_a = Units.Time.scale one_way p.buffer_position in
    let prop_b = Units.Time.scale one_way (1. -. p.buffer_position) in
    let src_to_buf =
      Mmt_sim.Topology.connect topo ~src ~dst:buf ~rate:p.rate ~propagation:prop_a ()
    in
    let loss_model =
      if p.loss <= 0. then Mmt_sim.Loss.perfect
      else if p.bursty then
        (* Mean burst length ~5 packets at the requested average rate. *)
        Mmt_sim.Loss.gilbert_elliott
          ~p_good_to_bad:(p.loss /. 4.)
          ~p_bad_to_good:0.2 ~drop_in_bad:0.9 ~rng:loss_rng ()
      else Mmt_sim.Loss.bernoulli ~drop:p.loss ~corrupt:0. ~rng:loss_rng
    in
    let buf_to_dst =
      Mmt_sim.Topology.connect topo ~src:buf ~dst ~rate:p.rate ~propagation:prop_b
        ~loss:loss_model ()
    in
    let dst_to_buf =
      Mmt_sim.Topology.connect topo ~src:dst ~dst:buf ~rate:p.rate ~propagation:prop_b ()
    in
    let _buf_to_src =
      Mmt_sim.Topology.connect topo ~src:buf ~dst:src ~rate:p.rate ~propagation:prop_a ()
    in
    (* Buffer point: mode rewriter (sequencing, naming itself as the
       retransmission source) + the buffer host. *)
    let router_buf = Router.create ~ring () in
    Router.add router_buf sink_ip (Mmt_sim.Link.send buf_to_dst);
    let env_buf = Router.env router_buf ~engine ~fresh_id ~local_ip:buffer_ip in
    let buffer =
      Mmt.Buffer_host.create ~env:env_buf ~capacity:p.buffer_capacity ()
    in
    let mode =
      Mmt.Mode.make ~name:"placement/wan" ~reliable:buffer_ip
        ~age_budget_us:p.age_budget_us ()
    in
    let rewriter =
      Mmt_innet.Mode_rewriter.create ~mode
        ~re_encap:
          (Mmt.Encap.Over_ipv4 { src = buffer_ip; dst = sink_ip; dscp = 0; ttl = 64 })
        ~pool:(Mmt_sim.Ring.pool ring)
        ~on_rewrite:(fun ~seq ~born frame ->
          match seq with
          | Some seq -> Mmt.Buffer_host.store buffer ~seq ~born frame
          | None -> ())
        ()
    in
    let route packet =
      let frame = Mmt_sim.Packet.frame packet in
      match Mmt.Encap.locate frame with
      | Error _ -> None
      | Ok (Mmt.Encap.Over_ipv4 { dst; _ }, mmt_offset) -> (
          match Mmt.Header.View.of_frame ~off:mmt_offset frame with
          | Ok view
            when Mmt.Header.View.kind view = Mmt.Feature.Kind.Nak
                 && Mmt_frame.Addr.Ip.equal dst buffer_ip ->
              Some (Mmt.Buffer_host.on_packet buffer)
          | _ -> Some (Mmt_sim.Link.send buf_to_dst))
      | Ok ((Mmt.Encap.Raw | Mmt.Encap.Over_ethernet _), _) ->
          Some (Mmt_sim.Link.send buf_to_dst)
    in
    let _switch =
      Mmt_innet.Switch.attach ~engine ~node:buf ~profile:Mmt_innet.Switch.tofino2 ~ring
        ~elements:[ Mmt_innet.Mode_rewriter.element rewriter ]
        ~route ()
    in
    (* Sink: plain receiver. *)
    let router_dst = Router.create ~ring () in
    Router.add router_dst buffer_ip (Mmt_sim.Link.send dst_to_buf);
    let env_dst = Router.env router_dst ~engine ~fresh_id ~local_ip:sink_ip in
    let receiver =
      Mmt.Receiver.create ~env:env_dst
        {
          Mmt.Receiver.experiment = Mmt.Experiment_id.make ~experiment:9 ~slice:0;
          nak_delay = p.nak_delay;
          nak_retry_timeout = Units.Time.scale p.rtt 2.;
          max_nak_retries = 10;
          expected_total = Some p.fragment_count;
        }
        ~deliver:(fun _meta _payload -> ())
    in
    Mmt_sim.Node.set_handler dst (Mmt.Receiver.on_packet receiver);
    (* Source: mode-0 sender paced at 20% of line rate. *)
    let router_src = Router.create ~default:(Mmt_sim.Link.send src_to_buf) ~ring () in
    let env_src = Router.env router_src ~engine ~fresh_id ~local_ip:source_ip in
    let sender =
      Mmt.Sender.create ~env:env_src
        {
          Mmt.Sender.experiment = Mmt.Experiment_id.make ~experiment:9 ~slice:0;
          destination = sink_ip;
          encap = Mmt.Encap.Raw;
          deadline_budget = None;
          backpressure_to = None;
          pace = None;
          padding = 0;
        }
    in
    let payload = Bytes.make (Units.Size.to_bytes p.fragment_size) '\xC3' in
    let gap =
      Units.Rate.transmission_time (Units.Rate.scale p.rate 0.2) p.fragment_size
    in
    for i = 0 to p.fragment_count - 1 do
      ignore
        (Mmt_sim.Engine.schedule engine
           ~at:(Units.Time.scale gap (float_of_int i))
           (fun () -> Mmt.Sender.send sender payload))
    done;
    Mmt_sim.Engine.run ~until:(Units.Time.seconds 600.) engine;
    let stats = Mmt.Receiver.stats receiver in
    let latencies = Mmt.Receiver.latency_summary receiver in
    {
      delivered = stats.Mmt.Receiver.delivered;
      recovered = stats.Mmt.Receiver.recovered;
      lost = stats.Mmt.Receiver.lost;
      fct = stats.Mmt.Receiver.completion;
      latency_p50 =
        (if Stats.Summary.count latencies = 0 then nan
         else Stats.Summary.quantile latencies 0.5);
      latency_p99 =
        (if Stats.Summary.count latencies = 0 then nan
         else Stats.Summary.quantile latencies 0.99);
      latency_max =
        (if Stats.Summary.count latencies = 0 then nan
         else Stats.Summary.max latencies);
      recovery_rtt =
        Units.Time.add
          (Units.Time.scale one_way (2. *. (1. -. p.buffer_position)))
          p.nak_delay;
      receiver = stats;
    }
end

module Priority_run = struct
  type params = {
    link_rate : Units.Rate.t;
    bulk_rate : Units.Rate.t;
    bulk_count : int;
    alert_count : int;
    alert_deadline : Units.Time.t;
    deadline_aware : bool;
    seed : int64;
  }

  let params ?(link_rate = Units.Rate.gbps 10.) ?(bulk_rate = Units.Rate.gbps 12.)
      ?(bulk_count = 10_000) ?(alert_count = 1_000)
      ?(alert_deadline = Units.Time.ms 12.) ?(deadline_aware = false)
      ?(seed = 5L) () =
    { link_rate; bulk_rate; bulk_count; alert_count; alert_deadline; deadline_aware; seed }

  type outcome = {
    alerts_delivered : int;
    alerts_late : int;
    bulk_delivered : int;
    alert_latency_p99 : float;
  }

  let telescope_ip = Mmt_frame.Addr.Ip.of_octets 10 7 0 1
  let archive_ip = Mmt_frame.Addr.Ip.of_octets 10 7 0 2

  let deadline_of packet =
    match Mmt.Encap.locate (Mmt_sim.Packet.frame packet) with
    | Error _ -> None
    | Ok (_encap, off) -> (
        match Mmt.Header.View.of_frame ~off (Mmt_sim.Packet.frame packet) with
        | Ok view when Mmt.Header.View.has view Mmt.Feature.Timely ->
            Some (Mmt.Header.View.deadline_ns view)
        | Ok _ | Error _ -> None)

  let run p =
    let engine = Mmt_sim.Engine.create () in
    let topo = Mmt_sim.Topology.create ~engine () in
    let ring = Option.get (Mmt_sim.Topology.ring topo) in
    let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
    let telescope = Mmt_sim.Topology.add_node topo ~name:"telescope" in
    let archive = Mmt_sim.Topology.add_node topo ~name:"archive" in
    let queue =
      if p.deadline_aware then
        Mmt_sim.Queue_model.deadline_aware ~capacity:(Units.Size.mib 64)
          ~drop_expired:false ~deadline_of ()
      else Mmt_sim.Queue_model.droptail ~capacity:(Units.Size.mib 64) ()
    in
    let wan =
      Mmt_sim.Topology.connect topo ~src:telescope ~dst:archive ~rate:p.link_rate
        ~propagation:(Units.Time.ms 5.) ~queue ()
    in
    let router = Router.create ~default:(Mmt_sim.Link.send wan) ~ring () in
    let env = Router.env router ~engine ~fresh_id ~local_ip:telescope_ip in
    let experiment = Mmt.Experiment_id.make ~experiment:5 ~slice:0 in
    let sender_config ?deadline_budget slice =
      {
        Mmt.Sender.experiment = Mmt.Experiment_id.with_slice experiment slice;
        destination = archive_ip;
        encap =
          Mmt.Encap.Over_ipv4
            { src = telescope_ip; dst = archive_ip; dscp = 0; ttl = 64 };
        deadline_budget;
        backpressure_to = None;
        pace = None;
        padding = 0;
      }
    in
    let bulk_sender = Mmt.Sender.create ~env (sender_config 0) in
    let alert_sender =
      Mmt.Sender.create ~env
        (sender_config ~deadline_budget:(p.alert_deadline, Mmt_frame.Addr.Ip.any) 1)
    in
    let receiver_config expected =
      {
        Mmt.Receiver.experiment;
        nak_delay = Units.Time.ms 1.;
        nak_retry_timeout = Units.Time.ms 20.;
        max_nak_retries = 3;
        expected_total = Some expected;
      }
    in
    let env_archive =
      Router.env
        (Router.create ~default:(Mmt_sim.Ring.in_packet_done ring) ~ring ())
        ~engine ~fresh_id ~local_ip:archive_ip
    in
    let bulk_rx =
      Mmt.Receiver.create ~env:env_archive (receiver_config p.bulk_count)
        ~deliver:(fun _ _ -> ())
    in
    let alert_rx =
      Mmt.Receiver.create ~env:env_archive (receiver_config p.alert_count)
        ~deliver:(fun _ _ -> ())
    in
    Mmt_sim.Node.set_handler archive (fun packet ->
        match Mmt.Encap.locate (Mmt_sim.Packet.frame packet) with
        | Error _ -> Mmt_sim.Ring.in_packet_done ring packet
        | Ok (_encap, off) -> (
            match Mmt.Header.View.of_frame ~off (Mmt_sim.Packet.frame packet) with
            | Ok view
              when Mmt.Experiment_id.slice (Mmt.Header.View.experiment view) = 1
              ->
                Mmt.Receiver.on_packet alert_rx packet
            | Ok _ -> Mmt.Receiver.on_packet bulk_rx packet
            | Error _ -> Mmt_sim.Ring.in_packet_done ring packet));
    let bulk_payload = Bytes.make 8192 'B' in
    let bulk_gap = Units.Rate.transmission_time p.bulk_rate (Units.Size.bytes 8192) in
    for i = 0 to p.bulk_count - 1 do
      ignore
        (Mmt_sim.Engine.schedule engine
           ~at:(Units.Time.scale bulk_gap (float_of_int i))
           (fun () -> Mmt.Sender.send bulk_sender bulk_payload))
    done;
    let alert_payload = Bytes.make 1024 'A' in
    let alert_gap =
      Units.Rate.transmission_time (Units.Rate.mbps 200.) (Units.Size.bytes 1024)
    in
    for i = 0 to p.alert_count - 1 do
      ignore
        (Mmt_sim.Engine.schedule engine
           ~at:(Units.Time.scale alert_gap (float_of_int i))
           (fun () -> Mmt.Sender.send alert_sender alert_payload))
    done;
    Mmt_sim.Engine.run ~until:(Units.Time.seconds 60.) engine;
    let alerts = Mmt.Receiver.stats alert_rx in
    let latencies = Mmt.Receiver.latency_summary alert_rx in
    {
      alerts_delivered = alerts.Mmt.Receiver.delivered;
      alerts_late = alerts.Mmt.Receiver.late;
      bulk_delivered = (Mmt.Receiver.stats bulk_rx).Mmt.Receiver.delivered;
      alert_latency_p99 =
        (if Stats.Summary.count latencies = 0 then nan
         else Stats.Summary.quantile latencies 0.99);
    }
end
