open Mmt_util

type config = {
  profile : Profile.t;
  experiment : Mmt_daq.Experiment.t;
  scale : float;
  fragment_count : int;
  payload : Mmt_daq.Workload.payload;
  wan_rtt : Units.Time.t;
  wan_loss : float;
  wan_corrupt : float;
  deadline_budget : Units.Time.t option;
  age_budget_us : int;
  nak_delay : Units.Time.t;
  nak_retry_timeout : Units.Time.t;
  max_nak_retries : int;
  slices : int;
  event_timeout : Units.Time.t;
  researchers : int;
  timeliness_policy : Mmt_innet.Timeliness_checker.policy;
  backpressure : bool;
  wan_bottleneck : float;
  int_telemetry : bool;
  seed : int64;
}

let default_config =
  {
    profile = Profile.physical_100gbe;
    experiment = Mmt_daq.Experiment.find Mmt_daq.Experiment.Dune;
    scale = 1e-4;
    fragment_count = 2000;
    payload = Mmt_daq.Workload.Synthetic (Units.Size.bytes 7200);
    wan_rtt = Units.Time.ms 13.;
    wan_loss = 0.002;
    wan_corrupt = 0.0005;
    deadline_budget = None;
    age_budget_us = 20_000;
    nak_delay = Units.Time.ms 1.;
    nak_retry_timeout = Units.Time.ms 20.;
    max_nak_retries = 8;
    slices = 1;
    event_timeout = Units.Time.ms 100.;
    researchers = 0;
    timeliness_policy = Mmt_innet.Timeliness_checker.Mark;
    backpressure = false;
    wan_bottleneck = 1.0;
    int_telemetry = false;
    seed = 42L;
  }

(* INT node identities: stable ids for the stamping devices and the
   sink, matching Fig. 4's path order. *)
let int_nodes = [ (1, "dtn1"); (2, "tofino2"); (3, "dtn2") ]

type int_state = {
  collector : Mmt_int.Collector.t;
  dtn1_stamper : Mmt_int.Stamper.t;
  tofino_stamper : Mmt_int.Stamper.t;
  sink : Mmt_int.Sink.t;
}

type t = {
  config : config;
  engine : Mmt_sim.Engine.t;
  topo : Mmt_sim.Topology.t;
  sender : Mmt.Sender.t;
  workloads : Mmt_daq.Workload.t list;
  receiver : Mmt.Receiver.t;
  event_builder : Mmt_daq.Event_builder.t;
  buffer : Mmt.Buffer_host.t;
  rewriter : Mmt_innet.Mode_rewriter.t;
  age_tracker : Mmt_innet.Age_tracker.t;
  timeliness : Mmt_innet.Timeliness_checker.t;
  bp_monitor : Mmt_innet.Backpressure_monitor.t option;
  dtn1_switch : Mmt_innet.Switch.t;
  tofino_switch : Mmt_innet.Switch.t;
  wan_a : Mmt_sim.Link.t;
  wan_b : Mmt_sim.Link.t;
  researcher_receivers : Mmt.Receiver.t list;
  int_state : int_state option;
}

(* Frame inspection used by switch routing: the encapsulation's IP
   destination and the transport kind. *)
let frame_address frame =
  match Mmt.Encap.locate frame with
  | Error _ -> None
  | Ok (encap, mmt_offset) ->
      let dst =
        match encap with
        | Mmt.Encap.Over_ipv4 { dst; _ } -> Some dst
        | Mmt.Encap.Raw | Mmt.Encap.Over_ethernet _ -> None
      in
      let kind =
        match Mmt.Header.View.of_frame ~off:mmt_offset frame with
        | Ok view -> Some (Mmt.Header.View.kind view)
        | Error _ -> None
      in
      Some (dst, kind)

let receiver_config config =
  {
    Mmt.Receiver.experiment = config.experiment.Mmt_daq.Experiment.id;
    nak_delay = config.nak_delay;
    nak_retry_timeout = config.nak_retry_timeout;
    max_nak_retries = config.max_nak_retries;
    expected_total = Some (config.fragment_count * max 1 config.slices);
  }

let build config =
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
  let rng = Rng.create ~seed:config.seed in
  let loss_rng_a = Rng.split rng in
  let loss_rng_b = Rng.split rng in
  let workload_rng = Rng.split rng in

  (* Nodes *)
  let sensor = Mmt_sim.Topology.add_node topo ~name:"sensor" in
  let dtn1 = Mmt_sim.Topology.add_node topo ~name:"dtn1" in
  let tofino = Mmt_sim.Topology.add_node topo ~name:"tofino2" in
  let dtn2 = Mmt_sim.Topology.add_node topo ~name:"dtn2" in
  let researchers =
    List.init config.researchers (fun i ->
        Mmt_sim.Topology.add_node topo ~name:(Printf.sprintf "researcher%d" i))
  in
  (* Every host hands the topology's packet ring to its router, switch
     and elements, so every retirement point recycles into it. *)
  let ring = Option.get (Mmt_sim.Topology.ring topo) in
  let pool = Mmt_sim.Ring.pool ring in

  (* Links.  Data direction carries the WAN impairments; the control
     (reverse) direction is clean, NAK retries cover the rest. *)
  let wan_loss rng =
    if config.wan_loss = 0. && config.wan_corrupt = 0. then Mmt_sim.Loss.perfect
    else Mmt_sim.Loss.bernoulli ~drop:config.wan_loss ~corrupt:config.wan_corrupt ~rng
  in
  let quarter = Units.Time.scale config.wan_rtt 0.25 in
  let p = config.profile in
  let s_to_d1 =
    Mmt_sim.Topology.connect topo ~src:sensor ~dst:dtn1 ~rate:p.Profile.daq_link_rate
      ~propagation:p.Profile.daq_propagation ()
  in
  let d1_to_s =
    Mmt_sim.Topology.connect topo ~src:dtn1 ~dst:sensor ~rate:p.Profile.daq_link_rate
      ~propagation:p.Profile.daq_propagation ()
  in
  let d1_to_sw =
    Mmt_sim.Topology.connect topo ~src:dtn1 ~dst:tofino ~rate:p.Profile.wan_link_rate
      ~propagation:quarter ~loss:(wan_loss loss_rng_a) ()
  in
  let sw_to_d1 =
    Mmt_sim.Topology.connect topo ~src:tofino ~dst:dtn1 ~rate:p.Profile.wan_link_rate
      ~propagation:quarter ()
  in
  let sw_to_d2 =
    (* The bottleneck multiplier narrows the second WAN hop so that
       congestion (and hence back-pressure) can be exercised. *)
    Mmt_sim.Topology.connect topo ~src:tofino ~dst:dtn2
      ~rate:(Units.Rate.scale p.Profile.wan_link_rate config.wan_bottleneck)
      ~propagation:quarter ~loss:(wan_loss loss_rng_b) ()
  in
  let d2_to_sw =
    Mmt_sim.Topology.connect topo ~src:dtn2 ~dst:tofino ~rate:p.Profile.wan_link_rate
      ~propagation:quarter ()
  in
  let researcher_links =
    List.map
      (fun node ->
        Mmt_sim.Topology.connect topo ~src:tofino ~dst:node
          ~rate:p.Profile.wan_link_rate ~propagation:(Units.Time.ms 2.) ())
      researchers
  in

  (* In-band telemetry (off by default): a collector fed by the DTN 2
     sink, with transit stampers on the two programmable devices.  The
     stampers sample the egress queue of the link they feed, the way
     switch hardware exposes queue depth as intrinsic metadata. *)
  let int_state =
    if not config.int_telemetry then None
    else
      let collector = Mmt_int.Collector.create ~nodes:int_nodes () in
      let dtn1_stamper =
        Mmt_int.Stamper.create ~node_id:1 ~mode_id:1
          ~residency:p.Profile.nic.Mmt_innet.Switch.pipeline_latency
          ~queue_depth:(fun () ->
            Units.Size.to_bytes
              (Mmt_sim.Queue_model.queued_bytes (Mmt_sim.Link.queue d1_to_sw)))
          ()
      in
      let tofino_stamper =
        Mmt_int.Stamper.create ~node_id:2 ~mode_id:1
          ~residency:p.Profile.switch.Mmt_innet.Switch.pipeline_latency
          ~queue_depth:(fun () ->
            Units.Size.to_bytes
              (Mmt_sim.Queue_model.queued_bytes (Mmt_sim.Link.queue sw_to_d2)))
          ()
      in
      let sink =
        Mmt_int.Sink.create ~node_id:3
          ~emit:(Mmt_int.Collector.add collector)
          ~pool ()
      in
      Some { collector; dtn1_stamper; tofino_stamper; sink }
  in
  let int_element stamper =
    match int_state with
    | Some state -> [ Mmt_int.Stamper.element (stamper state) ]
    | None -> []
  in

  (* DTN 1: buffer host + mode-0 -> mode-1 rewriter. *)
  let router_d1 = Router.create ~ring () in
  Router.add router_d1 Address.dtn2_ip (Mmt_sim.Link.send d1_to_sw);
  Router.add router_d1 Address.sensor_ip (Mmt_sim.Link.send d1_to_s);
  List.iteri
    (fun i _ -> Router.add router_d1 (Address.researcher_ip i) (Mmt_sim.Link.send d1_to_sw))
    researchers;
  let env_d1 =
    Router.env router_d1 ~engine ~fresh_id ~local_ip:Address.dtn1_ip
  in
  let buffer =
    Mmt.Buffer_host.create ~env:env_d1 ~capacity:(Units.Size.mib 256)
      ~upstream:Address.sensor_ip ()
  in
  let wan_mode =
    Mmt.Mode.make ~name:"mode1/wan" ~reliable:Address.dtn1_ip
      ?deadline_budget:
        (Option.map (fun budget -> (budget, Address.sensor_ip)) config.deadline_budget)
      ~age_budget_us:config.age_budget_us
      ?backpressure_to:(if config.backpressure then Some Address.sensor_ip else None)
      ~int_telemetry:config.int_telemetry ()
  in
  let rewriter =
    Mmt_innet.Mode_rewriter.create ~mode:wan_mode
      ~re_encap:
        (Mmt.Encap.Over_ipv4
           { src = Address.dtn1_ip; dst = Address.dtn2_ip; dscp = 0; ttl = 64 })
      ~pool
      ~on_rewrite:(fun ~seq ~born frame ->
        match seq with
        | Some seq -> Mmt.Buffer_host.store buffer ~seq ~born frame
        | None -> ())
      ()
  in
  let dtn1_route packet =
    let frame = Mmt_sim.Packet.frame packet in
    match frame_address frame with
    | Some (Some dst, Some Mmt.Feature.Kind.Nak)
      when Mmt_frame.Addr.Ip.equal dst Address.dtn1_ip ->
        Some (Mmt.Buffer_host.on_packet buffer)
    | Some (Some dst, _) when Mmt_frame.Addr.Ip.equal dst Address.sensor_ip ->
        Some (Mmt_sim.Link.send d1_to_s)
    | Some (Some _, _) -> Some (Mmt_sim.Link.send d1_to_sw)
    | Some (None, _) -> Some (Mmt_sim.Link.send d1_to_sw)
    | None -> None
  in
  let dtn1_switch =
    Mmt_innet.Switch.attach ~engine ~node:dtn1 ~profile:p.Profile.nic
      ~ring
      ~elements:
        (Mmt_innet.Mode_rewriter.element rewriter
        :: int_element (fun state -> state.dtn1_stamper))
      ~route:dtn1_route ()
  in

  (* Tofino2: age tracking, optional duplication / back-pressure /
     in-network timeliness. *)
  let router_sw = Router.create ~ring () in
  Router.add router_sw Address.dtn1_ip (Mmt_sim.Link.send sw_to_d1);
  Router.add router_sw Address.dtn2_ip (Mmt_sim.Link.send sw_to_d2);
  Router.add router_sw Address.sensor_ip (Mmt_sim.Link.send sw_to_d1);
  List.iteri
    (fun i link -> Router.add router_sw (Address.researcher_ip i) (Mmt_sim.Link.send link))
    researcher_links;
  let env_sw =
    Router.env router_sw ~engine ~fresh_id ~local_ip:(Mmt_frame.Addr.Ip.of_octets 10 0 2 1)
  in
  let age_tracker = Mmt_innet.Age_tracker.create () in
  let timeliness =
    Mmt_innet.Timeliness_checker.create ~env:env_sw ~policy:config.timeliness_policy ()
  in
  let duplicator =
    if config.researchers > 0 then
      Some
        (Mmt_innet.Duplicator.create ~env:env_sw
           ~consumers:(List.init config.researchers Address.researcher_ip)
           ())
    else None
  in
  let bp_monitor =
    if config.backpressure then
      Some
        (Mmt_innet.Backpressure_monitor.create ~env:env_sw
           {
             Mmt_innet.Backpressure_monitor.high_watermark = Units.Size.mib 2;
             low_watermark = Units.Size.kib 256;
             advised_pace_mbps =
               (* Advise half of the *bottleneck* hop, so the sender
                  actually relieves the congested queue. *)
               int_of_float
                 (Units.Rate.to_bps p.Profile.wan_link_rate
                  *. config.wan_bottleneck /. 2e6);
             min_signal_gap = Units.Time.ms 1.;
           }
           ~queue_depth:(fun () ->
             Mmt_sim.Queue_model.queued_bytes (Mmt_sim.Link.queue sw_to_d2))
           ())
    else None
  in
  let tofino_elements =
    [ Mmt_innet.Age_tracker.element age_tracker ]
    @ (match bp_monitor with
      | Some monitor -> [ Mmt_innet.Backpressure_monitor.element monitor ]
      | None -> [])
    @ [ Mmt_innet.Timeliness_checker.element timeliness ]
    @ (match duplicator with
      | Some dup -> [ Mmt_innet.Duplicator.element dup ]
      | None -> [])
    @ int_element (fun state -> state.tofino_stamper)
  in
  let tofino_route packet =
    let frame = Mmt_sim.Packet.frame packet in
    match frame_address frame with
    | Some (Some dst, _) ->
        (* router_sw already holds every destination (DTNs, sensor,
           researchers); an O(1) lookup replaces the old linear scan
           over researcher links that cost O(consumers) per packet. *)
        Router.find router_sw dst
    | Some (None, _) -> Some (Mmt_sim.Link.send sw_to_d2)
    | None -> None
  in
  let tofino_switch =
    Mmt_innet.Switch.attach ~engine ~node:tofino ~profile:p.Profile.switch
      ~ring ~elements:tofino_elements ~route:tofino_route ()
  in

  (* DTN 2: the receiving endpoint (mode 3 timeliness check happens in
     the receiver). *)
  let router_d2 = Router.create ~ring () in
  Router.add router_d2 Address.dtn1_ip (Mmt_sim.Link.send d2_to_sw);
  Router.add router_d2 Address.sensor_ip (Mmt_sim.Link.send d2_to_sw);
  let env_d2 =
    Router.env router_d2 ~engine ~fresh_id ~local_ip:Address.dtn2_ip
  in
  let event_builder =
    Mmt_daq.Event_builder.create
      ~slices:(List.init (max 1 config.slices) Fun.id)
      ~timeout:config.event_timeout
  in
  let receiver =
    Mmt.Receiver.create ~env:env_d2 (receiver_config config)
      ~deliver:(fun _meta payload ->
        match Mmt_daq.Fragment.read_header payload with
        | Ok h ->
            ignore
              (Mmt_daq.Event_builder.add event_builder
                 ~now:(Mmt_sim.Engine.now engine) ~run:h.Mmt_daq.Fragment.run
                 ~trigger:h.Mmt_daq.Fragment.trigger
                 ~slice:(Mmt.Experiment_id.slice h.Mmt_daq.Fragment.experiment))
        | Error _ -> ())
  in
  let to_receiver =
    Mmt_sim.Engine.Line.push
      (Mmt_sim.Engine.Line.create engine ~delay:p.Profile.host_overhead
         ~filler:Mmt_sim.Packet.none (Mmt.Receiver.on_packet receiver))
  in
  (match int_state with
  | Some state ->
      (* The smartNIC hosts the INT sink: strip the stack and digest it
         before the packet crosses into the host. *)
      ignore
        (Mmt_innet.Switch.attach ~engine ~node:dtn2 ~profile:p.Profile.nic
           ~ring
           ~elements:[ Mmt_int.Sink.element state.sink ]
           ~route:(fun _packet -> Some to_receiver)
           ())
  | None -> Mmt_sim.Node.set_handler dtn2 to_receiver);

  (* Researchers: plain receivers on the duplicated stream. *)
  let researcher_receivers =
    List.mapi
      (fun i node ->
        (* Keep the historic drop-silently default but recycle the
           dropped packet (same unrouted accounting either way). *)
        let router =
          Router.create ~default:(Mmt_sim.Ring.in_packet_done ring) ~ring ()
        in
        let env =
          Router.env router ~engine ~fresh_id ~local_ip:(Address.researcher_ip i)
        in
        let r =
          Mmt.Receiver.create ~env
            { (receiver_config config) with Mmt.Receiver.expected_total = None }
            ~deliver:(fun _meta _payload -> ())
        in
        Mmt_sim.Node.set_handler node (Mmt.Receiver.on_packet r);
        r)
      researchers
  in

  (* Sensor: mode-0 sender fed by the DAQ workload. *)
  let router_s =
    Router.create ~default:(Mmt_sim.Link.send s_to_d1) ~ring ()
  in
  let env_s = Router.env router_s ~engine ~fresh_id ~local_ip:Address.sensor_ip in
  let sender =
    Mmt.Sender.create ~env:env_s
      {
        Mmt.Sender.experiment = config.experiment.Mmt_daq.Experiment.id;
        destination = Address.dtn2_ip;
        encap =
          Mmt.Encap.Over_ethernet
            { src = Address.sensor_mac; dst = Address.dtn1_mac };
        deadline_budget = None;
        backpressure_to = None;
        pace = None;
        padding = 0;
      }
  in
  Mmt_sim.Node.set_handler sensor (fun packet ->
      (if not packet.Mmt_sim.Packet.corrupted then
         match Mmt.Encap.parse (Mmt_sim.Packet.frame packet) with
         | Error _ -> ()
         | Ok (header, payload) ->
             Mmt.Sender.on_control sender header
               (Mmt_wire.Cursor.Reader.rest payload));
      (* The sensor consumes whatever reaches it (control + strays). *)
      Mmt_sim.Ring.in_packet_done ring packet);

  (* One workload per instrument slice, each the catalog shape; the
     event builder at DTN 2 reunites their matching trigger numbers. *)
  let workload_config slice =
    {
      Mmt_daq.Workload.experiment = config.experiment;
      scale = config.scale;
      profile = Mmt_daq.Workload.Steady;
      payload = config.payload;
      run = 1;
      slice;
    }
  in
  let interval = Mmt_daq.Workload.expected_interval (workload_config 0) in
  let until = Units.Time.scale interval (float_of_int (config.fragment_count - 1)) in
  let workloads =
    List.init (max 1 config.slices) (fun slice ->
        Mmt_daq.Workload.start ~engine
          ~rng:(Rng.split workload_rng)
          (workload_config slice)
          ~emit:(fun fragment ->
            Mmt.Sender.send_with sender
              ~length:(Mmt_daq.Fragment.total_size fragment)
              (fun w -> Mmt_daq.Fragment.write w fragment))
          ~until)
  in

  {
    config;
    engine;
    topo;
    sender;
    workloads;
    receiver;
    event_builder;
    buffer;
    rewriter;
    age_tracker;
    timeliness;
    bp_monitor;
    dtn1_switch;
    tofino_switch;
    wan_a = d1_to_sw;
    wan_b = sw_to_d2;
    researcher_receivers;
    int_state;
  }

let run t = Mmt_sim.Engine.run t.engine

type results = {
  emitted : int;
  sender : Mmt.Sender.stats;
  receiver : Mmt.Receiver.stats;
  goodput : Units.Rate.t;
  buffer : Mmt.Buffer_host.stats;
  rewriter : Mmt_innet.Mode_rewriter.stats;
  age : Mmt_innet.Age_tracker.stats;
  timeliness : Mmt_innet.Timeliness_checker.stats;
  dtn1_switch : Mmt_innet.Switch.stats;
  tofino_switch : Mmt_innet.Switch.stats;
  wan_a : Mmt_sim.Link.stats;
  wan_b : Mmt_sim.Link.stats;
  researcher_stats : Mmt.Receiver.stats list;
  backpressure_stats : Mmt_innet.Backpressure_monitor.stats option;
  events : Mmt_daq.Event_builder.stats;
  finished_at : Units.Time.t;
}

let results t =
  let finished_at = Mmt_sim.Engine.last_event_at t.engine in
  ignore (Mmt_daq.Event_builder.sweep t.event_builder ~now:finished_at);
  {
    emitted =
      List.fold_left
        (fun acc w ->
          acc + (Mmt_daq.Workload.stats w).Mmt_daq.Workload.fragments_emitted)
        0 t.workloads;
    sender = Mmt.Sender.stats t.sender;
    receiver = Mmt.Receiver.stats t.receiver;
    goodput = Mmt.Receiver.goodput t.receiver;
    buffer = Mmt.Buffer_host.stats t.buffer;
    rewriter = Mmt_innet.Mode_rewriter.stats t.rewriter;
    age = Mmt_innet.Age_tracker.stats t.age_tracker;
    timeliness = Mmt_innet.Timeliness_checker.stats t.timeliness;
    dtn1_switch = Mmt_innet.Switch.stats t.dtn1_switch;
    tofino_switch = Mmt_innet.Switch.stats t.tofino_switch;
    wan_a = Mmt_sim.Link.stats t.wan_a;
    wan_b = Mmt_sim.Link.stats t.wan_b;
    researcher_stats = List.map Mmt.Receiver.stats t.researcher_receivers;
    backpressure_stats = Option.map Mmt_innet.Backpressure_monitor.stats t.bp_monitor;
    events = Mmt_daq.Event_builder.stats t.event_builder;
    finished_at;
  }

let receiver (t : t) = t.receiver
let researcher_receivers (t : t) = t.researcher_receivers
let config (t : t) = t.config
let engine (t : t) = t.engine

let ring_stats (t : t) =
  [ Mmt_sim.Ring.stats (Option.get (Mmt_sim.Topology.ring t.topo)) ]

let int_collector (t : t) =
  Option.map (fun state -> state.collector) t.int_state

let int_stamper_stats (t : t) =
  match t.int_state with
  | None -> []
  | Some state ->
      [
        ("dtn1", Mmt_int.Stamper.stats state.dtn1_stamper);
        ("tofino2", Mmt_int.Stamper.stats state.tofino_stamper);
      ]

let int_sink_stats (t : t) =
  Option.map (fun state -> Mmt_int.Sink.stats state.sink) t.int_state
