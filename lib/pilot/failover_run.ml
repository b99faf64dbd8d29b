open Mmt_util
open Mmt_frame

type params = {
  fragment_count : int;
  fragment_size : Units.Size.t;
  loss : float;
  fail_buffer_a_at : Units.Time.t option;
  advert_period : Units.Time.t;
  seed : int64;
}

let params ?(fragment_count = 12000) ?(fragment_size = Units.Size.bytes 4096)
    ?(loss = 0.005) ?fail_buffer_a_at ?(advert_period = Units.Time.ms 5.)
    ?(seed = 31L) () =
  { fragment_count; fragment_size; loss; fail_buffer_a_at; advert_period; seed }

type outcome = {
  delivered : int;
  recovered : int;
  lost : int;
  naks_served_by_a : int;
  naks_served_by_b : int;
  mode_changes : int;
  final_buffer : string;
  adverts_received : int;
  receiver : Mmt.Receiver.stats;
}

let source_ip = Addr.Ip.of_octets 10 8 0 1
let ingress_ip = Addr.Ip.of_octets 10 8 0 2
let buffer_a_ip = Addr.Ip.of_octets 10 8 0 3
let buffer_b_ip = Addr.Ip.of_octets 10 8 0 4
let sink_ip = Addr.Ip.of_octets 10 8 0 5

let experiment = Mmt.Experiment_id.make ~experiment:8 ~slice:0

(* A snooping buffer point: stores every passing sequenced data frame,
   serves NAKs addressed to it, advertises itself — and can fail. *)
type buffer_point = {
  host : Mmt.Buffer_host.t;
  mutable alive : bool;
  ip : Addr.Ip.t;
  rtt_hint : Units.Time.t;
}

let snoop_element point =
  {
    Mmt_innet.Element.name = "buffer-snoop";
    program =
      {
        Mmt_innet.Op.name = "buffer-snoop";
        ops =
          [
            Mmt_innet.Op.Extract "config_data";
            Mmt_innet.Op.Compare "features.sequenced";
            Mmt_innet.Op.Extract "sequence";
            Mmt_innet.Op.Emit_digest "frame-to-buffer-memory";
          ];
      };
    process =
      (fun ~now:_ packet ->
        (if point.alive then
           let frame = Mmt_sim.Packet.frame packet in
           match Mmt.Encap.locate frame with
           | Error _ -> ()
           | Ok (_encap, off) -> (
               match Mmt.Header.View.of_frame ~off frame with
               | Ok view
                 when Mmt.Header.View.kind view = Mmt.Feature.Kind.Data
                      && Mmt.Header.View.has view Mmt.Feature.Sequenced ->
                   Mmt.Buffer_host.store point.host
                     ~seq:(Mmt.Header.View.sequence view)
                     ~born:packet.Mmt_sim.Packet.born (Bytes.copy frame)
               | Ok _ | Error _ -> ()));
        Mmt_innet.Element.Forward packet);
  }

let run p =
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let ring = Option.get (Mmt_sim.Topology.ring topo) in
  let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
  let rng = Rng.create ~seed:p.seed in
  let loss_rng = Rng.split rng in
  let rate = Units.Rate.gbps 100. in
  let src = Mmt_sim.Topology.add_node topo ~name:"source" in
  let ingress = Mmt_sim.Topology.add_node topo ~name:"ingress" in
  let node_a = Mmt_sim.Topology.add_node topo ~name:"buffer-a" in
  let node_b = Mmt_sim.Topology.add_node topo ~name:"buffer-b" in
  let sink = Mmt_sim.Topology.add_node topo ~name:"sink" in
  let hop = Units.Time.ms 1. in
  let src_to_ing = Mmt_sim.Topology.connect topo ~src ~dst:ingress ~rate ~propagation:(Units.Time.us 10.) () in
  let ing_to_a = Mmt_sim.Topology.connect topo ~src:ingress ~dst:node_a ~rate ~propagation:hop () in
  let a_to_b = Mmt_sim.Topology.connect topo ~src:node_a ~dst:node_b ~rate ~propagation:hop () in
  let b_to_sink =
    Mmt_sim.Topology.connect topo ~src:node_b ~dst:sink ~rate ~propagation:hop
      ~loss:(Mmt_sim.Loss.bernoulli ~drop:p.loss ~corrupt:0. ~rng:loss_rng)
      ()
  in
  (* Reverse path for NAKs / control. *)
  let sink_to_b = Mmt_sim.Topology.connect topo ~src:sink ~dst:node_b ~rate ~propagation:hop () in
  let b_to_a = Mmt_sim.Topology.connect topo ~src:node_b ~dst:node_a ~rate ~propagation:hop () in
  let a_to_ing = Mmt_sim.Topology.connect topo ~src:node_a ~dst:ingress ~rate ~propagation:hop () in

  (* Buffer points. *)
  let make_buffer ~ip ~rtt_hint ~env =
    {
      host = Mmt.Buffer_host.create ~env ~capacity:(Units.Size.mib 256) ();
      alive = true;
      ip;
      rtt_hint;
    }
  in
  let router_a = Router.create ~ring () in
  let env_a = Router.env router_a ~engine ~fresh_id ~local_ip:buffer_a_ip in
  let buffer_a = make_buffer ~ip:buffer_a_ip ~rtt_hint:(Units.Time.ms 2.) ~env:env_a in
  let router_b = Router.create ~ring () in
  let env_b = Router.env router_b ~engine ~fresh_id ~local_ip:buffer_b_ip in
  let buffer_b = make_buffer ~ip:buffer_b_ip ~rtt_hint:(Units.Time.ms 4.) ~env:env_b in
  (* Buffer A resends toward the sink via B; B directly. *)
  Router.add router_a sink_ip (Mmt_sim.Link.send a_to_b);
  Router.add router_a ingress_ip (Mmt_sim.Link.send a_to_ing);
  Router.add router_b sink_ip (Mmt_sim.Link.send b_to_sink);
  Router.add router_b ingress_ip (Mmt_sim.Link.send b_to_a);

  (* Ingress: control-plane participant + planned rewriter. *)
  let router_ing = Router.create ~default:(Mmt_sim.Link.send ing_to_a) ~ring () in
  let env_ing = Router.env router_ing ~engine ~fresh_id ~local_ip:ingress_ip in
  let control =
    Mmt_innet.Control_plane.create ~env:env_ing ~period:p.advert_period ~peers:[] ()
  in
  let requirement =
    Mmt_innet.Planner.requirement ~name:"wan/discovered" ~reliability:true
      ~age_budget_us:50_000 ()
  in
  (* Initial plan needs a live map: seed it with both adverts. *)
  Mmt_innet.Resource_map.learn (Mmt_innet.Control_plane.map control)
    ~now:Units.Time.zero
    (Mmt.Buffer_host.advert buffer_a.host ~rtt_hint:buffer_a.rtt_hint);
  Mmt_innet.Resource_map.learn (Mmt_innet.Control_plane.map control)
    ~now:Units.Time.zero
    (Mmt.Buffer_host.advert buffer_b.host ~rtt_hint:buffer_b.rtt_hint);
  let initial_mode =
    match
      Mmt_innet.Planner.plan requirement ~map:(Mmt_innet.Control_plane.map control)
        ~now:Units.Time.zero
    with
    | Ok mode -> mode
    | Error reason -> invalid_arg reason
  in
  let rewriter =
    Mmt_innet.Mode_rewriter.create ~mode:initial_mode
      ~re_encap:(Mmt.Encap.Over_ipv4 { src = ingress_ip; dst = sink_ip; dscp = 0; ttl = 64 })
      ~pool:(Mmt_sim.Ring.pool ring) ()
  in
  let mode_changes = ref 0 in
  (* On a mode change, push the new buffer's advertisement downstream so
     receivers re-aim pending NAKs even if no further data flows. *)
  let announce_new_buffer buffer_ip =
    let entry =
      Mmt_innet.Resource_map.lookup (Mmt_innet.Control_plane.map control) buffer_ip
    in
    Option.iter
      (fun (entry : Mmt_innet.Resource_map.entry) ->
        Mmt.Control.send env_ing ~dst:sink_ip Mmt.Feature.Kind.Buffer_advert
          (Mmt.Control.Buffer_advert.encode entry.Mmt_innet.Resource_map.advert))
      entry
  in
  let rec replan_loop () =
    let now = Mmt_sim.Engine.now engine in
    let before = (Mmt_innet.Mode_rewriter.mode rewriter).Mmt.Mode.retransmit_from in
    (match
       Mmt_innet.Planner.replan_rewriter requirement ~rewriter
         ~map:(Mmt_innet.Control_plane.map control) ~now
     with
    | Ok mode ->
        if
          not
            (Option.equal Addr.Ip.equal before mode.Mmt.Mode.retransmit_from)
        then begin
          incr mode_changes;
          Option.iter announce_new_buffer mode.Mmt.Mode.retransmit_from
        end
    | Error _ -> () (* nothing live yet: keep the old mode *));
    if Units.Time.(now < Units.Time.seconds 10.) then
      ignore
        (Mmt_sim.Engine.schedule_after engine ~delay:p.advert_period (fun () ->
             replan_loop ()))
  in
  (* Advertisement providers respect buffer liveness. *)
  Mmt_innet.Control_plane.add_local control (fun () ->
      if buffer_a.alive then
        Some (Mmt.Buffer_host.advert buffer_a.host ~rtt_hint:buffer_a.rtt_hint)
      else None);
  Mmt_innet.Control_plane.add_local control (fun () ->
      if buffer_b.alive then
        Some (Mmt.Buffer_host.advert buffer_b.host ~rtt_hint:buffer_b.rtt_hint)
      else None);
  Mmt_innet.Control_plane.start control;
  replan_loop ();

  let ingress_route packet =
    let frame = Mmt_sim.Packet.frame packet in
    match Mmt.Encap.locate frame with
    | Ok (Mmt.Encap.Over_ipv4 { dst; _ }, _) when Addr.Ip.equal dst source_ip ->
        (* The source has no control-plane endpoint: the ingress is the
           last holder of source-bound frames. *)
        Some (Mmt_sim.Ring.in_packet_done ring)
    | _ -> Some (Mmt_sim.Link.send ing_to_a)
  in
  let _ingress_switch =
    Mmt_innet.Switch.attach ~engine ~node:ingress ~profile:Mmt_innet.Switch.tofino2 ~ring
      ~elements:[ Mmt_innet.Mode_rewriter.element rewriter ]
      ~route:ingress_route ()
  in

  (* Buffer nodes: snoop + local NAK service. *)
  let buffer_route (point : buffer_point) ~forward packet =
    let frame = Mmt_sim.Packet.frame packet in
    match Mmt.Encap.locate frame with
    | Ok (Mmt.Encap.Over_ipv4 { dst; _ }, off) -> (
        match Mmt.Header.View.of_frame ~off frame with
        | Ok view
          when Mmt.Header.View.kind view = Mmt.Feature.Kind.Nak
               && Addr.Ip.equal dst point.ip ->
            Some
              (fun packet ->
                if point.alive then Mmt.Buffer_host.on_packet point.host packet
                else Mmt_sim.Ring.in_packet_done ring packet)
        | _ -> Some forward)
    | _ -> Some forward
  in
  let _switch_a =
    Mmt_innet.Switch.attach ~engine ~node:node_a ~profile:Mmt_innet.Switch.alveo_smartnic
      ~ring ~elements:[ snoop_element buffer_a ]
      ~route:(fun packet ->
        (* NAKs for B travel sink -> B directly; anything for the
           ingress goes upstream. *)
        let frame = Mmt_sim.Packet.frame packet in
        match Mmt.Encap.locate frame with
        | Ok (Mmt.Encap.Over_ipv4 { dst; _ }, _)
          when Addr.Ip.equal dst ingress_ip || Addr.Ip.equal dst source_ip ->
            Some (Mmt_sim.Link.send a_to_ing)
        | _ -> buffer_route buffer_a ~forward:(Mmt_sim.Link.send a_to_b) packet)
      ()
  in
  let _switch_b =
    Mmt_innet.Switch.attach ~engine ~node:node_b ~profile:Mmt_innet.Switch.alveo_smartnic
      ~ring ~elements:[ snoop_element buffer_b ]
      ~route:(fun packet ->
        let frame = Mmt_sim.Packet.frame packet in
        match Mmt.Encap.locate frame with
        | Ok (Mmt.Encap.Over_ipv4 { dst; _ }, _)
          when Addr.Ip.equal dst buffer_a_ip || Addr.Ip.equal dst ingress_ip
               || Addr.Ip.equal dst source_ip ->
            Some (Mmt_sim.Link.send b_to_a)
        | _ -> buffer_route buffer_b ~forward:(Mmt_sim.Link.send b_to_sink) packet)
      ()
  in

  (* Sink: receiver; NAKs toward whichever buffer the header names. *)
  let router_sink = Router.create ~ring () in
  Router.add router_sink buffer_a_ip (Mmt_sim.Link.send sink_to_b);
  Router.add router_sink buffer_b_ip (Mmt_sim.Link.send sink_to_b);
  Router.add router_sink ingress_ip (Mmt_sim.Link.send sink_to_b);
  Router.add router_sink source_ip (Mmt_sim.Link.send sink_to_b);
  let env_sink = Router.env router_sink ~engine ~fresh_id ~local_ip:sink_ip in
  let receiver =
    Mmt.Receiver.create ~env:env_sink
      {
        Mmt.Receiver.experiment;
        nak_delay = Units.Time.ms 1.;
        nak_retry_timeout = Units.Time.ms 15.;
        max_nak_retries = 10;
        expected_total = Some p.fragment_count;
      }
      ~deliver:(fun _ _ -> ())
  in
  Mmt_sim.Node.set_handler sink (Mmt.Receiver.on_packet receiver);

  (* The control plane participant also lives at the ingress node — but
     adverts are local (peers = []); the map is fed by the providers.
     Failure injection: buffer A dies — expressed as a declarative
     fault plan armed through the deterministic injector. *)
  let injector = Mmt_fault.Injector.of_topology topo in
  Mmt_fault.Injector.register_element injector "buffer-a"
    ~fail:(fun () ->
      buffer_a.alive <- false;
      (* Hard failure: its soft state must also disappear from
         the map as if adverts stopped reaching the ingress. *)
      ignore
        (Mmt_innet.Resource_map.expire
           (Mmt_innet.Control_plane.map control)
           ~now:(Mmt_sim.Engine.now engine)))
    ~restart:(fun () -> buffer_a.alive <- true);
  Option.iter
    (fun at ->
      Mmt_fault.Injector.arm injector
        (Mmt_fault.Plan.make
           [ Mmt_fault.Plan.event ~at (Mmt_fault.Plan.Fail_element "buffer-a") ]))
    p.fail_buffer_a_at;

  (* Source: mode-0 sender. *)
  let router_src = Router.create ~default:(Mmt_sim.Link.send src_to_ing) ~ring () in
  let env_src = Router.env router_src ~engine ~fresh_id ~local_ip:source_ip in
  let sender =
    Mmt.Sender.create ~env:env_src
      {
        Mmt.Sender.experiment;
        destination = sink_ip;
        encap = Mmt.Encap.Raw;
        deadline_budget = None;
        backpressure_to = None;
        pace = None;
        padding = 0;
      }
  in
  let payload = Bytes.make (Units.Size.to_bytes p.fragment_size) '\xEE' in
  let gap = Units.Rate.transmission_time (Units.Rate.scale rate 0.1) p.fragment_size in
  for i = 0 to p.fragment_count - 1 do
    ignore
      (Mmt_sim.Engine.schedule engine
         ~at:(Units.Time.scale gap (float_of_int i))
         (fun () -> Mmt.Sender.send sender payload))
  done;
  Mmt_sim.Engine.run ~until:(Units.Time.seconds 12.) engine;
  Mmt_innet.Control_plane.stop control;
  let stats = Mmt.Receiver.stats receiver in
  let a_stats = Mmt.Buffer_host.stats buffer_a.host in
  let b_stats = Mmt.Buffer_host.stats buffer_b.host in
  {
    delivered = stats.Mmt.Receiver.delivered;
    recovered = stats.Mmt.Receiver.recovered;
    lost = stats.Mmt.Receiver.lost;
    naks_served_by_a = a_stats.Mmt.Buffer_host.frames_resent;
    naks_served_by_b = b_stats.Mmt.Buffer_host.frames_resent;
    mode_changes = !mode_changes;
    final_buffer =
      (match (Mmt_innet.Mode_rewriter.mode rewriter).Mmt.Mode.retransmit_from with
      | Some ip when Addr.Ip.equal ip buffer_a_ip -> "A"
      | Some ip when Addr.Ip.equal ip buffer_b_ip -> "B"
      | Some _ -> "other"
      | None -> "none");
    adverts_received = (Mmt_innet.Control_plane.stats control).Mmt_innet.Control_plane.adverts_received;
    receiver = stats;
  }
