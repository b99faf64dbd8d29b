open Mmt_util
open Mmt_frame
module Router = Mmt_innet.Router

type defect = No_defect | Broken_restart

type params = {
  fragment_count : int;
  fragment_size : Units.Size.t;
  loss : float;
  advert_period : Units.Time.t;
  run_until : Units.Time.t;
  seed : int64;
  track_total : bool;
  defect : defect;
  plan : Mmt_fault.Plan.t;
}

let params ?(fragment_count = 6000) ?(loss = 0.002)
    ?(advert_period = Units.Time.ms 5.) ?(run_until = Units.Time.seconds 12.)
    ?(seed = 47L) ?(track_total = true) ?(defect = No_defect)
    ?(plan = Mmt_fault.Plan.empty) () =
  {
    fragment_count;
    fragment_size = Units.Size.bytes 4096;
    loss;
    advert_period;
    run_until;
    seed;
    track_total;
    defect;
    plan;
  }

type pass_counts = {
  switch : string;
  processed : int;
  parses : int;
  refreshes : int;
}

type outcome = {
  emitted : int;  (** sequence numbers assigned by the ingress rewriter *)
  delivered : int;
  degraded_delivered : int;  (** delivered unsequenced (degraded mode) *)
  recovered : int;
  lost : int;
  unrecoverable : int;
  resurrected : int;
  duplicates : int;
  checksum_failed_rx : int;
  verify_failed_innet : int;
  tampered : int;
  fault_drops : int;
  degraded_rewrites : int;
  mode_changes : int;
  final_buffer : string;
  naks_served_by_a : int;
  naks_served_by_b : int;
  goodput : Units.Rate.t;
  completion : Units.Time.t option;
  faults_applied : int;
  fault_log : (Units.Time.t * string) list;
  events : int;
  invariant : Mmt_fault.Invariant.outcome;
  violations : string list;
  receiver : Mmt.Receiver.stats;
  passes : pass_counts list;
  compiled_transitions : int;
}

let source_ip = Addr.Ip.of_octets 10 9 0 1
let ingress_ip = Addr.Ip.of_octets 10 9 0 2
let buffer_a_ip = Addr.Ip.of_octets 10 9 0 3
let buffer_b_ip = Addr.Ip.of_octets 10 9 0 4
let sink_ip = Addr.Ip.of_octets 10 9 0 5

let experiment = Mmt.Experiment_id.make ~experiment:9 ~slice:0

(* A restartable buffer point: fail-stop loses the host's entire
   retransmission memory — a restart builds a {e fresh}
   {!Mmt.Buffer_host}, exactly like a process that came back with an
   empty [Retx_buffer]. *)
type buffer_point = {
  mutable host : Mmt.Buffer_host.t;
  mutable alive : bool;
  ip : Addr.Ip.t;
  rtt_hint : Units.Time.t;
  env : Mmt_runtime.Env.t;
}

let snoop_element (point : buffer_point) =
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
           let hv = Mmt.Header_vector.of_packet packet in
           let view = Mmt.Header_vector.view hv in
           if
             Mmt.Header_vector.parsed hv
             && Mmt.Header.View.kind view = Mmt.Feature.Kind.Data
             && Mmt.Header.View.has view Mmt.Feature.Sequenced
           then
             Mmt.Buffer_host.store_packet point.host
               ~seq:(Mmt.Header.View.sequence view) packet);
        Mmt_innet.Element.Forward packet);
  }

let pass_counts (name, switch) =
  {
    switch = name;
    processed = (Mmt_innet.Switch.stats switch).Mmt_innet.Switch.processed;
    parses = Mmt_innet.Switch.parses switch;
    refreshes = Mmt_innet.Switch.refreshes switch;
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
  let src_to_ing =
    Mmt_sim.Topology.connect topo ~src ~dst:ingress ~rate
      ~propagation:(Units.Time.us 10.) ()
  in
  let ing_to_a =
    Mmt_sim.Topology.connect topo ~src:ingress ~dst:node_a ~rate
      ~propagation:hop ()
  in
  let a_to_b =
    Mmt_sim.Topology.connect topo ~src:node_a ~dst:node_b ~rate
      ~propagation:hop ()
  in
  let b_to_sink =
    Mmt_sim.Topology.connect topo ~src:node_b ~dst:sink ~rate ~propagation:hop
      ~loss:(Mmt_sim.Loss.bernoulli ~drop:p.loss ~corrupt:0. ~rng:loss_rng)
      ()
  in
  (* Reverse path for NAKs / control. *)
  let sink_to_b =
    Mmt_sim.Topology.connect topo ~src:sink ~dst:node_b ~rate ~propagation:hop
      ()
  in
  let b_to_a =
    Mmt_sim.Topology.connect topo ~src:node_b ~dst:node_a ~rate
      ~propagation:hop ()
  in
  let a_to_ing =
    Mmt_sim.Topology.connect topo ~src:node_a ~dst:ingress ~rate
      ~propagation:hop ()
  in

  (* Buffer points. *)
  let make_buffer ~ip ~rtt_hint ~env =
    {
      host = Mmt.Buffer_host.create ~env ~capacity:(Units.Size.mib 256) ();
      alive = true;
      ip;
      rtt_hint;
      env;
    }
  in
  let router_a = Router.create ~ring 4 in
  let env_a = Router.env router_a ~engine ~fresh_id ~local_ip:buffer_a_ip in
  let buffer_a =
    make_buffer ~ip:buffer_a_ip ~rtt_hint:(Units.Time.ms 2.) ~env:env_a
  in
  let router_b = Router.create ~ring 5 in
  let env_b = Router.env router_b ~engine ~fresh_id ~local_ip:buffer_b_ip in
  let buffer_b =
    make_buffer ~ip:buffer_b_ip ~rtt_hint:(Units.Time.ms 4.) ~env:env_b
  in

  (* Ingress: control-plane participant + planned, liveness-aware,
     checksumming rewriter. *)
  let router_ing = Router.create ~default:(Mmt_sim.Link.send ing_to_a) ~ring 1 in
  let env_ing = Router.env router_ing ~engine ~fresh_id ~local_ip:ingress_ip in
  let control =
    Mmt_innet.Control_plane.create ~env:env_ing ~period:p.advert_period
      ~peers:[] ()
  in
  let map = Mmt_innet.Control_plane.map control in
  let requirement =
    Mmt_innet.Planner.requirement ~name:"wan/chaos" ~reliability:true
      ~checksummed:true ()
  in
  Mmt_innet.Resource_map.learn map ~now:Units.Time.zero
    (Mmt.Buffer_host.advert buffer_a.host ~rtt_hint:buffer_a.rtt_hint);
  Mmt_innet.Resource_map.learn map ~now:Units.Time.zero
    (Mmt.Buffer_host.advert buffer_b.host ~rtt_hint:buffer_b.rtt_hint);
  let boot_mode =
    match Mmt_innet.Planner.plan requirement ~map ~now:Units.Time.zero with
    | Ok mode -> mode
    | Error reason -> invalid_arg reason
  in
  (* When the named buffer has lapsed, the oracle replans at once
     rather than at the next tick, and answers for the buffer the mode
     then names: frames degrade only while no buffer is live.  [replan]
     needs the rewriter, so the oracle reaches it through [replan_now]. *)
  let replan_now = ref (fun () -> None) in
  let rewriter =
    Mmt_innet.Mode_rewriter.create ~mode:boot_mode
      ~re_encap:
        (Mmt.Encap.Over_ipv4 { src = ingress_ip; dst = sink_ip; dscp = 0; ttl = 64 })
      ~pool:(Mmt_sim.Ring.pool ring)
      ~liveness:(fun ip ~now ->
        let live = Mmt_innet.Resource_map.is_live map ~now in
        live ip || Option.fold ~none:false ~some:live (!replan_now ()))
      ()
  in
  let mode_changes = ref 0 in
  let announce_new_buffer buffer_ip =
    let entry = Mmt_innet.Resource_map.lookup map buffer_ip in
    Option.iter
      (fun (entry : Mmt_innet.Resource_map.entry) ->
        Mmt.Control.send env_ing ~dst:sink_ip Mmt.Feature.Kind.Buffer_advert
          (Mmt.Control.Buffer_advert.encode entry.Mmt_innet.Resource_map.advert))
      entry
  in
  (* Plan from the live map and re-point the rewriter; a new buffer is
     counted and announced downstream.  Returns the buffer the mode
     names afterwards. *)
  let replan () =
    let named () =
      (Mmt_innet.Mode_rewriter.mode rewriter).Mmt.Mode.retransmit_from
    in
    let before = named () in
    (match
       Mmt_innet.Planner.replan_rewriter requirement ~rewriter ~map
         ~now:(Mmt_sim.Engine.now engine)
     with
    | Ok mode
      when not (Option.equal Addr.Ip.equal before mode.Mmt.Mode.retransmit_from)
      ->
        incr mode_changes;
        Option.iter announce_new_buffer mode.Mmt.Mode.retransmit_from
    | Ok _ | Error _ -> () (* same buffer, or none live: keep the mode *));
    named ()
  in
  replan_now := replan;
  let rec replan_loop () =
    ignore (replan ());
    if Units.Time.(Mmt_sim.Engine.now engine < p.run_until) then
      ignore
        (Mmt_sim.Engine.schedule_after engine ~delay:p.advert_period replan_loop)
  in
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

  (* Ingress switch: fail-stoppable gate ahead of the rewriter. *)
  let rewriter_alive = ref true in
  let gate =
    {
      Mmt_innet.Element.name = "ingress-gate";
      program = { Mmt_innet.Op.name = "ingress-gate"; ops = [] };
      process =
        (fun ~now:_ packet ->
          if !rewriter_alive then Mmt_innet.Element.Forward packet
          else Mmt_innet.Element.Discard "ingress-gate: element failed");
    }
  in
  (* The source has no control-plane endpoint: the ingress is the last
     holder of source-bound frames. *)
  Router.add router_ing source_ip (Mmt_sim.Ring.in_packet_done ring);
  let ingress_switch =
    Mmt_innet.Switch.attach ~engine ~node:ingress
      ~profile:Mmt_innet.Switch.tofino2 ~router:router_ing
      ~elements:[ gate; Mmt_innet.Mode_rewriter.element rewriter ]
      ()
  in

  (* Buffer nodes: checksum verification ahead of the snoop, so frames
     corrupted upstream never enter retransmission memory. *)
  let verify_a = Mmt_innet.Checksum_verify.create () in
  let verify_b = Mmt_innet.Checksum_verify.create () in
  (* A buffer node's table sends upstream-bound frames back, hands the
     frames addressed to it to its buffer host (retiring them while the
     host is down), and forwards sink-bound frames. *)
  let buffer_switch node router (point : buffer_point) verify ~upstream ~back
      ~forward =
    let back = Mmt_sim.Link.send back in
    List.iter (fun ip -> Router.add router ip back) upstream;
    Router.add router sink_ip (Mmt_sim.Link.send forward);
    Router.add router point.ip (fun packet ->
        if point.alive then Mmt.Buffer_host.on_packet point.host packet
        else Mmt_sim.Ring.in_packet_done ring packet);
    Mmt_innet.Switch.attach ~engine ~node
      ~profile:Mmt_innet.Switch.alveo_smartnic ~router
      ~elements:[ Mmt_innet.Checksum_verify.element verify; snoop_element point ]
      ()
  in
  let switch_a =
    buffer_switch node_a router_a buffer_a verify_a
      ~upstream:[ ingress_ip; source_ip ] ~back:a_to_ing ~forward:a_to_b
  in
  let switch_b =
    buffer_switch node_b router_b buffer_b verify_b
      ~upstream:[ buffer_a_ip; ingress_ip; source_ip ]
      ~back:b_to_a ~forward:b_to_sink
  in

  (* Sink: receiver wrapped in the invariant ledger. *)
  let router_sink = Router.create ~default:(Mmt_sim.Link.send sink_to_b) ~ring 0 in
  let env_sink = Router.env router_sink ~engine ~fresh_id ~local_ip:sink_ip in
  let ledger = Mmt_fault.Invariant.ledger () in
  let degraded_delivered = ref 0 in
  let receiver =
    Mmt.Receiver.create ~env:env_sink
      {
        Mmt.Receiver.experiment;
        nak_delay = Units.Time.ms 1.;
        nak_retry_timeout = Units.Time.ms 15.;
        max_nak_retries = 10;
        expected_total = (if p.track_total then Some p.fragment_count else None);
      }
      ~deliver:(fun meta _payload ->
        match meta.Mmt.Receiver.sequence with
        | Some seq -> Mmt_fault.Invariant.delivered ledger ~seq
        | None -> incr degraded_delivered)
  in
  Mmt_sim.Node.set_handler sink (Mmt.Receiver.on_packet receiver);

  (* The fault plan. *)
  let injector = Mmt_fault.Injector.of_topology ~seed:0xFA17L topo in
  Mmt_fault.Injector.register_element injector "buffer-a"
    ~fail:(fun () -> buffer_a.alive <- false)
    ~restart:(fun () ->
      (* State loss: the restarted host has an empty Retx_buffer. *)
      buffer_a.host <-
        Mmt.Buffer_host.create ~env:buffer_a.env ~capacity:(Units.Size.mib 256)
          ();
      buffer_a.alive <- true;
      (* Test-only planted bug: a "restart handler" that replays a
         frame into the application.  Any plan containing this restart
         then violates the no-duplicate-delivery invariant, giving the
         shrinker a deterministic target to converge on. *)
      if p.defect = Broken_restart then
        Mmt_fault.Invariant.delivered ledger ~seq:0);
  Mmt_fault.Injector.register_element injector "buffer-b"
    ~fail:(fun () -> buffer_b.alive <- false)
    ~restart:(fun () ->
      buffer_b.host <-
        Mmt.Buffer_host.create ~env:buffer_b.env ~capacity:(Units.Size.mib 256)
          ();
      buffer_b.alive <- true);
  Mmt_fault.Injector.register_element injector "ingress-rewriter"
    ~fail:(fun () -> rewriter_alive := false)
    ~restart:(fun () ->
      rewriter_alive := true;
      (* Boot-mode revert: a restarted element forgets control-plane
         reconfiguration; the replan loop re-points it. *)
      ignore (Mmt_innet.Mode_rewriter.set_mode rewriter boot_mode));
  Mmt_fault.Injector.register_control injector "control"
    (Mmt_innet.Control_plane.set_blackholed control);
  Mmt_fault.Injector.arm injector p.plan;

  (* Source: mode-0 sender. *)
  let router_src = Router.create ~default:(Mmt_sim.Link.send src_to_ing) ~ring 0 in
  let env_src = Router.env router_src ~engine ~fresh_id ~local_ip:source_ip in
  let sender =
    Mmt.Sender.create ~env:env_src
      {
        Mmt.Sender.experiment;
        destination = sink_ip;
        encap = Mmt.Encap.Raw;
        deadline_budget = None;
      }
  in
  (* A header parse reads at most [Header.max_size] bytes from the
     header's start, whatever feature bits a flip sets, so only that many
     payload bytes are real: a header grown into the payload reads the
     same 0xEE bytes as over a whole materialized payload.  The rest
     travels as wire padding. *)
  let size = Units.Size.to_bytes p.fragment_size in
  let prefix = Bytes.make (Int.min size Mmt.Header.max_size) '\xEE' in
  let padding = size - Bytes.length prefix in
  let gap =
    Units.Rate.transmission_time (Units.Rate.scale rate 0.1) p.fragment_size
  in
  for i = 0 to p.fragment_count - 1 do
    ignore
      (Mmt_sim.Engine.schedule engine
         ~at:(Units.Time.scale gap (float_of_int i))
         (fun () ->
           Mmt.Sender.send_with sender ~padding ~length:(Bytes.length prefix)
             (fun w -> Mmt_wire.Cursor.Writer.bytes w prefix)))
  done;
  (* Watchdog-bounded run: a fault mix that provoked a zero-delay
     event livelock would spin a pure time cap forever; the budget of
     20M events, orders of magnitude above any honest trial, turns that
     into a checkable "run did not terminate" violation. *)
  let terminated =
    Mmt_sim.Engine.run_bounded engine ~until:p.run_until ~budget:20_000_000
  in
  Mmt_innet.Control_plane.stop control;

  let stats = Mmt.Receiver.stats receiver in
  let rw = Mmt_innet.Mode_rewriter.stats rewriter in
  let a_stats = Mmt.Buffer_host.stats buffer_a.host in
  let b_stats = Mmt.Buffer_host.stats buffer_b.host in
  let va = Mmt_innet.Checksum_verify.stats verify_a in
  let vb = Mmt_innet.Checksum_verify.stats verify_b in
  let link_stats =
    List.map Mmt_sim.Link.stats
      [ src_to_ing; ing_to_a; a_to_b; b_to_sink; sink_to_b; b_to_a; a_to_ing ]
  in
  let tampered =
    List.fold_left (fun acc (s : Mmt_sim.Link.stats) -> acc + s.tampered) 0
      link_stats
  in
  let fault_drops =
    List.fold_left (fun acc (s : Mmt_sim.Link.stats) -> acc + s.fault_drops) 0
      link_stats
  in
  (* Frames a dead buffer point dropped NAKs for are accounted by the
     receiver as lost/unrecoverable; here we reconcile the ledger. *)
  let invariant =
    Mmt_fault.Invariant.outcome
      ~emitted:rw.Mmt_innet.Mode_rewriter.sequenced
      ~abandoned:(stats.Mmt.Receiver.lost + stats.Mmt.Receiver.unrecoverable)
      ~resurrected:stats.Mmt.Receiver.resurrected
      ~pending:stats.Mmt.Receiver.still_missing ~terminated ledger
  in
  let violations = Mmt_fault.Invariant.check invariant in
  {
    emitted = rw.Mmt_innet.Mode_rewriter.sequenced;
    delivered = stats.Mmt.Receiver.delivered;
    degraded_delivered = !degraded_delivered;
    recovered = stats.Mmt.Receiver.recovered;
    lost = stats.Mmt.Receiver.lost;
    unrecoverable = stats.Mmt.Receiver.unrecoverable;
    resurrected = stats.Mmt.Receiver.resurrected;
    duplicates = stats.Mmt.Receiver.duplicates;
    checksum_failed_rx = stats.Mmt.Receiver.checksum_failed;
    verify_failed_innet =
      va.Mmt_innet.Checksum_verify.failed + vb.Mmt_innet.Checksum_verify.failed;
    tampered;
    fault_drops;
    degraded_rewrites = rw.Mmt_innet.Mode_rewriter.degraded;
    mode_changes = !mode_changes;
    final_buffer =
      (match
         (Mmt_innet.Mode_rewriter.mode rewriter).Mmt.Mode.retransmit_from
       with
      | Some ip when Addr.Ip.equal ip buffer_a_ip -> "A"
      | Some ip when Addr.Ip.equal ip buffer_b_ip -> "B"
      | Some _ -> "other"
      | None -> "none");
    naks_served_by_a = a_stats.Mmt.Buffer_host.frames_resent;
    naks_served_by_b = b_stats.Mmt.Buffer_host.frames_resent;
    goodput = Mmt.Receiver.goodput receiver;
    completion = stats.Mmt.Receiver.completion;
    faults_applied = Mmt_fault.Injector.applied injector;
    fault_log = Mmt_fault.Injector.log injector;
    events = Mmt_sim.Engine.processed engine;
    invariant;
    violations;
    receiver = stats;
    passes =
      List.map pass_counts
        [ ("ingress", ingress_switch); ("buffer-a", switch_a); ("buffer-b", switch_b) ];
    compiled_transitions = Mmt_innet.Mode_rewriter.compiled rewriter;
  }

(* ------------------------------------------------------------------ *)
(* Campaign wiring: the pilot as a fuzzing target.                     *)

(* Campaign trials are deliberately smaller than the hand-written E-R1
   scenarios — a quarter of the fragments and a 1 s cap — so thousands
   of them stay cheap; the 1 s cap still dominates the worst NAK-retry
   chain (10 x 15 ms) by a wide margin. *)
let campaign_trial ?(fragment_count = 1500) () =
  params ~fragment_count ~run_until:(Units.Time.seconds 1.) ()

(* Degrading-profile base: random loss off and totals untracked (the
   sequenced stream is legitimately short when frames degrade), and a
   fast advert cadence so soft state (TTL = 4 periods) can actually
   expire inside the fault horizon — with the default 5 ms period the
   20 ms TTL outlives the whole emission span and a blackhole would be
   a no-op. *)
let campaign_trial_degrading ?(fragment_count = 1500) () =
  params ~fragment_count ~run_until:(Units.Time.seconds 1.) ~loss:0.
    ~track_total:false
    ~advert_period:(Units.Time.us 400.)
    ()

let failover_trial ?(fragment_count = 12000) ?fail_at () =
  let plan =
    match fail_at with
    | None -> Mmt_fault.Plan.empty
    | Some at ->
        Mmt_fault.Plan.make
          [ Mmt_fault.Plan.event ~at (Mmt_fault.Plan.Fail_element "buffer-a") ]
  in
  params ~fragment_count ~loss:0.005 ~seed:31L ~plan ()

let emission_span (p : params) =
  let gap =
    Units.Rate.transmission_time
      (Units.Rate.scale (Units.Rate.gbps 100.) 0.1)
      p.fragment_size
  in
  Units.Time.scale gap (float_of_int p.fragment_count)

(* Every name below is resolved against the topology [run] builds:
   links carry the auto-assigned "src->dst" names, elements and the
   control plane the names registered with the injector.  The
   partition between the plain pools and the degrading-only pools is
   the accounting argument from the module docs: faults ahead of the
   ingress rewriter shrink the sequenced stream itself, which tracked
   totals would misread as tail loss. *)
let campaign_universe (p : params) =
  {
    Mmt_fault.Generator.horizon = Units.Time.scale (emission_span p) 0.75;
    flap_links =
      [
        "ingress->buffer-a"; "buffer-a->buffer-b"; "buffer-b->sink";
        "sink->buffer-b"; "buffer-b->buffer-a"; "buffer-a->ingress";
      ];
    degrade_links =
      [
        "ingress->buffer-a"; "buffer-a->buffer-b"; "buffer-b->sink";
        "sink->buffer-b";
      ];
    partitions =
      [
        [ "buffer-b->sink"; "sink->buffer-b" ];
        [ "buffer-a->buffer-b"; "buffer-b->buffer-a" ];
        [ "ingress->buffer-a"; "buffer-a->ingress" ];
      ];
    corrupt_links = [ "buffer-a->buffer-b"; "buffer-b->sink" ];
    restart_elements = [ "buffer-a"; "buffer-b" ];
    degrading_flaps = [ "source->ingress" ];
    degrading_degrades = [ "source->ingress" ];
    degrading_elements = [ "ingress-rewriter" ];
    controls = [ "control" ];
  }

let campaign_exec (o : outcome) =
  {
    Mmt_fault.Campaign.outcome = o.invariant;
    violations = o.violations;
    faults_applied = o.faults_applied;
    events = o.events;
  }

let campaign_target ?fragment_count ?(defect = No_defect) () =
  let lossy = { (campaign_trial ?fragment_count ()) with defect } in
  let degrading =
    { (campaign_trial_degrading ?fragment_count ()) with defect }
  in
  {
    Mmt_fault.Campaign.name =
      (match defect with
      | No_defect -> "pilot"
      | Broken_restart -> "pilot+broken-restart");
    universe = campaign_universe lossy;
    execute =
      (fun profile plan ->
        let base =
          match profile with
          | Mmt_fault.Generator.Lossy -> lossy
          | Mmt_fault.Generator.Degrading -> degrading
        in
        campaign_exec (run { base with plan }));
  }
