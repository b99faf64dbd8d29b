open Mmt_util

(* The facility as a chaos-campaign target.

   Scaled down from the E-F5 configurations (a few dozen flows, an
   8 ms emission window) so hundreds of trials stay cheap, and with
   random WAN loss off: in the facility the receivers run without
   delivery totals ([expected_total = None]), so a frame destroyed
   with no later sequenced arrival behind it would sit in ledger limbo
   forever.  Two measures close that hole.  First, every fault the
   universe offers ends by the horizon (0.7 of the emission window),
   well before emission stops.  Second, because a Poisson burst flow
   may emit its real last fragment early, the harness pushes one
   tail-probe frame per flow through the (hoisted) senders after the
   emission window — a guaranteed later sequenced arrival that flushes
   gap detection on every flow, whatever the workload shape did.

   Campaign parallelism comes from running whole trials on sibling
   domains. *)

let scenario =
  {
    Scenario.default with
    flows = 36;
    sites = 3;
    sinks = 3;
    duration = Units.Time.ms 8.;
    wan_rtt = Units.Time.ms 4.;
    wan_loss = 0.;
  }

(* One ledger spans every flow: sequences are per-flow (each site-edge
   rewriter numbers its own stream), so the key interleaves the flow
   id above the sequence number.  The stride bounds per-flow emission;
   an 8 ms window is ~3 orders of magnitude below it. *)
let flow_key_stride = 1_000_000

let universe =
  let s = scenario in
  let nsites = Array.length (Scenario.site_spans s) in
  let metro_ups =
    List.init nsites (fun i -> Printf.sprintf "site-edge%d->edge-in" i)
  in
  let metro_downs =
    List.init nsites (fun i -> Printf.sprintf "edge-in->site-edge%d" i)
  in
  let sink_links =
    List.init s.Scenario.sinks (fun m -> Printf.sprintf "edge-out->sink%d" m)
  in
  let metro_pairs =
    List.init nsites (fun i ->
        [
          Printf.sprintf "site-edge%d->edge-in" i;
          Printf.sprintf "edge-in->site-edge%d" i;
        ])
  in
  {
    Mmt_fault.Generator.horizon = Units.Time.scale s.Scenario.duration 0.7;
    (* Everything after sequencing is fair game: the data path (metro
       up, WAN, sink last hops) is buffered for retransmission at the
       site edge, and the NAK path (reverse WAN, metro down) is
       re-requested on the receivers' retry timers. *)
    flap_links =
      ("edge-in->edge-out" :: "edge-out->edge-in" :: metro_ups)
      @ metro_downs @ sink_links;
    degrade_links = ("edge-in->edge-out" :: metro_ups) @ sink_links;
    partitions =
      [ "edge-in->edge-out"; "edge-out->edge-in" ] :: metro_pairs;
    (* Facility frames cross the WAN unchecksummed, so corruption
       would be silent; element and control faults need scenario
       handlers the facility does not register.  All of that stays
       out of the universe, which also pins the profile to lossy. *)
    corrupt_links = [];
    restart_elements = [];
    degrading_flaps = [];
    degrading_degrades = [];
    degrading_elements = [];
    controls = [];
  }

type outcome = {
  emitted : int;
  delivered : int;
  faults_applied : int;
  events : int;
  invariant : Mmt_fault.Invariant.outcome;
  violations : string list;
}

let run plan =
  let s = scenario in
  let ledger = Mmt_fault.Invariant.ledger () in
  let on_deliver ~flow ~seq =
    match seq with
    | Some seq ->
        Mmt_fault.Invariant.delivered ledger
          ~seq:((flow * flow_key_stride) + seq)
    | None -> ()
  in
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let built = Scenario.build ~on_deliver s topo in
  let injector = Mmt_fault.Injector.of_topology topo in
  Mmt_fault.Injector.arm injector plan;
  (* Tail probes: one extra sequenced frame per flow, 1 ms after
     emission ends (and after every fault window has closed). *)
  let probe_at = Units.Time.add s.Scenario.duration (Units.Time.ms 1.) in
  for f = 0 to s.Scenario.flows - 1 do
    let sender = Option.get (Flow_table.get built.Scenario.senders f) in
    ignore
      (Mmt_sim.Engine.schedule engine ~at:probe_at (fun () ->
           Mmt.Sender.send sender (Bytes.make 64 '\xa5')))
  done;
  let until = Units.Time.add s.Scenario.duration (Units.Time.seconds 1.) in
  (* A budget of 50M events marks a livelocked run non-terminated. *)
  let terminated = Mmt_sim.Engine.run_bounded engine ~until ~budget:50_000_000 in
  let emitted = ref 0
  and delivered = ref 0
  and abandoned = ref 0
  and resurrected = ref 0
  and pending = ref 0 in
  for f = 0 to s.Scenario.flows - 1 do
    let rw =
      Mmt_innet.Mode_rewriter.stats
        (Option.get (Flow_table.get built.Scenario.rewriters f))
    in
    let r =
      Mmt.Receiver.stats (Option.get (Flow_table.get built.Scenario.receivers f))
    in
    emitted := !emitted + rw.Mmt_innet.Mode_rewriter.sequenced;
    delivered := !delivered + r.Mmt.Receiver.delivered;
    abandoned := !abandoned + r.Mmt.Receiver.lost + r.Mmt.Receiver.unrecoverable;
    resurrected := !resurrected + r.Mmt.Receiver.resurrected;
    pending := !pending + r.Mmt.Receiver.still_missing
  done;
  let invariant =
    Mmt_fault.Invariant.outcome ~emitted:!emitted ~abandoned:!abandoned
      ~resurrected:!resurrected ~pending:!pending ~terminated ledger
  in
  {
    emitted = !emitted;
    delivered = !delivered;
    faults_applied = Mmt_fault.Injector.applied injector;
    events = Mmt_sim.Engine.processed engine;
    invariant;
    violations = Mmt_fault.Invariant.check invariant;
  }

let campaign_target () =
  {
    Mmt_fault.Campaign.name = "facility";
    universe;
    execute =
      (fun _profile plan ->
        let o = run plan in
        {
          Mmt_fault.Campaign.outcome = o.invariant;
          violations = o.violations;
          faults_applied = o.faults_applied;
          events = o.events;
        });
  }
