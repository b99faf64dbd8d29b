(* The benchmark's four whole-run workloads.  Each is built from
   [~scale] (1.0 = the benchmark's size) and [~seed], run once, and read
   back through the layers' public results and stats only: the bench
   never reaches inside a layer and passes no mode option
   ([?fusing]/[?pooling]/[?shards]/[?pool]/[?jobs]), so it measures the
   default code paths. *)

open Mmt_util
module Engine = Mmt_sim.Engine
module Pilot = Mmt_pilot.Pilot
module Scenario = Mmt_facility.Scenario
module Flow_table = Mmt_facility.Flow_table
module Metrics = Mmt_facility.Metrics
module Campaign = Mmt_fault.Campaign

(* What one repetition reports after its run.  [counts] are the
   per-layer counts read from public stats: exact and deterministic for
   a given seed; a count a workload cannot observe from outside is
   absent and reads as 0. *)
type outcome = {
  attempted : int;  (** operations the workload attempted *)
  failed : int;  (** of which failed *)
  delivered : int;  (** application deliveries; 0 when not observable *)
  sim_ns : int;  (** simulated span; 0 when not observable *)
  digest : string;  (** hex digest of the simulated outputs *)
  counts : (string * int) list;
  fragment_bytes : int;  (** mean message size the DAQ layer emitted *)
}

type instance = {
  run : Tracer.t option -> unit;
      (** the run phase; with a tracer, the traced variant *)
  readout : unit -> outcome;
}

type t = {
  name : string;
  op : string;  (** what [attempted] counts *)
  pilot_mode : bool;
      (** its unit costs rewrite into the pilot's WAN mode rather than
          the facility edge's *)
  build : scale:float -> seed:int -> instance;
  harness : scale:float -> seed:int -> string option;
      (** harness equivalence: the bench's own harness must reproduce the
          library's entry point; [Some mismatch] when it does not *)
}

let scaled scale n = Stdlib.max 1 (int_of_float (Float.round (float_of_int n *. scale)))
let hex_string s = Digest.to_hex (Digest.string s)
let hex_digest value = hex_string (Marshal.to_string value [ Marshal.No_sharing ])
let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let no_harness ~scale:_ ~seed:_ = None

let link_counts stats =
  [
    ("link.hops", sum (fun s -> s.Mmt_sim.Link.delivered) stats);
    ("link.queue_drops", sum (fun s -> s.Mmt_sim.Link.queue_drops) stats);
    ("link.loss_drops", sum (fun s -> s.Mmt_sim.Link.loss_drops) stats);
  ]

let ring_counts stats =
  [
    ("ring.acquired", sum (fun s -> s.Mmt_sim.Ring.acquired) stats);
    ("ring.overflow", sum (fun s -> s.Mmt_sim.Ring.overflow) stats);
    ("ring.capacity", sum (fun s -> s.Mmt_sim.Ring.capacity) stats);
  ]

(* ---- pilot_int_lossy: the Fig. 4 pilot with INT, 1 % WAN loss ---- *)

let pilot_config ~scale ~seed =
  {
    Pilot.default_config with
    Pilot.fragment_count = scaled scale 25_000;
    int_telemetry = true;
    deadline_budget = Some (Units.Time.ms 20.);
    wan_loss = 0.01;
    wan_corrupt = 0.001;
    seed = Int64.of_int seed;
  }

let pilot_fragment_bytes (config : Pilot.config) =
  Mmt_daq.Fragment.header_size + Mmt_daq.Fragment.subheader_size
  +
  match config.Pilot.payload with
  | Mmt_daq.Workload.Synthetic size -> Units.Size.to_bytes size
  | _ -> 0

let pilot_outcome pilot =
  let r = Pilot.results pilot in
  let delivered = r.Pilot.receiver.Mmt.Receiver.delivered in
  let stamps =
    sum (fun (_, s) -> s.Mmt_int.Stamper.stamped) (Pilot.int_stamper_stats pilot)
  in
  {
    attempted = r.Pilot.emitted;
    failed = Stdlib.max 0 (r.Pilot.emitted - delivered);
    delivered;
    sim_ns = Units.Time.to_ns r.Pilot.finished_at;
    digest = hex_digest r;
    counts =
      [ ("engine.events", Engine.processed (Pilot.engine pilot)) ]
      @ link_counts [ r.Pilot.wan_a; r.Pilot.wan_b ]
      @ ring_counts (Pilot.ring_stats pilot)
      @ [
          ( "innet.processed",
            r.Pilot.dtn1_switch.Mmt_innet.Switch.processed
            + r.Pilot.tofino_switch.Mmt_innet.Switch.processed );
          ("innet.rewrites", r.Pilot.rewriter.Mmt_innet.Mode_rewriter.rewritten);
          ("innet.stamps", stamps);
          ("transport.sent", r.Pilot.sender.Mmt.Sender.messages_sent);
          ("transport.delivered", delivered);
          ("transport.gaps", r.Pilot.receiver.Mmt.Receiver.gaps_detected);
          ("transport.naks", r.Pilot.receiver.Mmt.Receiver.naks_sent);
          ("transport.resent", r.Pilot.buffer.Mmt.Buffer_host.frames_resent);
          ( "transport.retx_stored",
            r.Pilot.buffer.Mmt.Buffer_host.buffer.Mmt.Retx_buffer.stored );
          ("daq.fragments", r.Pilot.emitted);
        ];
    fragment_bytes = pilot_fragment_bytes (Pilot.config pilot);
  }

let pilot_build ~scale ~seed =
  let pilot = Pilot.build (pilot_config ~scale ~seed) in
  let engine = Pilot.engine pilot in
  {
    run =
      (function
      | None -> Pilot.run pilot
      | Some tracer -> Tracer.drive tracer engine (fun () -> Engine.step engine));
    readout = (fun () -> pilot_outcome pilot);
  }

(* The traced run's stepping (one [Engine.step] at a time) against
   [Pilot.run]. *)
let pilot_harness ~scale ~seed =
  let reference = Pilot.build (pilot_config ~scale ~seed) in
  Pilot.run reference;
  let stepped = pilot_build ~scale ~seed in
  stepped.run (Some (Tracer.create ()));
  if hex_digest (Pilot.results reference) = (stepped.readout ()).digest then None
  else Some "pilot driven by Engine.step differs from Pilot.run"

let pilot =
  {
    name = "pilot_int_lossy";
    op = "fragment";
    pilot_mode = true;
    build = pilot_build;
    harness = pilot_harness;
  }

(* ---- facility_fanin_1000: E-F5 at 1000 flows, 3 ms window ---- *)

let facility_config ~scale ~seed =
  {
    Scenario.default with
    Scenario.flows = scaled scale 1000;
    duration = Units.Time.ms 3.;
    seed = Int64.of_int seed;
  }

let table_sum table f =
  let total = ref 0 in
  Flow_table.iter (fun _ x -> total := !total + f x) table;
  !total

(* [Scenario.run]'s readout, repeated here because the bench builds the
   scenario on its own engine and topology to see both. *)
let facility_result config (built : Scenario.built) ~events =
  let get table f = Option.get (Flow_table.get table f) in
  let samples =
    Array.init config.Scenario.flows (fun f ->
        let w = Mmt_daq.Workload.stats (get built.Scenario.workloads f) in
        let r = Mmt.Receiver.stats (get built.Scenario.receivers f) in
        let b = Mmt.Buffer_host.stats (get built.Scenario.buffers f) in
        let b = b.Mmt.Buffer_host.buffer in
        {
          Metrics.kind = Scenario.kind_label (Scenario.kind_of_flow f);
          emitted = w.Mmt_daq.Workload.fragments_emitted;
          emitted_bytes = w.Mmt_daq.Workload.bytes_emitted;
          delivered = r.Mmt.Receiver.delivered;
          delivered_bytes = r.Mmt.Receiver.delivered_bytes;
          late = r.Mmt.Receiver.late;
          lost = r.Mmt.Receiver.lost + r.Mmt.Receiver.still_missing;
          recovered = r.Mmt.Receiver.recovered;
          retx_occupancy_hw = Units.Size.to_bytes b.Mmt.Retx_buffer.occupancy_high_water;
          retx_entries_hw = b.Mmt.Retx_buffer.entries_high_water;
          nak_state_hw = r.Mmt.Receiver.nak_state_high_water;
        })
  in
  let first = ref None and last = ref None in
  Flow_table.iter
    (fun _ receiver ->
      let r = Mmt.Receiver.stats receiver in
      Option.iter
        (fun t -> first := Some (Option.fold ~none:t ~some:(Units.Time.min t) !first))
        r.Mmt.Receiver.first_arrival;
      Option.iter
        (fun t -> last := Some (Option.fold ~none:t ~some:(Units.Time.max t) !last))
        r.Mmt.Receiver.last_arrival)
    built.Scenario.receivers;
  let window =
    match (!first, !last) with
    | Some f, Some l -> Units.Time.diff l f
    | _ -> Units.Time.zero
  in
  {
    Scenario.summary = Metrics.summarize ~window samples;
    samples;
    sim_time = window;
    events;
  }

(* Digest of exactly the fields the harness-equivalence check compares. *)
let facility_digest (r : Scenario.result) =
  hex_digest (r.Scenario.events, r.Scenario.summary, r.Scenario.samples)

let facility_outcome config topo built =
  let engine = Mmt_sim.Topology.engine topo in
  let result = facility_result config built ~events:(Engine.processed engine) in
  let s = result.Scenario.summary in
  let rx f = table_sum built.Scenario.receivers (fun r -> f (Mmt.Receiver.stats r)) in
  let buf f = table_sum built.Scenario.buffers (fun b -> f (Mmt.Buffer_host.stats b)) in
  let daq f = table_sum built.Scenario.workloads (fun w -> f (Mmt_daq.Workload.stats w)) in
  let fragments = daq (fun w -> w.Mmt_daq.Workload.fragments_emitted) in
  let topo_ring = Option.to_list (Mmt_sim.Topology.ring topo) in
  {
    attempted = s.Metrics.emitted;
    failed = s.Metrics.lost;
    delivered = s.Metrics.delivered;
    sim_ns = Units.Time.to_ns (Engine.last_event_at engine);
    digest = facility_digest result;
    counts =
      [ ("engine.events", result.Scenario.events) ]
      @ link_counts (List.map Mmt_sim.Link.stats (Mmt_sim.Topology.links topo))
      @ ring_counts (List.map Mmt_sim.Ring.stats topo_ring)
      @ [
          ( "innet.rewrites",
            table_sum built.Scenario.rewriters (fun r ->
                (Mmt_innet.Mode_rewriter.stats r).Mmt_innet.Mode_rewriter.rewritten) );
          ( "transport.sent",
            table_sum built.Scenario.senders (fun s ->
                (Mmt.Sender.stats s).Mmt.Sender.messages_sent) );
          ("transport.delivered", rx (fun r -> r.Mmt.Receiver.delivered));
          ("transport.gaps", rx (fun r -> r.Mmt.Receiver.gaps_detected));
          ("transport.naks", rx (fun r -> r.Mmt.Receiver.naks_sent));
          ("transport.resent", buf (fun b -> b.Mmt.Buffer_host.frames_resent));
          ( "transport.retx_stored",
            buf (fun b -> b.Mmt.Buffer_host.buffer.Mmt.Retx_buffer.stored) );
          ("daq.fragments", fragments);
          ("setup.links", List.length (Mmt_sim.Topology.links topo));
          ("setup.nodes", List.length (Mmt_sim.Topology.nodes topo));
        ];
    fragment_bytes =
      (if fragments = 0 then 0
       else daq (fun w -> w.Mmt_daq.Workload.bytes_emitted) / fragments);
  }

let facility_build ~scale ~seed =
  let config = facility_config ~scale ~seed in
  let engine = Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let built = Scenario.build config topo in
  (* the drain cap [Scenario.run] uses *)
  let until = Units.Time.add config.Scenario.duration (Units.Time.seconds 1.) in
  {
    run =
      (function
      | None -> Engine.run ~until engine
      | Some tracer ->
          (* One event per call, in exactly [run ~until]'s order, drain-cap
             clock clamp included. *)
          Tracer.drive tracer engine (fun () ->
              not (Engine.run_bounded engine ~until ~budget:1)));
    readout = (fun () -> facility_outcome config topo built);
  }

(* The bench's own topology against [Scenario.run]. *)
let facility_harness ~scale ~seed =
  let reference = facility_digest (Scenario.run (facility_config ~scale ~seed)) in
  let own = facility_build ~scale ~seed in
  own.run None;
  if reference = (own.readout ()).digest then None
  else Some "facility on the bench's topology differs from Scenario.run"

let facility =
  {
    name = "facility_fanin_1000";
    op = "fragment";
    pilot_mode = false;
    build = facility_build;
    harness = facility_harness;
  }

(* ---- campaign_pilot_chaos: 200 seeded chaos trials, sequential ---- *)

let campaign_build ~scale ~seed =
  let target = Mmt_pilot.Chaos_run.campaign_target () in
  let trials = scaled scale 200 in
  let report = ref None in
  let timed tracer =
    {
      target with
      Campaign.execute =
        (fun profile plan ->
          Tracer.named tracer "trial" (fun () -> target.Campaign.execute profile plan));
    }
  in
  {
    run =
      (fun tracer ->
        let target = Option.fold ~none:target ~some:timed tracer in
        report := Some (Campaign.run target ~trials ~seed:(Int64.of_int seed)));
    readout =
      (fun () ->
        let report = Option.get !report in
        let trials = Array.to_list report.Campaign.results in
        let exec f = sum (fun t -> f t.Campaign.exec) trials in
        let delivered = exec (fun e -> e.Campaign.outcome.Mmt_fault.Invariant.delivered) in
        {
          attempted = report.Campaign.trials;
          failed = List.length (Campaign.violating report);
          delivered;
          sim_ns = 0;
          digest = hex_string (Campaign.render ~verbose:true report);
          counts =
            [
              ("engine.events", exec (fun e -> e.Campaign.events));
              ("transport.delivered", delivered);
              ("fault.trials", report.Campaign.trials);
              ("fault.faults_applied", exec (fun e -> e.Campaign.faults_applied));
            ];
          fragment_bytes =
            Units.Size.to_bytes
              (Mmt_pilot.Chaos_run.campaign_trial ()).Mmt_pilot.Chaos_run.fragment_size;
        });
  }

let campaign =
  {
    name = "campaign_pilot_chaos";
    op = "trial";
    pilot_mode = true;
    build = campaign_build;
    harness = no_harness;
  }

(* ---- sweep_registry: every registry entry, in order ---- *)

(* The experiments hard-code their own seeds, so [seed] does not apply.
   Below full scale the sweep runs a registry prefix (at least one
   entry). *)
let sweep_build ~scale ~seed:_ =
  let all = Mmt_experiments.Registry.all in
  let n = Stdlib.min (List.length all) (scaled scale (List.length all)) in
  let entries = List.filteri (fun i _ -> i < n) all in
  let results = ref [] in
  let run tracer (e : Mmt_experiments.Registry.entry) =
    let output, ok =
      match tracer with None -> e.run () | Some tracer -> Tracer.named tracer e.id e.run
    in
    (e.id, output, ok)
  in
  {
    run = (fun tracer -> results := List.map (run tracer) entries);
    readout =
      (fun () ->
        {
          attempted = List.length !results;
          failed = List.length (List.filter (fun (_, _, ok) -> not ok) !results);
          delivered = 0;
          sim_ns = 0;
          digest =
            hex_string
              (String.concat "\n"
                 (List.map (fun (id, out, _) -> id ^ "\n" ^ out) !results));
          counts = [];
          (* not observable: unit costs use the pilot's message *)
          fragment_bytes = pilot_fragment_bytes Pilot.default_config;
        });
  }

let sweep =
  {
    name = "sweep_registry";
    op = "entry";
    pilot_mode = true;
    build = sweep_build;
    harness = no_harness;
  }

let all = [ pilot; facility; campaign; sweep ]
let find name = List.find_opt (fun w -> w.name = name) all
