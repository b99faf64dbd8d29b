open Mmt_util
module Router = Mmt_innet.Router

type kind = Bulk | Burst | Telemetry

type config = {
  flows : int;
  sites : int;
  sinks : int;
  duration : Units.Time.t;
  wan_rtt : Units.Time.t;
  wan_loss : float;
  seed : int64;
}

let default =
  {
    flows = 100;
    sites = 4;
    sinks = 4;
    duration = Units.Time.ms 10.;
    wan_rtt = Units.Time.ms 13.;
    wan_loss = 0.002;
    seed = 42L;
  }

let degree = 8
let bulk_rate = Units.Rate.mbps 400.
let telemetry_rate = Units.Rate.mbps 100.
let wan_rate = Units.Rate.gbps 200.

(* The rest of the fixed provisioning: the sink hosts' last hop, the
   source access links, uplink headroom over subtree nominal load, the
   edge rewriters' deadline budget, the NAK schedule, per-flow buffer. *)
let sink_rate = Units.Rate.gbps 100.
let source_link_rate = Units.Rate.gbps 10.
let agg_headroom = 1.25
let deadline_budget = Units.Time.ms 40.
let nak_delay = Units.Time.ms 1.
let nak_retry_timeout = Units.Time.ms 20.
let max_nak_retries = 8
let buffer_capacity = Units.Size.mib 16

(* Mix pattern: ½ bulk, ⅙ burst, ⅓ telemetry. *)
let mix_pattern = [| Bulk; Bulk; Telemetry; Bulk; Burst; Telemetry |]
let kind_of_flow f = mix_pattern.(f mod Array.length mix_pattern)

let kind_label = function
  | Bulk -> "bulk"
  | Burst -> "burst"
  | Telemetry -> "telemetry"

(* Burst sources are Poisson photon-event trains; their nominal
   (capacity-planning) rate is events/s * fragments/event * fragment
   bytes.  Kept in sync with [workload_config] below. *)
let burst_event_rate_hz = 1000.
let burst_fragments_per_event = 8
let burst_payload = Units.Size.bytes 4096
let bulk_payload = Units.Size.bytes 7168
let telemetry_payload = Units.Size.bytes 1024

let fragment_wire payload =
  Mmt_daq.Fragment.header_size + Mmt_daq.Fragment.subheader_size
  + Units.Size.to_bytes payload

let nominal_rate = function
  | Bulk -> bulk_rate
  | Telemetry -> telemetry_rate
  | Burst ->
      Units.Rate.bps
        (burst_event_rate_hz
        *. float_of_int burst_fragments_per_event
        *. float_of_int (8 * fragment_wire burst_payload))

(* Geographic partition of the facility: flows live at [sites]
   detector halls in contiguous blocks, split as evenly as the counts
   allow.  Each hall runs its own fan-in tree and hosts the per-flow
   rewriters and retransmission buffers for its block at a site-edge
   switch, joined to the shared facility edge by a metro-distance
   uplink. *)
let metro_propagation = Units.Time.ms 2.

let site_spans config =
  if config.sites < 1 then invalid_arg "Scenario: sites must be positive";
  if config.flows < 1 then invalid_arg "Scenario: flows must be positive";
  let sites = Stdlib.min config.sites config.flows in
  let base = config.flows / sites and rem = config.flows mod sites in
  Array.init sites (fun s ->
      let start = (s * base) + Stdlib.min s rem in
      let count = base + (if s < rem then 1 else 0) in
      (start, count))

let levels ~flows ~degree =
  if flows < 1 then invalid_arg "Scenario.levels: flows must be positive";
  if degree < 2 then invalid_arg "Scenario.levels: degree must be >= 2";
  let rec go count acc =
    if count <= 1 then List.rev acc
    else
      let parents = (count + degree - 1) / degree in
      go parents (parents :: acc)
  in
  go flows []

let offered_nominal config =
  let total = ref Units.Rate.zero in
  for f = 0 to config.flows - 1 do
    total := Units.Rate.add !total (nominal_rate (kind_of_flow f))
  done;
  !total

let describe config =
  let buf = Buffer.create 1024 in
  let bulk = ref 0 and burst = ref 0 and telemetry = ref 0 in
  for f = 0 to config.flows - 1 do
    match kind_of_flow f with
    | Bulk -> incr bulk
    | Burst -> incr burst
    | Telemetry -> incr telemetry
  done;
  Printf.bprintf buf
    "facility scenario: %d flows (%d bulk / %d burst / %d telemetry) -> %d sinks\n"
    config.flows !bulk !burst !telemetry config.sinks;
  let spans = site_spans config in
  Printf.bprintf buf "sites: %d (flows per site: %s), metro uplink %s\n"
    (Array.length spans)
    (String.concat "/"
       (Array.to_list (Array.map (fun (_, count) -> string_of_int count) spans)))
    (Units.Time.to_string metro_propagation);
  Printf.bprintf buf "fan-in tree per site: degree %d, switches per level: %s\n"
    degree
    (match levels ~flows:(snd spans.(0)) ~degree with
    | [] -> "none (single flow feeds the site edge directly)"
    | counts -> String.concat " -> " (List.map string_of_int counts));
  let offered = offered_nominal config in
  Printf.bprintf buf "wan: %s, rtt %s, loss %.3g%%; offered (nominal) %s (%.2fx wan)\n"
    (Units.Rate.to_string wan_rate)
    (Units.Time.to_string config.wan_rtt)
    (config.wan_loss *. 100.)
    (Units.Rate.to_string offered)
    (Units.Rate.to_bps offered /. Units.Rate.to_bps wan_rate);
  Printf.bprintf buf "emission window %s, edge deadline budget %s, seed %Ld\n"
    (Units.Time.to_string config.duration)
    (Units.Time.to_string deadline_budget)
    config.seed;
  let shown = min config.flows 8 in
  for f = 0 to shown - 1 do
    Printf.bprintf buf "  flow %4d %-9s %s -> %s (sink %s, buffer %s)\n" f
      (kind_label (kind_of_flow f))
      (Mmt_frame.Addr.Ip.to_string (Address.source_ip f))
      (Mmt_frame.Addr.Ip.to_string (Address.flow_ip f))
      (Mmt_frame.Addr.Ip.to_string (Address.sink_ip (f mod config.sinks)))
      (Mmt_frame.Addr.Ip.to_string (Address.buffer_ip f))
  done;
  if config.flows > shown then
    Printf.bprintf buf "  ... %d more flows, same pattern\n" (config.flows - shown);
  Buffer.contents buf

type result = {
  summary : Metrics.summary;
  samples : Metrics.flow_sample array;
  sim_time : Units.Time.t;
  events : int;
}

(* The facility address class of a packet's IPv4 destination: the sink
   hosts dispatch on it. *)
let classify packet =
  let dst = Mmt.Header_vector.ip_dst (Mmt.Header_vector.of_packet packet) in
  if dst < 0 then Address.Other else Address.classify_int dst

let experiment_of_flow f =
  (* The 8-bit slice field cannot hold a facility's flow count, so the
     flow id lives in the 24-bit experiment field. *)
  Mmt.Experiment_id.make ~experiment:(0x0F5000 + f) ~slice:0

(* Per-kind workload shapes: the catalog provides the fragment cadence
   (scaled to the per-flow nominal rate), the profile provides the
   burstiness. *)
let workload_config kind =
  let open Mmt_daq in
  match kind with
  | Bulk ->
      let catalog = Experiment.find Experiment.Dune in
      {
        Workload.experiment = catalog;
        scale =
          Units.Rate.to_bps bulk_rate /. Units.Rate.to_bps catalog.Experiment.daq_rate;
        profile = Workload.Steady;
        payload = Workload.Synthetic bulk_payload;
        run = 1;
        slice = 0;
      }
  | Burst ->
      let catalog = Experiment.find Experiment.Vera_rubin in
      {
        Workload.experiment = catalog;
        scale = 1e-3 (* unused by the Poisson profile, must be positive *);
        profile =
          Workload.Poisson_events
            {
              mean_rate_hz = burst_event_rate_hz;
              fragments_per_event = burst_fragments_per_event;
            };
        payload = Workload.Synthetic burst_payload;
        run = 1;
        slice = 0;
      }
  | Telemetry ->
      let catalog = Experiment.find Experiment.Mu2e in
      {
        Workload.experiment = catalog;
        scale =
          Units.Rate.to_bps telemetry_rate
          /. Units.Rate.to_bps catalog.Experiment.daq_rate;
        profile = Workload.Steady;
        payload = Workload.Synthetic telemetry_payload;
        run = 1;
        slice = 0;
      }

(* Everything [run] needs to read results back after the engines have
   drained.  The rewriter and sender tables ride along for the chaos
   harness: campaign trials read emission counts from the rewriters
   and push tail-probe frames through the senders. *)
type built = {
  workloads : Mmt_daq.Workload.t Flow_table.t;
  receivers : Mmt.Receiver.t Flow_table.t;
  buffers : Mmt.Buffer_host.t Flow_table.t;
  rewriters : Mmt_innet.Mode_rewriter.t Flow_table.t;
  senders : Mmt.Sender.t Flow_table.t;
}

(* Construct the whole facility inside [topo], every component on the
   topology's engine.  Construction order fixes the scheduling order,
   so equal configs run byte-identically. *)
let build ?(on_deliver = fun ~flow:_ ~seq:_ -> ()) config topo =
  let engine = Mmt_sim.Topology.engine topo in
  let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
  (* Every router, switch and element recycles through the topology's
     packet ring. *)
  let ring = Option.get (Mmt_sim.Topology.ring topo) in
  let spans = site_spans config in
  let nsites = Array.length spans in
  let site_of = Array.make config.flows 0 in
  Array.iteri
    (fun s (start, count) ->
      for f = start to start + count - 1 do
        site_of.(f) <- s
      done)
    spans;

  let master = Rng.create ~seed:config.seed in
  let loss_rng = Rng.split master in
  let flow_rngs = Array.make config.flows master in
  for f = 0 to config.flows - 1 do
    flow_rngs.(f) <- Rng.split master
  done;

  (* Nodes, site-major: a hall's sources, aggregation tree and
     site-edge switch; the shared edge and the sink side follow. *)
  let placeholder = Mmt_sim.Node.create ~name:"_" in
  let sources = Array.make config.flows placeholder in
  let sedges = Array.make nsites placeholder in
  let site_levels = Array.make nsites [] in
  for s = 0 to nsites - 1 do
    let start, count = spans.(s) in
    for f = start to start + count - 1 do
      sources.(f) <-
        Mmt_sim.Topology.add_node topo ~name:(Printf.sprintf "src%d" f)
    done;
    site_levels.(s) <-
      List.mapi
        (fun l n ->
          Array.init n (fun i ->
              Mmt_sim.Topology.add_node topo
                ~name:(Printf.sprintf "s%d_agg%d_%d" s l i)))
        (levels ~flows:count ~degree);
    sedges.(s) <-
      Mmt_sim.Topology.add_node topo ~name:(Printf.sprintf "site-edge%d" s)
  done;
  let edge_in = Mmt_sim.Topology.add_node topo ~name:"edge-in" in
  let edge_out = Mmt_sim.Topology.add_node topo ~name:"edge-out" in
  let sinks =
    Array.init config.sinks (fun m ->
        Mmt_sim.Topology.add_node topo ~name:(Printf.sprintf "sink%d" m))
  in

  (* Aggregation-link sizing: nominal load below each switch, with
     headroom, so the shared WAN stays the bottleneck by design. *)
  let flow_nominal =
    Array.init config.flows (fun f ->
        Units.Rate.to_bps (nominal_rate (kind_of_flow f)))
  in
  let group_sums values count =
    let sums = Array.make count 0. in
    Array.iteri
      (fun i v ->
        let parent = i / degree in
        sums.(parent) <- sums.(parent) +. v)
      values;
    sums
  in
  let uplink_rate load_bps =
    Units.Rate.bps
      (Float.max
         (Units.Rate.to_bps source_link_rate)
         (load_bps *. agg_headroom))
  in

  (* Per-site links: sources -> leaf switches -> ... -> root -> the
     site edge (or the site edge directly when one flow needs no
     tree), then the metro-distance duplex pair to the facility edge. *)
  let source_links = Array.make config.flows None in
  let metro_up = Array.make nsites None in
  let metro_down = Array.make nsites None in
  for s = 0 to nsites - 1 do
    let start, count = spans.(s) in
    let site_nominal = Array.sub flow_nominal start count in
    (match site_levels.(s) with
    | [] ->
        source_links.(start) <-
          Some
            (Mmt_sim.Topology.connect topo ~src:sources.(start)
               ~dst:sedges.(s) ~rate:source_link_rate
               ~propagation:(Units.Time.us 2.) ())
    | leaves :: _ ->
        for f = start to start + count - 1 do
          source_links.(f) <-
            Some
              (Mmt_sim.Topology.connect topo ~src:sources.(f)
                 ~dst:leaves.((f - start) / degree)
                 ~rate:source_link_rate
                 ~propagation:(Units.Time.us 2.) ())
        done);
    (* Wire each aggregation level's uplinks to the next level (or the
       site edge for the root), and install plain forwarding handlers. *)
    let rec wire_levels sums nodes_list =
      match nodes_list with
      | [] -> ()
      | level :: rest ->
          Array.iteri
            (fun i node ->
              let dst =
                match rest with
                | next :: _ -> next.(i / degree)
                | [] -> sedges.(s)
              in
              let link =
                Mmt_sim.Topology.connect topo ~src:node ~dst
                  ~rate:(uplink_rate sums.(i))
                  ~propagation:(Units.Time.us 5.) ()
              in
              Mmt_sim.Node.set_handler node (Mmt_sim.Link.send link))
            level;
          let next_sums =
            match rest with
            | next :: _ -> group_sums sums (Array.length next)
            | [] -> [||]
          in
          wire_levels next_sums rest
    in
    (match site_levels.(s) with
    | [] -> ()
    | leaves :: _ as all ->
        wire_levels (group_sums site_nominal (Array.length leaves)) all);
    let site_load = Array.fold_left ( +. ) 0. site_nominal in
    let up, down =
      Mmt_sim.Topology.duplex topo ~a:sedges.(s) ~b:edge_in
        ~rate:(uplink_rate site_load) ~propagation:metro_propagation
    in
    metro_up.(s) <- Some up;
    metro_down.(s) <- Some down
  done;
  let source_links = Array.map Option.get source_links in
  let metro_up = Array.map Option.get metro_up in
  let metro_down = Array.map Option.get metro_down in

  (* The shared WAN: one impaired data link, one clean reverse link. *)
  let half_rtt = Units.Time.scale config.wan_rtt 0.5 in
  let wan_loss =
    if config.wan_loss = 0. then Mmt_sim.Loss.perfect
    else Mmt_sim.Loss.bernoulli ~drop:config.wan_loss ~corrupt:0. ~rng:loss_rng
  in
  let wan_data =
    Mmt_sim.Topology.connect topo ~src:edge_in ~dst:edge_out ~rate:wan_rate
      ~propagation:half_rtt ~loss:wan_loss ()
  in
  let wan_reverse =
    Mmt_sim.Topology.connect topo ~src:edge_out ~dst:edge_in ~rate:wan_rate
      ~propagation:half_rtt ()
  in
  let sink_links =
    Array.init config.sinks (fun m ->
        Mmt_sim.Topology.connect topo ~src:edge_out ~dst:sinks.(m)
          ~rate:sink_rate ~propagation:(Units.Time.us 20.) ())
  in

  (* Site edge (source side): per-flow mode rewriters and
     retransmission buffers live at their flow's hall.  Retransmissions
     and rewritten traffic ride the metro uplink; the facility edge
     forwards them onto the WAN.  The buffers send through a table of
     their own, since a retransmission and an arriving frame to the
     same flow address leave the site edge by different ways. *)
  let buffer_routers =
    Array.map
      (fun up -> Router.create ~default:(Mmt_sim.Link.send up) ~ring 0)
      metro_up
  in
  let buffers =
    Flow_table.init ~flows:config.flows (fun f ->
        let env =
          Router.env buffer_routers.(site_of.(f)) ~engine ~fresh_id
            ~local_ip:(Address.buffer_ip f)
        in
        Mmt.Buffer_host.create ~env ~capacity:buffer_capacity ())
  in
  let rewriters =
    Flow_table.init ~flows:config.flows (fun f ->
        let mode =
          Mmt.Mode.make
            ~name:(Printf.sprintf "mode1/facility-wan/%d" f)
            ~reliable:(Address.buffer_ip f)
            ~deadline_budget:(deadline_budget, Mmt_frame.Addr.Ip.any)
            ()
        in
        let buffer = Option.get (Flow_table.get buffers f) in
        Mmt_innet.Mode_rewriter.create ~mode
          ~pool:(Mmt_sim.Ring.pool ring)
          ~on_rewrite:(fun ~seq ~born:_ packet ->
            match seq with
            | Some seq -> Mmt.Buffer_host.store_packet buffer ~seq packet
            | None -> ())
          ())
  in
  (* Every facility switch forwards by exact match, with entries for
     the flows it serves and no default.  A site edge hands each local
     flow's frames to the flow's rewriter and its NAKs to the flow's
     buffer; the rewriter's output rides the metro uplink. *)
  let switch node router =
    ignore
      (Mmt_innet.Switch.attach ~engine ~node ~profile:Mmt_innet.Switch.tofino2
         ~router ~elements:[] ())
  in
  let now () = Mmt_sim.Engine.now engine in
  for s = 0 to nsites - 1 do
    let start, count = spans.(s) in
    let uplink = Mmt_sim.Link.send metro_up.(s) in
    let router = Router.create ~ring (2 * count) in
    for f = start to start + count - 1 do
      let rewrite =
        (Mmt_innet.Mode_rewriter.element (Option.get (Flow_table.get rewriters f)))
          .Mmt_innet.Element.process
      in
      Router.add router (Address.flow_ip f) (fun packet ->
          match rewrite ~now:(now ()) packet with
          | Mmt_innet.Element.Forward p -> uplink p
          | Mmt_innet.Element.Replicate ps -> List.iter uplink ps
          | Mmt_innet.Element.Discard _ -> Mmt_sim.Ring.in_packet_done ring packet);
      Router.add router (Address.buffer_ip f)
        (Mmt.Buffer_host.on_packet (Option.get (Flow_table.get buffers f)))
    done;
    switch sedges.(s) router
  done;

  (* Facility edge: rewritten site traffic goes out the WAN, NAKs coming
     back off the WAN go down the owning site's metro link, and each
     flow reaches its sink host. *)
  let to_wan = Mmt_sim.Link.send wan_data in
  let to_site = Array.map Mmt_sim.Link.send metro_down in
  let to_sink = Array.map Mmt_sim.Link.send sink_links in
  let in_table = Router.create ~ring (2 * config.flows) in
  let out_table = Router.create ~ring config.flows in
  for f = 0 to config.flows - 1 do
    Router.add in_table (Address.flow_ip f) to_wan;
    Router.add in_table (Address.buffer_ip f) to_site.(site_of.(f));
    Router.add out_table (Address.flow_ip f) to_sink.(f mod config.sinks)
  done;
  switch edge_in in_table;
  switch edge_out out_table;

  (* Receivers: one per flow, on the flow's sink host; NAKs and other
     control ride the clean reverse WAN back to the edge. *)
  let sink_routers =
    Array.map
      (fun _ -> Router.create ~default:(Mmt_sim.Link.send wan_reverse) ~ring 0)
      sinks
  in
  let receivers =
    Flow_table.init ~flows:config.flows (fun f ->
        let env =
          Router.env sink_routers.(f mod config.sinks) ~engine ~fresh_id
            ~local_ip:(Address.flow_ip f)
        in
        Mmt.Receiver.create ~env
          {
            Mmt.Receiver.experiment = experiment_of_flow f;
            nak_delay;
            nak_retry_timeout;
            max_nak_retries;
            expected_total = None;
          }
          ~deliver:(fun meta _payload ->
            on_deliver ~flow:f
              ~seq:meta.Mmt.Receiver.sequence))
  in
  Array.iter
    (fun sink_node ->
      let retire = Mmt_sim.Ring.in_packet_done ring in
      Mmt_sim.Node.set_handler sink_node (fun packet ->
          match classify packet with
          | Address.Flow f -> (
              match Flow_table.get receivers f with
              | Some receiver -> Mmt.Receiver.on_packet receiver packet
              | None -> retire packet)
          | _ -> retire packet))
    sinks;

  (* Sources: mode-0 senders fed by the per-kind workload shapes.  The
     senders land in a side table (same construction order — the table
     is filled inside the one init loop) so the chaos harness can push
     extra frames through them after the workloads stop. *)
  let sender_slots = Array.make config.flows None in
  let workloads =
    Flow_table.init ~flows:config.flows (fun f ->
        let router =
          Router.create ~default:(Mmt_sim.Link.send source_links.(f)) ~ring 0
        in
        let env =
          Router.env router ~engine ~fresh_id
            ~local_ip:(Address.source_ip f)
        in
        let sender =
          Mmt.Sender.create ~env
            {
              Mmt.Sender.experiment = experiment_of_flow f;
              destination = Address.flow_ip f;
              encap =
                Mmt.Encap.Over_ipv4
                  {
                    src = Address.source_ip f;
                    dst = Address.flow_ip f;
                    dscp = 0;
                    ttl = 64;
                  };
              deadline_budget = None;
            }
        in
        sender_slots.(f) <- Some sender;
        Mmt_daq.Workload.start ~engine ~rng:flow_rngs.(f)
          (workload_config (kind_of_flow f))
          ~emit:(fun ~padding fragment ->
            Mmt.Sender.send_with sender ~padding
              ~length:(Mmt_daq.Fragment.total_size fragment)
              (fun w -> Mmt_daq.Fragment.write ~padding w fragment))
          ~until:config.duration)
  in
  let senders =
    Flow_table.init ~flows:config.flows (fun f -> Option.get sender_slots.(f))
  in
  { workloads; receivers; buffers; rewriters; senders }

let run config =
  if config.flows < 1 then invalid_arg "Scenario.run: flows must be positive";
  if config.sinks < 1 then invalid_arg "Scenario.run: sinks must be positive";
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let { workloads; receivers; buffers; _ } = build config topo in
  (* Run to quiescence; the cap is a safety bound well past the worst
     NAK-retry chain, not a working deadline. *)
  Mmt_sim.Engine.run ~until:(Units.Time.add config.duration (Units.Time.seconds 1.))
    engine;
  let events = Mmt_sim.Engine.processed engine in

  let samples =
    Array.init config.flows (fun f ->
        let w = Mmt_daq.Workload.stats (Option.get (Flow_table.get workloads f)) in
        let r = Mmt.Receiver.stats (Option.get (Flow_table.get receivers f)) in
        let b = Mmt.Buffer_host.stats (Option.get (Flow_table.get buffers f)) in
        {
          Metrics.kind = kind_label (kind_of_flow f);
          emitted = w.Mmt_daq.Workload.fragments_emitted;
          emitted_bytes = w.Mmt_daq.Workload.bytes_emitted;
          delivered = r.Mmt.Receiver.delivered;
          delivered_bytes = r.Mmt.Receiver.delivered_bytes;
          late = r.Mmt.Receiver.late;
          lost = r.Mmt.Receiver.lost + r.Mmt.Receiver.still_missing;
          recovered = r.Mmt.Receiver.recovered;
          retx_occupancy_hw =
            Units.Size.to_bytes
              b.Mmt.Buffer_host.buffer.Mmt.Retx_buffer.occupancy_high_water;
          retx_entries_hw =
            b.Mmt.Buffer_host.buffer.Mmt.Retx_buffer.entries_high_water;
          nak_state_hw = r.Mmt.Receiver.nak_state_high_water;
        })
  in
  (* Goodput window: first to last arrival across every flow.  The
     engine clock is useless here — [run ~until] advances it to the
     drain cap even when the queue empties early. *)
  let window =
    let first = ref None and last = ref None in
    Flow_table.iter
      (fun _ receiver ->
        let r = Mmt.Receiver.stats receiver in
        (match r.Mmt.Receiver.first_arrival with
        | Some t ->
            first :=
              Some (match !first with None -> t | Some f -> Units.Time.min f t)
        | None -> ());
        match r.Mmt.Receiver.last_arrival with
        | Some t ->
            last := Some (match !last with None -> t | Some l -> Units.Time.max l t)
        | None -> ())
      receivers;
    match (!first, !last) with
    | Some f, Some l -> Units.Time.diff l f
    | _ -> Units.Time.zero
  in
  { summary = Metrics.summarize ~window samples; samples; sim_time = window; events }
