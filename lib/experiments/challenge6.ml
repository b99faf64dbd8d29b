open Mmt_util
open Mmt_frame

let discovery_failover () =
  let module C = Mmt_pilot.Chaos_run in
  let run ?fail_at () = C.run (C.failover_trial ?fail_at ()) in
  let baseline = run () in
  let failed = run ~fail_at:(Units.Time.ms 5.) () in
  let table =
    Table.create ~title:"E-X1: buffer failure mid-stream (12000 fragments, 0.5% loss)"
      ~columns:
        [
          ("scenario", Table.Left);
          ("delivered", Table.Right);
          ("recovered", Table.Right);
          ("lost", Table.Right);
          ("served by A", Table.Right);
          ("served by B", Table.Right);
          ("mode changes", Table.Right);
          ("final buffer", Table.Right);
        ]
      ()
  in
  let add name (o : C.outcome) =
    Table.add_row table
      [
        name;
        string_of_int o.C.delivered;
        string_of_int o.C.recovered;
        string_of_int o.C.lost;
        string_of_int o.C.naks_served_by_a;
        string_of_int o.C.naks_served_by_b;
        string_of_int o.C.mode_changes;
        o.C.final_buffer;
      ]
  in
  add "both buffers alive" baseline;
  add "buffer A fails at 5 ms" failed;
  let rows =
    [
      Mmt_telemetry.Report.check ~metric:"nearest buffer preferred"
        ~expected:"planner picks the lower-RTT buffer (§ 6 challenge 1)"
        ~measured:
          (Printf.sprintf "baseline: all %d recoveries from A, final mode uses %s"
             baseline.C.naks_served_by_a
             baseline.C.final_buffer)
        (baseline.C.final_buffer = "A"
        && baseline.C.naks_served_by_b = 0
        && baseline.C.lost = 0);
      Mmt_telemetry.Report.check ~metric:"failover without data loss"
        ~expected:"soft-state expiry + replan keeps the stream recoverable"
        ~measured:
          (Printf.sprintf
             "%d delivered, %d lost; %d recoveries served by B after %d mode change(s)"
             failed.C.delivered
             failed.C.lost
             failed.C.naks_served_by_b
             failed.C.mode_changes)
        (failed.C.lost = 0
        && failed.C.final_buffer = "B"
        && failed.C.naks_served_by_b > 0
        && failed.C.mode_changes = 1);
    ]
  in
  let report =
    {
      Mmt_telemetry.Report.id = "E-X1";
      title = "resource discovery + failover (§ 6 challenge 1)";
      note = None;
      rows;
    }
  in
  ( Table.render table ^ "\n" ^ Mmt_telemetry.Report.render report,
    Mmt_telemetry.Report.all_ok report )

(* E-X2: in-network alert generation from raw DAQ payloads. ------------- *)

let dpu_ip = Addr.Ip.of_octets 10 6 0 2
let sink_ip = Addr.Ip.of_octets 10 6 0 3
let rubin_ip = Addr.Ip.of_octets 10 6 0 9
let experiment = Mmt.Experiment_id.make ~experiment:2 ~slice:0

let payload_alerts () =
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let ring = Option.get (Mmt_sim.Topology.ring topo) in
  let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
  let rng = Rng.create ~seed:77L in
  let detector = Mmt_sim.Topology.add_node topo ~name:"detector" in
  let dpu = Mmt_sim.Topology.add_node topo ~name:"dpu" in
  let sink = Mmt_sim.Topology.add_node topo ~name:"analysis" in
  let rubin = Mmt_sim.Topology.add_node topo ~name:"vera-rubin" in
  let rate = Units.Rate.gbps 100. in
  let det_to_dpu =
    Mmt_sim.Topology.connect topo ~src:detector ~dst:dpu ~rate
      ~propagation:(Units.Time.us 20.) ()
  in
  let dpu_to_sink =
    Mmt_sim.Topology.connect topo ~src:dpu ~dst:sink ~rate
      ~propagation:(Units.Time.ms 6.) ()
  in
  let dpu_to_rubin =
    Mmt_sim.Topology.connect topo ~src:dpu ~dst:rubin ~rate
      ~propagation:(Units.Time.ms 20.) ()
  in
  let router =
    Mmt_innet.Router.create ~default:(Mmt_sim.Link.send dpu_to_sink) ~ring 1
  in
  Mmt_innet.Router.add router rubin_ip (Mmt_sim.Link.send dpu_to_rubin);
  let env_dpu = Mmt_innet.Router.env router ~engine ~fresh_id ~local_ip:dpu_ip in
  let generator =
    Mmt_innet.Alert_generator.create ~env:env_dpu
      {
        Mmt_innet.Alert_generator.sum_adc_threshold = 30_000;
        subscribers = [ rubin_ip ];
        min_gap = Units.Time.us 200.;
      }
  in
  (* The discipline: a Tofino cannot host this element... *)
  let p4_refused =
    match
      Mmt_innet.Switch.attach ~engine ~node:(Mmt_sim.Topology.add_node topo ~name:"p4")
        ~profile:Mmt_innet.Switch.tofino2 ~router
        ~elements:[ Mmt_innet.Alert_generator.element generator ]
        ()
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  (* ...but the Alveo-class DPU can.  Its table sends the detector's raw
     frames, which carry no IPv4 destination, to the analysis sink by
     default, and the alerts the generator addresses to Vera Rubin to
     their subscriber. *)
  let _dpu_switch =
    Mmt_innet.Switch.attach ~engine ~node:dpu ~profile:Mmt_innet.Switch.alveo_smartnic
      ~allow_payload:true ~router
      ~elements:[ Mmt_innet.Alert_generator.element generator ]
      ()
  in
  let sink_count = ref 0 in
  Mmt_sim.Node.set_handler sink (fun packet ->
      incr sink_count;
      Mmt_sim.Ring.in_packet_done ring packet);
  let alerts = ref [] in
  Mmt_sim.Node.set_handler rubin (fun packet ->
      let frame = Mmt_sim.Packet.frame packet in
      (match Result.bind (Mmt.Encap.parse frame) (fun (_header, payload) ->
                 Mmt_daq.Fragment.read payload)
       with
      | Ok
          ({ Mmt_daq.Fragment.detector = Mmt_daq.Fragment.Telescope_alert _; _ }
           as fragment) ->
          alerts := (Mmt_sim.Engine.now engine, fragment) :: !alerts
      | Ok _ | Error _ -> ());
      Mmt_sim.Ring.in_packet_done ring packet);
  (* Detector: trigger-primitive fragments; a supernova burst begins at
     2 ms (higher activity => bigger summed charge). *)
  let lartpc =
    { Mmt_daq.Lartpc.iceberg with Mmt_daq.Lartpc.channels = 32; samples_per_channel = 128 }
  in
  let sender_env =
    Mmt_innet.Router.env
      (Mmt_innet.Router.create ~default:(Mmt_sim.Link.send det_to_dpu) ~ring 0)
      ~engine ~fresh_id ~local_ip:(Addr.Ip.of_octets 10 6 0 1)
  in
  let sender =
    Mmt.Sender.create ~env:sender_env
      {
        Mmt.Sender.experiment;
        destination = sink_ip;
        encap = Mmt.Encap.Raw;
        deadline_budget = None;
      }
  in
  let fragment_count = 400 in
  let burst_start = 200 in
  for i = 0 to fragment_count - 1 do
    ignore
      (Mmt_sim.Engine.schedule engine
         ~at:(Units.Time.scale (Units.Time.us 10.) (float_of_int i))
         (fun () ->
           let activity =
             if i >= burst_start then Mmt_daq.Lartpc.Supernova_burst
             else Mmt_daq.Lartpc.Quiet
           in
           let window = Mmt_daq.Lartpc.generate_window lartpc rng ~activity in
           let hits =
             Array.to_list window
             |> List.mapi (fun channel w ->
                    Mmt_daq.Lartpc.trigger_primitives lartpc ~threshold:15 ~channel w)
             |> List.concat
           in
           let fragment =
             {
               Mmt_daq.Fragment.run = 9;
               trigger = i;
               timestamp = Mmt_sim.Engine.now engine;
               experiment;
               detector =
                 Mmt_daq.Fragment.Wib_ethernet
                   {
                     crate = 1;
                     slot = 0;
                     fiber = 1;
                     first_channel = 0;
                     channel_count = lartpc.Mmt_daq.Lartpc.channels;
                   };
               payload = Mmt_daq.Lartpc.serialize_hits hits;
             }
           in
           Mmt.Sender.send_with sender
             ~length:(Mmt_daq.Fragment.total_size fragment)
             (fun w -> Mmt_daq.Fragment.write w fragment)))
  done;
  Mmt_sim.Engine.run engine;
  let stats = Mmt_innet.Alert_generator.stats generator in
  let alert_triggers =
    List.filter_map
      (fun (_at, f) ->
        match f.Mmt_daq.Fragment.detector with
        | Mmt_daq.Fragment.Telescope_alert _ -> Some f.Mmt_daq.Fragment.trigger
        | _ -> None)
      !alerts
  in
  let all_from_burst = List.for_all (fun t -> t >= burst_start) alert_triggers in
  let rows =
    [
      Mmt_telemetry.Report.check ~metric:"P4 switch refuses payload processing"
        ~expected:"header-only discipline on switches (§ 5.3 / [25])"
        ~measured:(if p4_refused then "Switch.attach rejected the element" else "accepted!")
        p4_refused;
      Mmt_telemetry.Report.check ~metric:"DPU generates multi-domain alerts"
        ~expected:"alerts from raw DAQ data along the path (§ 6 challenge 2)"
        ~measured:
          (Printf.sprintf
             "%d fragments inspected, %d threshold crossings, %d alerts delivered \
              to Vera Rubin"
             stats.Mmt_innet.Alert_generator.inspected
             stats.Mmt_innet.Alert_generator.triggers_seen
             (List.length !alerts))
        (stats.Mmt_innet.Alert_generator.inspected = fragment_count
        && List.length !alerts > 0);
      Mmt_telemetry.Report.check ~metric:"alerts fire only on burst data"
        ~expected:"quiet fragments stay below the charge threshold"
        ~measured:
          (Printf.sprintf "alert triggers all >= %d (burst onset): %b" burst_start
             all_from_burst)
        all_from_burst;
      Mmt_telemetry.Report.check ~metric:"data path unaffected"
        ~expected:"every fragment still reaches the analysis facility"
        ~measured:(Printf.sprintf "%d/%d at the sink" !sink_count fragment_count)
        (!sink_count = fragment_count);
    ]
  in
  let report =
    {
      Mmt_telemetry.Report.id = "E-X2";
      title = "in-network alert generation (§ 6 challenge 2)";
      note = None;
      rows;
    }
  in
  (Mmt_telemetry.Report.render report, Mmt_telemetry.Report.all_ok report)
