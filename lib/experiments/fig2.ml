open Mmt_util

let feature_matrix () =
  let table =
    Table.create ~title:"Fig. 2 feature matrix: today's DAQ transport"
      ~columns:
        [
          ("segment", Table.Left);
          ("transport", Table.Left);
          ("flow control", Table.Left);
          ("congestion control", Table.Left);
          ("retransmission", Table.Left);
          ("age sensitivity", Table.Left);
          ("loss possible", Table.Left);
        ]
      ()
  in
  List.iter (Table.add_row table)
    [
      [ "DAQ network (1->2)"; "UDP / raw Ethernet"; "no"; "no"; "no"; "no"; "no (planned)" ];
      [ "DAQ->WAN (2->4)"; "tuned TCP"; "yes"; "yes"; "from source"; "no"; "corruption" ];
      [ "WAN->campus (4->5)"; "tuned TCP"; "yes"; "yes"; "from source"; "no"; "corruption" ];
    ];
  Table.render table

(* Single-stream throughput at three tuning levels (§ 4.1: ~30 Gbps
   production single stream, 55 Gbps tuned testbed, untuned defaults far
   below). *)
let rate = Units.Rate.gbps 100.
let rtt = Units.Time.ms 13.
let bdp = Units.Rate.bytes_in rate rtt

let autotuned_config =
  (* A general-purpose OS default: 16 MiB buffers, Cubic. *)
  {
    Mmt_tcp.Connection.default_config with
    Mmt_tcp.Connection.max_window = 16 * 1024 * 1024;
    algorithm = Mmt_tcp.Congestion.Cubic;
    min_rto = Units.Time.ms 20.;
  }

let single_stream config transfer =
  Mmt_pilot.Runners.Tcp_run.run
    (Mmt_pilot.Runners.Tcp_run.params ~rate ~rtt ~transfer ~config ())

let multi_stream ~streams ~per_stream_transfer =
  (* N tuned connections sharing one 100 GbE link, demuxed by port. *)
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let ring = Option.get (Mmt_sim.Topology.ring topo) in
  let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
  let a = Mmt_sim.Topology.add_node topo ~name:"src" in
  let b = Mmt_sim.Topology.add_node topo ~name:"dst" in
  let half = Units.Time.scale rtt 0.5 in
  let queue () =
    Mmt_sim.Queue_model.droptail
      ~capacity:(Units.Size.bytes (2 * Units.Size.to_bytes bdp))
      ()
  in
  let forward =
    Mmt_sim.Topology.connect topo ~src:a ~dst:b ~rate ~propagation:half
      ~queue:(queue ()) ()
  in
  let reverse =
    Mmt_sim.Topology.connect topo ~src:b ~dst:a ~rate ~propagation:half
      ~queue:(queue ()) ()
  in
  (* Per-stream windows sized so the aggregate fits the pipe. *)
  let per_stream_bdp = Units.Size.bytes (Units.Size.to_bytes bdp / streams) in
  let config = Mmt_tcp.Connection.tuned_config ~bdp:per_stream_bdp in
  let pairs =
    List.init streams (fun i ->
        let port = i + 1 in
        let sender =
          Mmt_tcp.Connection.create ~engine ~ring ~fresh_id ~config ~port
            ~tx:(Mmt_sim.Link.send forward) ()
        in
        let receiver =
          Mmt_tcp.Connection.create ~engine ~ring ~fresh_id ~config ~port
            ~tx:(Mmt_sim.Link.send reverse) ()
        in
        (sender, receiver))
  in
  Mmt_sim.Node.set_handler a
    (Mmt_tcp.Connection.dispatch ~ring (List.map fst pairs));
  Mmt_sim.Node.set_handler b
    (Mmt_tcp.Connection.dispatch ~ring (List.map snd pairs));
  List.iter
    (fun (sender, _) ->
      Mmt_tcp.Connection.write sender (Units.Size.to_bytes per_stream_transfer);
      Mmt_tcp.Connection.finish sender)
    pairs;
  Mmt_sim.Engine.run ~until:(Units.Time.seconds 120.) engine;
  let fcts =
    List.filter_map
      (fun (sender, _) ->
        (Mmt_tcp.Connection.stats sender).Mmt_tcp.Connection.completed_at)
      pairs
  in
  if List.length fcts < streams then None
  else
    let slowest = List.fold_left Units.Time.max Units.Time.zero fcts in
    let total_bytes = streams * Units.Size.to_bytes per_stream_transfer in
    Some (Units.Rate.of_size_per_time (Units.Size.bytes total_bytes) slowest)

let run () =
  let untuned =
    single_stream Mmt_tcp.Connection.default_config (Units.Size.mib 16)
  in
  let autotuned = single_stream autotuned_config (Units.Size.mib 256) in
  let dtn_tuned =
    single_stream (Mmt_tcp.Connection.tuned_config ~bdp) (Units.Size.gib 2)
  in
  let aggregate =
    multi_stream ~streams:4 ~per_stream_transfer:(Units.Size.mib 512)
  in
  (* HoL study: messages offered at 500 Mbps, far below what the tuned
     stream sustains, so any latency inflation is queueing behind a
     retransmission hole rather than slow-start backlog. *)
  let hol_params loss =
    Mmt_pilot.Runners.Tcp_run.params ~rate ~rtt ~loss
      ~transfer:(Units.Size.mib 64) ~message_size:(Units.Size.kib 64)
      ~offered:(Units.Rate.mbps 500.) ()
  in
  let hol_clean = Mmt_pilot.Runners.Tcp_run.run (hol_params 0.) in
  let hol_lossy = Mmt_pilot.Runners.Tcp_run.run (hol_params 0.001) in
  let udp = Mmt_pilot.Runners.Udp_run.run ~loss:0.001 ~datagrams:20_000 () in
  let gbps o =
    Units.Rate.to_gbps o.Mmt_pilot.Runners.Tcp_run.throughput
  in
  let rows =
    [
      Mmt_telemetry.Report.check ~metric:"untuned TCP single stream"
        ~expected:"defaults are far below link rate (§ 4.1)"
        ~measured:(Printf.sprintf "%.3f Gbps (64 KiB window, Reno)" (gbps untuned))
        (gbps untuned < 1.);
      Mmt_telemetry.Report.check ~metric:"autotuned TCP single stream"
        ~expected:"single-digit Gbps without operator tuning"
        ~measured:(Printf.sprintf "%.2f Gbps (16 MiB buffers, Cubic)" (gbps autotuned))
        (gbps autotuned > 1. && gbps autotuned < 15.);
      Mmt_telemetry.Report.check ~metric:"DTN-tuned TCP single stream"
        ~expected:"~30 Gbps production / 55 Gbps testbed [46, 66]"
        ~measured:
          (Printf.sprintf "%.1f Gbps (BDP windows, jumbo MSS, 2 GiB transfer)"
             (gbps dtn_tuned))
        (gbps dtn_tuned > 25.);
      (match aggregate with
      | Some rate ->
          Mmt_telemetry.Report.check ~metric:"4 tuned streams, one 100 GbE link"
            ~expected:"multiple streams approach line rate (~100 Gbps) [46]"
            ~measured:(Printf.sprintf "%.1f Gbps aggregate" (Units.Rate.to_gbps rate))
            (Units.Rate.to_gbps rate > Units.Rate.to_gbps dtn_tuned.Mmt_pilot.Runners.Tcp_run.throughput
            && Units.Rate.to_gbps rate > 40.)
      | None ->
          Mmt_telemetry.Report.check ~metric:"4 tuned streams"
            ~expected:"complete" ~measured:"did not complete" false);
      Mmt_telemetry.Report.check ~metric:"message p99 latency, clean path"
        ~expected:"about one-way latency (~6.5 ms)"
        ~measured:(Printf.sprintf "%.2f ms" (hol_clean.Mmt_pilot.Runners.Tcp_run.message_latency_p99 *. 1e3))
        (hol_clean.Mmt_pilot.Runners.Tcp_run.message_latency_p99 < 0.012);
      Mmt_telemetry.Report.check ~metric:"message max latency, 0.1% loss"
        ~expected:"head-of-line blocking inflates tail (§ 4.1 point 1)"
        ~measured:
          (Printf.sprintf "%.2f ms vs %.2f ms clean"
             (hol_lossy.Mmt_pilot.Runners.Tcp_run.message_latency_max *. 1e3)
             (hol_clean.Mmt_pilot.Runners.Tcp_run.message_latency_max *. 1e3))
        (hol_lossy.Mmt_pilot.Runners.Tcp_run.message_latency_max
        > 2. *. hol_clean.Mmt_pilot.Runners.Tcp_run.message_latency_max);
      Mmt_telemetry.Report.check ~metric:"UDP in the DAQ segment"
        ~expected:"loss is unrecoverable (no retransmission at stage 1)"
        ~measured:
          (Printf.sprintf "%d of %d datagrams lost forever"
             udp.Mmt_pilot.Runners.Udp_run.lost udp.Mmt_pilot.Runners.Udp_run.sent)
        (udp.Mmt_pilot.Runners.Udp_run.lost > 0);
    ]
  in
  let report =
    {
      Mmt_telemetry.Report.id = "E-F2";
      title = "Fig. 2 / § 4.1: today's transport (TCP/UDP baselines)";
      note = Some "100 GbE, 13 ms WAN RTT; throughputs include slow-start ramp";
      rows;
    }
  in
  ( feature_matrix () ^ "\n" ^ Mmt_telemetry.Report.render report,
    Mmt_telemetry.Report.all_ok report )
