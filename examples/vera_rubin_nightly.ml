(* Vera Rubin's two concurrent streams (§ 2.1): the nightly 30 TB bulk
   capture and the 5.4 Gbps alert burst stream that must reach
   researchers within milliseconds.  Alerts carry the Timely feature;
   the bottleneck link runs either a plain drop-tail queue or the
   deadline-aware queue of § 5.3 ("explicit transport deadlines ...
   an input to active queue management").

   The run shows the deadline-aware queue letting alerts overtake bulk
   data under congestion, cutting the late fraction to zero.

   Run with: dune exec examples/vera_rubin_nightly.exe *)

open Mmt_util
open Mmt_frame

let telescope_ip = Addr.Ip.of_octets 10 2 0 1
let archive_ip = Addr.Ip.of_octets 10 2 0 2
let link_rate = Units.Rate.gbps 10.
let alert_deadline = Units.Time.ms 12.
let alert_count = 1000
let bulk_count = 10000

(* Deadline extraction for the queue: parse the frame like a switch
   pipeline would and use the Timely extension when present. *)
let deadline_of packet =
  let hv = Mmt.Header_vector.of_packet packet in
  let view = Mmt.Header_vector.view hv in
  if Mmt.Header_vector.parsed hv && Mmt.Header.View.has view Mmt.Feature.Timely then
    Some (Mmt.Header.View.deadline_ns view)
  else None

let run ~deadline_aware =
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let ring = Option.get (Mmt_sim.Topology.ring topo) in
  let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
  let telescope = Mmt_sim.Topology.add_node topo ~name:"telescope" in
  let archive = Mmt_sim.Topology.add_node topo ~name:"archive" in
  let queue =
    if deadline_aware then
      Mmt_sim.Queue_model.deadline_aware ~capacity:(Units.Size.mib 32)
        ~drop_expired:false ~deadline_of ()
    else Mmt_sim.Queue_model.droptail ~capacity:(Units.Size.mib 32) ()
  in
  let wan =
    Mmt_sim.Topology.connect topo ~src:telescope ~dst:archive ~rate:link_rate
      ~propagation:(Units.Time.ms 5.) ~queue ()
  in
  ignore
    (Mmt_sim.Topology.connect topo ~src:archive ~dst:telescope ~rate:link_rate
       ~propagation:(Units.Time.ms 5.) ());
  let router = Mmt_innet.Router.create ~default:(Mmt_sim.Link.send wan) ~ring 0 in
  let env = Mmt_innet.Router.env router ~engine ~fresh_id ~local_ip:telescope_ip in
  let vera_rubin = Mmt_daq.Experiment.find Mmt_daq.Experiment.Vera_rubin in
  let bulk_sender =
    Mmt.Sender.create ~env
      {
        Mmt.Sender.experiment = vera_rubin.Mmt_daq.Experiment.id;
        destination = archive_ip;
        encap = Mmt.Encap.Over_ipv4
            { src = telescope_ip; dst = archive_ip; dscp = 0; ttl = 64 };
        deadline_budget = None;
      }
  in
  let alert_sender =
    Mmt.Sender.create ~env
      {
        Mmt.Sender.experiment =
          Mmt.Experiment_id.with_slice vera_rubin.Mmt_daq.Experiment.id 1;
        destination = archive_ip;
        encap = Mmt.Encap.Over_ipv4
            { src = telescope_ip; dst = archive_ip; dscp = 46; ttl = 64 };
        deadline_budget = Some (alert_deadline, Addr.Ip.any);
      }
  in
  (* Receivers: alerts vs bulk, demuxed by instrument slice. *)
  let receiver_config expected =
    {
      Mmt.Receiver.experiment = vera_rubin.Mmt_daq.Experiment.id;
      nak_delay = Units.Time.ms 1.;
      nak_retry_timeout = Units.Time.ms 20.;
      max_nak_retries = 3;
      expected_total = Some expected;
    }
  in
  let env_archive =
    Mmt_innet.Router.env
      (Mmt_innet.Router.create ~default:(Mmt_sim.Ring.in_packet_done ring) ~ring 0)
      ~engine ~fresh_id ~local_ip:archive_ip
  in
  let bulk_rx = Mmt.Receiver.create ~env:env_archive (receiver_config bulk_count)
      ~deliver:(fun _ _ -> ()) in
  let alert_rx = Mmt.Receiver.create ~env:env_archive (receiver_config alert_count)
      ~deliver:(fun _ _ -> ()) in
  Mmt_sim.Node.set_handler archive (fun packet ->
      let hv = Mmt.Header_vector.of_packet packet in
      if not (Mmt.Header_vector.parsed hv) then Mmt_sim.Ring.in_packet_done ring packet
      else if
        Mmt.Experiment_id.slice (Mmt.Header.View.experiment (Mmt.Header_vector.view hv)) = 1
      then Mmt.Receiver.on_packet alert_rx packet
      else Mmt.Receiver.on_packet bulk_rx packet);
  (* Offered load: bulk at 12 Gbps (oversubscribing the 10 GbE WAN for a
     burst, as the nightly transfer does), alerts at their 5.4 Gbps
     burst shape scaled down. *)
  let bulk_payload = Bytes.make 8192 'B' in
  let bulk_gap = Units.Rate.transmission_time (Units.Rate.gbps 12.) (Units.Size.bytes 8192) in
  for i = 0 to bulk_count - 1 do
    ignore
      (Mmt_sim.Engine.schedule engine
         ~at:(Units.Time.scale bulk_gap (float_of_int i))
         (fun () -> Mmt.Sender.send bulk_sender bulk_payload))
  done;
  let alert_payload = Bytes.make 1024 'A' in
  let alert_gap = Units.Rate.transmission_time (Units.Rate.mbps 200.) (Units.Size.bytes 1024) in
  for i = 0 to alert_count - 1 do
    ignore
      (Mmt_sim.Engine.schedule engine
         ~at:(Units.Time.scale alert_gap (float_of_int i))
         (fun () -> Mmt.Sender.send alert_sender alert_payload))
  done;
  Mmt_sim.Engine.run ~until:(Units.Time.seconds 30.) engine;
  (Mmt.Receiver.stats alert_rx, Mmt.Receiver.stats bulk_rx)

let () =
  print_endline "Vera Rubin: nightly bulk capture + deadline-bearing alert stream";
  print_endline "-----------------------------------------------------------------";
  Printf.printf "WAN: %s, alerts carry a %s delivery deadline\n\n"
    (Units.Rate.to_string link_rate)
    (Units.Time.to_string alert_deadline);
  let describe name (alerts : Mmt.Receiver.stats) (bulk : Mmt.Receiver.stats) =
    Printf.printf "%-22s alerts: %d/%d delivered, %d late | bulk: %d delivered\n" name
      alerts.Mmt.Receiver.delivered alert_count alerts.Mmt.Receiver.late
      bulk.Mmt.Receiver.delivered
  in
  let alerts_dt, bulk_dt = run ~deadline_aware:false in
  describe "drop-tail queue:" alerts_dt bulk_dt;
  let alerts_edf, bulk_edf = run ~deadline_aware:true in
  describe "deadline-aware queue:" alerts_edf bulk_edf;
  print_newline ();
  Printf.printf
    "Deadline-aware queueing (deadlines as input to AQM, § 5.3) cut late\n\
     alerts from %d to %d while the bulk stream still delivered %d fragments.\n"
    alerts_dt.Mmt.Receiver.late alerts_edf.Mmt.Receiver.late
    bulk_edf.Mmt.Receiver.delivered
