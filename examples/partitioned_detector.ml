(* Instrument partitioning and event building (Req 8, Req 9): DUNE's
   four detector slices stream simultaneously — each fragment's
   experiment identifier carries its slice — and the analysis facility
   reassembles complete physics events from the four per-slice
   fragments sharing a trigger number.

   Run with: dune exec examples/partitioned_detector.exe *)

open Mmt_util
open Mmt_frame

let slices = [ 0; 1; 2; 3 ]
let triggers = 300
let detector_ip = Addr.Ip.of_octets 10 3 0 1
let facility_ip = Addr.Ip.of_octets 10 3 0 2

let () =
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let ring = Option.get (Mmt_sim.Topology.ring topo) in
  let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
  let detector = Mmt_sim.Topology.add_node topo ~name:"detector" in
  let facility = Mmt_sim.Topology.add_node topo ~name:"facility" in
  let daq_link =
    Mmt_sim.Topology.connect topo ~src:detector ~dst:facility
      ~rate:(Units.Rate.gbps 100.) ~propagation:(Units.Time.us 10.) ()
  in
  let router = Mmt_innet.Router.create ~default:(Mmt_sim.Link.send daq_link) ~ring 0 in
  let env = Mmt_innet.Router.env router ~engine ~fresh_id ~local_ip:detector_ip in
  let dune_experiment = Mmt_daq.Experiment.find Mmt_daq.Experiment.Dune in

  (* One mode-0 sender per detector slice — "DUNE's four detectors each
     have specific headers but they all share a top-level DAQ header". *)
  let sender_for _slice =
    Mmt.Sender.create ~env
      {
        Mmt.Sender.experiment = dune_experiment.Mmt_daq.Experiment.id;
        destination = facility_ip;
        encap = Mmt.Encap.Raw;
        deadline_budget = None;
      }
  in
  let senders = List.map (fun slice -> (slice, sender_for slice)) slices in

  (* The event builder at the facility: an event is complete when every
     slice's fragment for a trigger has arrived. *)
  let builder =
    Mmt_daq.Event_builder.create ~slices ~timeout:(Units.Time.ms 50.)
  in
  let complete_events = ref [] in
  let per_slice = Hashtbl.create 8 in
  Mmt_sim.Node.set_handler facility (fun packet ->
      (match
         Result.bind (Mmt.Encap.parse (Mmt_sim.Packet.frame packet))
           (fun (_header, payload) -> Mmt_daq.Fragment.read_header payload)
       with
      | Error _ -> ()
      | Ok h ->
          let slice = Mmt.Experiment_id.slice h.Mmt_daq.Fragment.experiment in
          Hashtbl.replace per_slice slice
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_slice slice));
          (match
             Mmt_daq.Event_builder.add builder ~now:(Mmt_sim.Engine.now engine)
               ~run:h.Mmt_daq.Fragment.run ~trigger:h.Mmt_daq.Fragment.trigger
               ~slice
           with
          | Some event -> complete_events := event :: !complete_events
          | None -> ()));
      (* The facility is the packet's last holder. *)
      Mmt_sim.Ring.in_packet_done ring packet);

  (* Each slice digitizes the same trigger cadence; per-slice LArTPC
     waveform payloads differ (different wires saw different charge). *)
  let lartpc =
    { Mmt_daq.Lartpc.iceberg with Mmt_daq.Lartpc.channels = 8; samples_per_channel = 64 }
  in
  let rng = Rng.create ~seed:99L in
  let trigger_gap = Units.Time.us 50. in
  List.iter
    (fun (slice, sender) ->
      let slice_rng = Rng.split rng in
      for trigger = 0 to triggers - 1 do
        ignore
          (Mmt_sim.Engine.schedule engine
             ~at:(Units.Time.scale trigger_gap (float_of_int trigger))
             (fun () ->
               let window =
                 Mmt_daq.Lartpc.generate_window lartpc slice_rng
                   ~activity:Mmt_daq.Lartpc.Cosmic
               in
               let fragment =
                 {
                   Mmt_daq.Fragment.run = 5;
                   trigger;
                   timestamp = Mmt_sim.Engine.now engine;
                   experiment =
                     Mmt.Experiment_id.with_slice dune_experiment.Mmt_daq.Experiment.id
                       slice;
                   detector =
                     Mmt_daq.Fragment.Wib_ethernet
                       {
                         crate = 1;
                         slot = slice;
                         fiber = 1;
                         first_channel = 0;
                         channel_count = lartpc.Mmt_daq.Lartpc.channels;
                       };
                   payload = Mmt_daq.Lartpc.serialize_window window;
                 }
               in
               Mmt.Sender.send_with sender
                 ~length:(Mmt_daq.Fragment.total_size fragment)
                 (fun w -> Mmt_daq.Fragment.write w fragment)))
      done)
    senders;
  Mmt_sim.Engine.run engine;

  print_endline "Partitioned detector -> event builder (Req 8 / Req 9)";
  print_endline "-------------------------------------------------------";
  List.iter
    (fun slice ->
      Printf.printf "slice %d fragments received: %d\n" slice
        (Option.value ~default:0 (Hashtbl.find_opt per_slice slice)))
    slices;
  let stats = Mmt_daq.Event_builder.stats builder in
  Printf.printf "\ncomplete events assembled : %d / %d\n" stats.Mmt_daq.Event_builder.complete
    triggers;
  Printf.printf "incomplete (timed out)    : %d\n" stats.Mmt_daq.Event_builder.timed_out;
  (match !complete_events with
  | event :: _ ->
      let build_time =
        Units.Time.diff event.Mmt_daq.Event_builder.completed_at
          event.Mmt_daq.Event_builder.opened_at
      in
      Printf.printf "sample event: run %d trigger %d, %d fragments, built in %s\n"
        event.Mmt_daq.Event_builder.run event.Mmt_daq.Event_builder.trigger
        (List.length event.Mmt_daq.Event_builder.slices)
        (Units.Time.to_string build_time)
  | [] -> ());
  if stats.Mmt_daq.Event_builder.complete = triggers then
    print_endline "\nevery trigger produced a complete four-slice event."
