open Mmt_util

type profile = { profile_name : string; pipeline_latency : Units.Time.t }

let tofino2 = { profile_name = "tofino2"; pipeline_latency = Units.Time.ns 450 }
let alveo_smartnic = { profile_name = "alveo-smartnic"; pipeline_latency = Units.Time.us 2. }
let software_switch = { profile_name = "software"; pipeline_latency = Units.Time.us 20. }

type stats = {
  processed : int;
  forwarded : int;
  replicated : int;
  discarded : int;
  unrouted : int;
}

type t = {
  engine : Mmt_sim.Engine.t;
  node : Mmt_sim.Node.t;
  profile : profile;
  elements : Element.t list;
  route : Mmt_sim.Packet.t -> (Mmt_sim.Packet.t -> unit) option;
  ring : Mmt_sim.Ring.t;
  mutable on_pipeline : unit -> unit; (* preallocated; set in attach *)
  (* Ingress FIFO: the pipeline latency is a per-device constant, so
     packets leave the pipeline in arrival order and one shared closure
     popping this queue replaces a fresh closure per packet. *)
  pending : Mmt_sim.Packet.Fifo.t;
  mutable processed : int;
  mutable forwarded : int;
  mutable replicated : int;
  mutable discarded : int;
  mutable unrouted : int;
}

let retire t packet = Mmt_sim.Ring.in_packet_done t.ring packet

let emit t packet =
  match t.route packet with
  | Some sink ->
      t.forwarded <- t.forwarded + 1;
      sink packet
  | None ->
      t.unrouted <- t.unrouted + 1;
      (* No sink: the switch was the packet's last holder. *)
      retire t packet

let pipeline t =
  let packet = Mmt_sim.Packet.Fifo.pop t.pending in
  let now = Mmt_sim.Engine.now t.engine in
  match Element.chain t.elements ~now packet with
  | Element.Forward packet -> emit t packet
  | Element.Replicate packets ->
      t.replicated <- t.replicated + max 0 (List.length packets - 1);
      List.iter (emit t) packets
  | Element.Discard _reason ->
      t.discarded <- t.discarded + 1;
      retire t packet

let handle t packet =
  t.processed <- t.processed + 1;
  Mmt_sim.Packet.Fifo.push t.pending packet;
  ignore
    (Mmt_sim.Engine.schedule_after t.engine ~delay:t.profile.pipeline_latency
       t.on_pipeline)

let attach ~engine ~node ~profile ?(allow_payload = false) ~ring ~elements
    ~route () =
  List.iter
    (fun (element : Element.t) ->
      match Op.realizable ~allow_payload element.Element.program with
      | Ok () -> ()
      | Error reason -> invalid_arg ("Switch.attach: " ^ reason))
    elements;
  let t =
    {
      engine;
      node;
      profile;
      elements;
      route;
      ring;
      on_pipeline = ignore;
      pending = Mmt_sim.Packet.Fifo.create ();
      processed = 0;
      forwarded = 0;
      replicated = 0;
      discarded = 0;
      unrouted = 0;
    }
  in
  t.on_pipeline <- (fun () -> pipeline t);
  Mmt_sim.Node.set_handler node (handle t);
  t

let stats t =
  {
    processed = t.processed;
    forwarded = t.forwarded;
    replicated = t.replicated;
    discarded = t.discarded;
    unrouted = t.unrouted;
  }

let name t = Mmt_sim.Node.name t.node ^ "/" ^ t.profile.profile_name
