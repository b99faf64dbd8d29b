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
  (* The pipeline latency is a per-device constant, so packets in the
     pipeline are one delay line and hold one heap entry between them. *)
  mutable pending : Mmt_sim.Packet.t Mmt_sim.Engine.Line.t; (* set in attach *)
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

let pipeline t packet =
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
  Mmt_sim.Engine.Line.push t.pending packet

(* Placeholder for [pending] until [attach] has the switch its line
   delivers to; never pushed. *)
let no_pipeline =
  Mmt_sim.Engine.Line.create (Mmt_sim.Engine.create ())
    ~delay:Units.Time.zero ~filler:Mmt_sim.Packet.none ignore

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
      pending = no_pipeline;
      processed = 0;
      forwarded = 0;
      replicated = 0;
      discarded = 0;
      unrouted = 0;
    }
  in
  t.pending <-
    Mmt_sim.Engine.Line.create engine ~delay:profile.pipeline_latency
      ~filler:Mmt_sim.Packet.none (pipeline t);
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
