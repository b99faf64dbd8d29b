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
  elements : Element.t list;
  router : Router.t;
  hv : Mmt.Header_vector.t;
      (* the header vector every stage of a pass reads (one parse) *)
  (* The pipeline latency is a per-device constant, so packets in the
     pipeline are one delay line and hold one heap entry between them. *)
  mutable pending : Mmt_sim.Packet.t Mmt_sim.Engine.Line.t; (* set in attach *)
  mutable processed : int;
  mutable forwarded : int;
  mutable replicated : int;
  mutable discarded : int;
  mutable unrouted : int;
}

let retire t packet = Mmt_sim.Ring.in_packet_done (Router.ring t.router) packet

let emit t packet =
  let dst = Mmt.Header_vector.ip_dst (Mmt.Header_vector.of_packet packet) in
  if Router.forward t.router dst packet then t.forwarded <- t.forwarded + 1
  else t.unrouted <- t.unrouted + 1

let pass t packet =
  let now = Mmt_sim.Engine.now t.engine in
  match Element.chain t.elements ~now packet with
  | Element.Forward packet -> emit t packet
  | Element.Replicate packets ->
      t.replicated <- t.replicated + max 0 (List.length packets - 1);
      List.iter (emit t) packets
  | Element.Discard _reason ->
      t.discarded <- t.discarded + 1;
      retire t packet

(* One parse per pass: the elements and the table read [t.hv] through
   [Header_vector.of_packet] while the pass has it entered. *)
let pipeline t packet =
  Mmt.Header_vector.parse t.hv packet;
  let outer = Mmt.Header_vector.enter t.hv in
  match pass t packet with
  | () -> Mmt.Header_vector.leave outer
  | exception e ->
      Mmt.Header_vector.leave outer;
      raise e

let handle t packet =
  t.processed <- t.processed + 1;
  Mmt_sim.Engine.Line.push t.pending packet

(* Placeholder for [pending] until [attach] has the switch its line
   delivers to; never pushed. *)
let no_pipeline =
  Mmt_sim.Engine.Line.create (Mmt_sim.Engine.create ())
    ~delay:Units.Time.zero ~filler:Mmt_sim.Packet.none ignore

let attach ~engine ~node ~profile ?(allow_payload = false) ~router ~elements
    () =
  List.iter
    (fun (element : Element.t) ->
      match Op.realizable ~allow_payload element.Element.program with
      | Ok () -> ()
      | Error reason -> invalid_arg ("Switch.attach: " ^ reason))
    elements;
  let t =
    {
      engine;
      elements;
      router;
      hv = Mmt.Header_vector.create ();
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

let parses t = Mmt.Header_vector.parses t.hv
let refreshes t = Mmt.Header_vector.refreshes t.hv
