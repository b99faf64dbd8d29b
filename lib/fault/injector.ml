open Mmt_util

type subject = { fail : unit -> unit; restart : unit -> unit }

type t = {
  engine : Mmt_sim.Engine.t;
  rng : Rng.t;
  trace : Mmt_sim.Trace.t option;
  links : (string, Mmt_sim.Link.t) Hashtbl.t;
  saved_rates : (string, Units.Rate.t) Hashtbl.t;
  elements : (string, subject) Hashtbl.t;
  controls : (string, bool -> unit) Hashtbl.t;
  mutable applied : int;
  mutable log : (Units.Time.t * string) list;
}

let create ?trace ?(seed = 0xFA17L) ~engine ~links () =
  let table = Hashtbl.create 16 in
  List.iter
    (fun link -> Hashtbl.replace table (Mmt_sim.Link.name link) link)
    links;
  {
    engine;
    rng = Rng.create ~seed;
    trace;
    links = table;
    saved_rates = Hashtbl.create 8;
    elements = Hashtbl.create 8;
    controls = Hashtbl.create 4;
    applied = 0;
    log = [];
  }

let of_topology ?trace ?seed topo =
  create ?trace ?seed
    ~engine:(Mmt_sim.Topology.engine topo)
    ~links:(Mmt_sim.Topology.links topo)
    ()

let register_element t name ~fail ~restart =
  Hashtbl.replace t.elements name { fail; restart }

let register_control t name set = Hashtbl.replace t.controls name set

let link_exn t name =
  match Hashtbl.find_opt t.links name with
  | Some link -> link
  | None -> invalid_arg ("Fault.Injector: unknown link " ^ name)

let element_exn t name =
  match Hashtbl.find_opt t.elements name with
  | Some subject -> subject
  | None -> invalid_arg ("Fault.Injector: unregistered element " ^ name)

let control_exn t name =
  match Hashtbl.find_opt t.controls name with
  | Some set -> set
  | None -> invalid_arg ("Fault.Injector: unregistered control plane " ^ name)

(* Arming validates every referenced name up front, so a misspelled
   plan fails at t=0, not halfway into a long run. *)
let validate t action =
  match (action : Plan.action) with
  | Plan.Link_down name
  | Plan.Link_up name
  | Plan.Restore_rate name
  | Plan.Stop_corrupting name ->
      ignore (link_exn t name)
  | Plan.Degrade_rate { link; _ } | Plan.Corrupt_headers { link; _ } ->
      ignore (link_exn t link)
  | Plan.Partition names | Plan.Heal names ->
      List.iter (fun name -> ignore (link_exn t name)) names
  | Plan.Fail_element name | Plan.Restart_element name ->
      ignore (element_exn t name)
  | Plan.Blackhole_adverts name | Plan.Unblackhole_adverts name ->
      ignore (control_exn t name : bool -> unit)

(* One independent splitmix stream drives all bit flips; links draw
   nothing, so arming a corruptor never perturbs the loss-model or
   workload streams of the underlying scenario. *)
let corruptor t ~probability ~bits packet =
  if Rng.float t.rng >= probability then false
  else begin
    let frame = Mmt_sim.Packet.frame packet in
    let hv = Mmt.Header_vector.of_packet packet in
    let off = if Mmt.Header_vector.located hv then Mmt.Header_vector.mmt_offset hv else 0 in
    let span =
      if Mmt.Header_vector.parsed hv then
        Mmt.Header.View.size (Mmt.Header_vector.view hv)
      else Bytes.length frame - off
    in
    if span <= 0 then false
    else begin
      for _ = 1 to bits do
        let byte = off + Rng.int t.rng ~bound:span in
        let bit = Rng.int t.rng ~bound:8 in
        Bytes.set frame byte
          (Char.chr (Char.code (Bytes.get frame byte) lxor (1 lsl bit)))
      done;
      true
    end
  end

let note t action =
  let now = Mmt_sim.Engine.now t.engine in
  let what = Plan.describe_action action in
  t.applied <- t.applied + 1;
  t.log <- (now, what) :: t.log;
  Option.iter
    (fun trace -> Mmt_sim.Trace.record_fault trace ~at:now ~what)
    t.trace

let apply t action =
  (match (action : Plan.action) with
  | Plan.Link_down name -> Mmt_sim.Link.set_up (link_exn t name) false
  | Plan.Link_up name -> Mmt_sim.Link.set_up (link_exn t name) true
  | Plan.Partition names ->
      List.iter (fun name -> Mmt_sim.Link.set_up (link_exn t name) false) names
  | Plan.Heal names ->
      List.iter (fun name -> Mmt_sim.Link.set_up (link_exn t name) true) names
  | Plan.Degrade_rate { link = name; factor } ->
      let link = link_exn t name in
      let original =
        match Hashtbl.find_opt t.saved_rates name with
        | Some rate -> rate
        | None ->
            let rate = Mmt_sim.Link.rate link in
            Hashtbl.replace t.saved_rates name rate;
            rate
      in
      Mmt_sim.Link.set_rate link (Units.Rate.scale original factor)
  | Plan.Restore_rate name ->
      Option.iter
        (Mmt_sim.Link.set_rate (link_exn t name))
        (Hashtbl.find_opt t.saved_rates name)
  | Plan.Fail_element name -> (element_exn t name).fail ()
  | Plan.Restart_element name -> (element_exn t name).restart ()
  | Plan.Blackhole_adverts name -> (control_exn t name) true
  | Plan.Unblackhole_adverts name -> (control_exn t name) false
  | Plan.Corrupt_headers { link = name; probability; bits } ->
      Mmt_sim.Link.set_tamper (link_exn t name)
        (Some (corruptor t ~probability ~bits))
  | Plan.Stop_corrupting name -> Mmt_sim.Link.set_tamper (link_exn t name) None);
  note t action

let arm t plan =
  List.iter
    (fun (e : Plan.event) ->
      validate t e.Plan.action;
      ignore
        (Mmt_sim.Engine.schedule t.engine ~at:e.Plan.at (fun () ->
             apply t e.Plan.action)))
    (Plan.events plan)

let applied t = t.applied
let log t = List.rev t.log
