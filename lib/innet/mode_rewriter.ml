open Mmt_util

type stats = {
  rewritten : int;
  sequenced : int;
  passed : int;
  parse_errors : int;
  degraded : int;
}

(* A compiled transition: how a data frame whose header carries the
   features [input] is rewritten into [mode].  [template] holds the
   output header's shape and the mode's constant fields; [keep] names
   the extensions copied from the incoming header. *)
type plan = {
  plan_mode : Mmt.Mode.t;
  input : Mmt.Feature.Set.t;
  template : Mmt.Header.Template.t;
  keep : Mmt.Feature.Set.t;
  assign : bool;  (* a fresh sequence number is taken *)
  sequenced : bool;  (* the output carries a sequence number *)
  budget : Units.Time.t;  (* the deadline budget, when a deadline is set *)
}

type t = {
  mutable mode : Mmt.Mode.t;
  re_encap : Mmt.Encap.t option;
  pool : Mmt_sim.Pool.t;
  on_rewrite :
    (seq:int option -> born:Mmt_util.Units.Time.t -> Mmt_sim.Packet.t -> unit) option;
  liveness : (Mmt_frame.Addr.Ip.t -> now:Mmt_util.Units.Time.t -> bool) option;
  counters : (Mmt.Experiment_id.t, int) Hashtbl.t;
  mutable degraded_of : (Mmt.Mode.t * Mmt.Mode.t) option;
      (* a base mode and its degraded target, built once per base *)
  mutable plans : plan list;  (* most recently compiled first *)
  mutable compiled : int;
  mutable rewritten : int;
  mutable sequenced : int;
  mutable passed : int;
  mutable parse_errors : int;
  mutable degraded : int;
  element : Element.t Lazy.t;
}

let program =
  {
    Op.name = "mode-rewriter";
    ops =
      [
        Op.Extract "config_id";
        Op.Extract "config_data";
        Op.Extract "experiment_id";
        Op.Compare "kind";
        Op.Register_read "seq[experiment]";
        Op.Register_write "seq[experiment]";
        Op.Set_field "sequence";
        Op.Set_field "retransmit_from";
        Op.Set_field "deadline";
        Op.Set_field "notify";
        Op.Set_field "age.init";
        Op.Set_field "age.last_touch";
        Op.Set_field "pace";
        Op.Set_field "backpressure_to";
        Op.Set_field "int.init";
        Op.Set_field "config_data";
        Op.Emit_digest "rewritten-frame";
      ];
  }

let take_sequence t experiment =
  let current =
    match Hashtbl.find t.counters experiment with
    | n -> n
    | exception Not_found -> 0
  in
  Hashtbl.replace t.counters experiment (current + 1);
  current

let next_sequence t ~experiment =
  Option.value ~default:0 (Hashtbl.find_opt t.counters experiment)

(* The reference semantics, on decoded headers.  The data path runs the
   compiled form of this function ([compile] below); tests hold the two
   to the same bytes. *)
let reference ~mode ~now ~sequence (header : Mmt.Header.t) =
  let target = mode.Mmt.Mode.features in
  let has feature = Mmt.Feature.Set.mem feature target in
  (* Activate / configure target features. *)
  let header =
    if has Mmt.Feature.Sequenced then
      match header.Mmt.Header.sequence with
      | Some _ -> header
      | None ->
          Mmt.Header.with_sequence header (sequence header.Mmt.Header.experiment)
    else Mmt.Header.strip header Mmt.Feature.Sequenced
  in
  let header =
    if has Mmt.Feature.Reliable then
      match mode.Mmt.Mode.retransmit_from with
      | Some buffer -> Mmt.Header.with_retransmit_from header buffer
      | None -> header
    else Mmt.Header.strip header Mmt.Feature.Reliable
  in
  let header =
    if has Mmt.Feature.Timely then
      match (header.Mmt.Header.timely, mode.Mmt.Mode.deadline_budget, mode.Mmt.Mode.notify) with
      | Some _, _, _ -> header (* keep the end-to-end deadline *)
      | None, Some budget, Some notify ->
          Mmt.Header.with_timely header
            { Mmt.Header.deadline = Units.Time.add now budget; notify }
      | None, _, _ -> header
    else Mmt.Header.strip header Mmt.Feature.Timely
  in
  let header =
    if has Mmt.Feature.Age_tracked then
      match (header.Mmt.Header.age, mode.Mmt.Mode.age_budget_us) with
      | Some _, _ -> header
      | None, Some budget_us ->
          Mmt.Header.with_age header
            {
              Mmt.Header.age_us = 0;
              budget_us;
              aged = false;
              hop_count = 0;
              last_touch_ns = now;
            }
      | None, None -> header
    else Mmt.Header.strip header Mmt.Feature.Age_tracked
  in
  let header =
    if has Mmt.Feature.Paced then
      match mode.Mmt.Mode.pace_mbps with
      | Some pace -> Mmt.Header.with_pace header pace
      | None -> header
    else Mmt.Header.strip header Mmt.Feature.Paced
  in
  let header =
    if has Mmt.Feature.Backpressured then
      match (header.Mmt.Header.backpressure_to, mode.Mmt.Mode.backpressure_to) with
      | Some _, _ -> header
      | None, Some control -> Mmt.Header.with_backpressure_to header control
      | None, None -> header
    else Mmt.Header.strip header Mmt.Feature.Backpressured
  in
  let header =
    if has Mmt.Feature.Int_telemetry then
      match header.Mmt.Header.int_stack with
      | Some _ -> header (* keep stamps accumulated upstream *)
      | None -> Mmt.Header.with_int_stack header Mmt.Header.empty_int_stack
    else Mmt.Header.strip header Mmt.Feature.Int_telemetry
  in
  if has Mmt.Feature.Checksummed then Mmt.Header.with_checksummed header
  else Mmt.Header.strip header Mmt.Feature.Checksummed

(* A header with exactly [features] and zero in every field. *)
let zero_header features =
  let open Mmt.Feature in
  let field feature value = if Set.mem feature features then Some value else None in
  let ip = Mmt_frame.Addr.Ip.any and zero = Units.Time.zero in
  Mmt.Header.create
    ?sequence:(field Sequenced 0)
    ?retransmit_from:(field Reliable ip)
    ?timely:(field Timely { Mmt.Header.deadline = zero; notify = ip })
    ?age:
      (field Age_tracked
         { Mmt.Header.age_us = 0; budget_us = 0; aged = false; hop_count = 0; last_touch_ns = zero })
    ?pace_mbps:(field Paced 0)
    ?backpressure_to:(field Backpressured ip)
    ?int_stack:(field Int_telemetry Mmt.Header.empty_int_stack)
    ~extra_features:
      (List.filter (fun f -> Set.mem f features) [ Duplicated; Encrypted; Checksummed ])
    ~experiment:(Mmt.Experiment_id.of_int32 0l)
    ()

(* [reference], decided once per (input features, mode).  The template
   is [reference] applied to a zeroed header of the input's shape at
   time zero: it holds the mode's constant fields.  Each packet then
   copies the fields [reference] keeps from its input (present on both
   sides and not overwritten by the mode) and fills the per-packet ones
   (a new sequence number, now + budget, the age's last touch). *)
let compile ~mode input =
  let open Mmt.Feature in
  let has feature = Set.mem feature mode.Mmt.Mode.features in
  let had feature = Set.mem feature input in
  let overwritten = function
    | Reliable -> Option.is_some mode.Mmt.Mode.retransmit_from
    | Paced -> Option.is_some mode.Mmt.Mode.pace_mbps
    | _ -> false
  in
  let keep =
    Set.of_list
      (List.filter
         (fun f -> has f && had f && not (overwritten f))
         [ Sequenced; Reliable; Timely; Age_tracked; Paced; Backpressured; Int_telemetry ])
  in
  let header =
    reference ~mode ~now:Units.Time.zero ~sequence:(fun _ -> 0) (zero_header input)
  in
  (* Bits this version gives no meaning travel through unchanged. *)
  let undefined = List.fold_left (fun set f -> Set.remove f set) input all in
  {
    plan_mode = mode;
    input;
    template =
      Mmt.Header.Template.make
        ~features:(Set.union header.Mmt.Header.features undefined)
        header;
    keep;
    assign = has Sequenced && not (had Sequenced);
    sequenced = has Sequenced;
    budget = Option.value ~default:Units.Time.zero mode.Mmt.Mode.deadline_budget;
  }

let max_plans = 16

let rec lookup mode input = function
  | [] -> raise_notrace Not_found
  | plan :: rest ->
      if plan.plan_mode == mode && Mmt.Feature.Set.equal plan.input input then plan
      else lookup mode input rest

let plan_for t ~mode input =
  match lookup mode input t.plans with
  | plan -> plan
  | exception Not_found ->
      let plan = compile ~mode input in
      t.compiled <- t.compiled + 1;
      t.plans <- List.filteri (fun i _ -> i < max_plans) (plan :: t.plans);
      plan

(* Graceful degradation: when the mode's named retransmission buffer is
   not live, pointing NAK traffic at it would strand every gap behind a
   corpse.  The oracle may re-point the mode itself ({!set_mode}) and
   answer for the new buffer; if it still answers false, rewrite into
   the mode with Reliable AND Sequenced stripped — the legality
   doctrine of {!Mmt.Mode.transition_legal}: a stream leaving the
   recoverable region leaves it whole.  Frames pass unsequenced and the
   application sees best-effort delivery instead of a hang. *)
let degrade mode =
  {
    mode with
    Mmt.Mode.name = mode.Mmt.Mode.name ^ "/degraded";
    features =
      Mmt.Feature.Set.remove Mmt.Feature.Reliable
        (Mmt.Feature.Set.remove Mmt.Feature.Sequenced
           mode.Mmt.Mode.features);
    retransmit_from = None;
  }

(* One degraded mode per base mode, so a degraded window keeps hitting
   the compiled transitions. *)
let degraded_target t mode =
  match t.degraded_of with
  | Some (base, degraded) when base == mode -> degraded
  | Some _ | None ->
      let degraded = degrade mode in
      t.degraded_of <- Some (mode, degraded);
      degraded

let effective_target t ~now =
  let live =
    match (t.mode.Mmt.Mode.retransmit_from, t.liveness) with
    | Some buffer, Some live -> live buffer ~now
    | _ -> true
  in
  (* Read [t.mode] only now: the oracle may have just replaced it. *)
  if live then t.mode else degraded_target t t.mode

let rewrite t plan ~now packet hv =
  let view = Mmt.Header_vector.view hv in
  let frame = Mmt_sim.Packet.frame packet in
  let mmt_offset = Mmt.Header_vector.mmt_offset hv in
  let seq =
    if Mmt.Feature.Set.mem Mmt.Feature.Sequenced plan.keep then
      Mmt.Header.View.sequence view
    else if plan.assign then take_sequence t (Mmt.Header.View.experiment view)
    else 0
  in
  let deadline = Units.Time.add now plan.budget in
  let payload_offset = mmt_offset + Mmt.Header.View.size view in
  let payload_len = Bytes.length frame - payload_offset in
  let size = Mmt.Header.Template.size plan.template in
  let mmt_length = size + payload_len in
  let out_off =
    match t.re_encap with
    | Some encap -> Mmt.Encap.overhead encap
    | None -> mmt_offset
  in
  let out = Mmt_sim.Pool.acquire t.pool (out_off + mmt_length) in
  (* The encapsulation states the wire length, padding included. *)
  let wire_mmt_length = mmt_length + packet.Mmt_sim.Packet.padding in
  (match t.re_encap with
  | Some encap -> Mmt.Encap.wrap_into encap ~mmt_length:wire_mmt_length out
  | None ->
      Mmt.Encap.rewrap_into ~old_frame:frame ~mmt_offset
        ~mmt_length:wire_mmt_length out);
  Mmt.Header.Template.emit plan.template ~from:view ~keep:plan.keep out
    ~at:out_off ~sequence:seq ~deadline ~last_touch:now;
  Bytes.blit frame payload_offset out (out_off + size) payload_len;
  Mmt_sim.Packet.set_frame packet out;
  (* The packet now owns [out]; the old frame has no other holder. *)
  if frame != out then Mmt_sim.Pool.release t.pool frame;
  Mmt.Header_vector.refresh hv packet;
  t.rewritten <- t.rewritten + 1;
  if plan.assign then t.sequenced <- t.sequenced + 1;
  Option.iter
    (fun callback ->
      callback
        ~seq:(if plan.sequenced then Some seq else None)
        ~born:packet.Mmt_sim.Packet.born packet)
    t.on_rewrite;
  Element.Forward packet

let process t ~now packet =
  let hv = Mmt.Header_vector.of_packet packet in
  if not (Mmt.Header_vector.parsed hv) then begin
    t.parse_errors <- t.parse_errors + 1;
    Element.Discard ("mode-rewriter: " ^ Mmt.Header_vector.error hv)
  end
  else if Mmt.Header_vector.kind hv <> Mmt.Feature.Kind.Data then begin
    t.passed <- t.passed + 1;
    Element.Forward packet
  end
  else if not (Mmt.Header.View.verify (Mmt.Header_vector.view hv)) then begin
    (* A rewrite reseals the header, so a corrupted one would leave
       here with a valid checksum and pass every later check. *)
    t.parse_errors <- t.parse_errors + 1;
    Element.Discard "mode-rewriter: header checksum mismatch"
  end
  else begin
    let mode = effective_target t ~now in
    if mode != t.mode then t.degraded <- t.degraded + 1;
    let input = Mmt.Header.View.features (Mmt.Header_vector.view hv) in
    rewrite t (plan_for t ~mode input) ~now packet hv
  end

let create ~mode ?re_encap ~pool ?on_rewrite ?liveness () =
  (match Mmt.Mode.check mode with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Mode_rewriter.create: " ^ reason));
  let rec t =
    {
      mode;
      re_encap;
      pool;
      on_rewrite;
      liveness;
      counters = Hashtbl.create 8;
      degraded_of = None;
      plans = [];
      compiled = 0;
      rewritten = 0;
      sequenced = 0;
      passed = 0;
      parse_errors = 0;
      degraded = 0;
      element =
        lazy
          {
            Element.name = "mode-rewriter(" ^ mode.Mmt.Mode.name ^ ")";
            program;
            process = (fun ~now packet -> process t ~now packet);
          };
    }
  in
  t

let element t = Lazy.force t.element

let set_mode t mode =
  match Mmt.Mode.check mode with
  | Error reason -> Error ("Mode_rewriter.set_mode: " ^ reason)
  | Ok () -> (
      match Mmt.Mode.transition_legal ~from_mode:t.mode ~to_mode:mode with
      | Error reason -> Error ("Mode_rewriter.set_mode: " ^ reason)
      | Ok () ->
          t.mode <- mode;
          Ok ())

let mode t = t.mode
let compiled t = t.compiled

let stats t =
  {
    rewritten = t.rewritten;
    sequenced = t.sequenced;
    passed = t.passed;
    parse_errors = t.parse_errors;
    degraded = t.degraded;
  }
