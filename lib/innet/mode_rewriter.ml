open Mmt_util

type stats = {
  rewritten : int;
  sequenced : int;
  passed : int;
  parse_errors : int;
  degraded : int;
}

type t = {
  mutable mode : Mmt.Mode.t;
  re_encap : Mmt.Encap.t option;
  pool : Mmt_sim.Pool.t;
  on_rewrite :
    (seq:int option -> born:Mmt_util.Units.Time.t -> Mmt_sim.Packet.t -> unit) option;
  liveness : (Mmt_frame.Addr.Ip.t -> now:Mmt_util.Units.Time.t -> bool) option;
  counters : (Mmt.Experiment_id.t, int) Hashtbl.t;
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
  let current = Option.value ~default:0 (Hashtbl.find_opt t.counters experiment) in
  Hashtbl.replace t.counters experiment (current + 1);
  current

let next_sequence t ~experiment =
  Option.value ~default:0 (Hashtbl.find_opt t.counters experiment)

let apply_mode t ~mode ~now (header : Mmt.Header.t) =
  let target = mode.Mmt.Mode.features in
  let has feature = Mmt.Feature.Set.mem feature target in
  (* Activate / configure target features. *)
  let header, assigned_seq =
    if has Mmt.Feature.Sequenced then
      match header.Mmt.Header.sequence with
      | Some _ -> (header, None)
      | None ->
          let seq = take_sequence t header.Mmt.Header.experiment in
          (Mmt.Header.with_sequence header seq, Some seq)
    else (Mmt.Header.strip header Mmt.Feature.Sequenced, None)
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
  let header =
    if has Mmt.Feature.Checksummed then Mmt.Header.with_checksummed header
    else Mmt.Header.strip header Mmt.Feature.Checksummed
  in
  (header, assigned_seq)

(* Graceful degradation: when the mode's named retransmission buffer is
   not live, pointing NAK traffic at it would strand every gap behind a
   corpse.  The oracle may re-point the mode itself ({!set_mode}) and
   answer for the new buffer; if it still answers false, rewrite into
   the mode with Reliable AND Sequenced stripped — the legality
   doctrine of {!Mmt.Mode.transition_legal}: a stream leaving the
   recoverable region leaves it whole.  Frames pass unsequenced and the
   application sees best-effort delivery instead of a hang. *)
let degraded_target mode =
  {
    mode with
    Mmt.Mode.name = mode.Mmt.Mode.name ^ "/degraded";
    features =
      Mmt.Feature.Set.remove Mmt.Feature.Reliable
        (Mmt.Feature.Set.remove Mmt.Feature.Sequenced
           mode.Mmt.Mode.features);
    retransmit_from = None;
  }

let effective_target t ~now =
  let live =
    match (t.mode.Mmt.Mode.retransmit_from, t.liveness) with
    | Some buffer, Some live -> live buffer ~now
    | _ -> true
  in
  (* Read [t.mode] only now: the oracle may have just replaced it. *)
  if live then t.mode else degraded_target t.mode

(* Slow path: the header's shape (feature set) differs from the mode's
   target, so extensions must be added or stripped — decode the full
   record, transform it, and re-encode. *)
let rewrite_slow t ~mode ~now packet ~frame ~mmt_offset header =
  let old_header_size = Mmt.Header.size header in
  let new_header, assigned_seq = apply_mode t ~mode ~now header in
  let payload_offset = mmt_offset + old_header_size in
  let payload_len = Bytes.length frame - payload_offset in
  let new_mmt_header = Mmt.Header.encode new_header in
  let new_header_size = Bytes.length new_mmt_header in
  let mmt_length = new_header_size + payload_len in
  let out_off =
    match t.re_encap with
    | Some encap -> Mmt.Encap.overhead encap
    | None -> mmt_offset
  in
  let new_frame = Mmt_sim.Pool.acquire t.pool (out_off + mmt_length) in
  (* The encapsulation states the wire length, padding included. *)
  let wire_mmt_length = mmt_length + packet.Mmt_sim.Packet.padding in
  (match t.re_encap with
  | Some encap -> Mmt.Encap.wrap_into encap ~mmt_length:wire_mmt_length new_frame
  | None ->
      Mmt.Encap.rewrap_into ~old_frame:frame ~mmt_offset
        ~mmt_length:wire_mmt_length new_frame);
  Bytes.blit new_mmt_header 0 new_frame out_off new_header_size;
  Bytes.blit frame payload_offset new_frame (out_off + new_header_size)
    payload_len;
  Mmt_sim.Packet.set_frame packet new_frame;
  (* The packet now owns [new_frame]; the pre-rewrite frame has no
     other holder — recycle it instead of leaking it to the GC. *)
  if frame != new_frame then Mmt_sim.Pool.release t.pool frame;
  t.rewritten <- t.rewritten + 1;
  (match assigned_seq with
  | Some _ -> t.sequenced <- t.sequenced + 1
  | None -> ());
  Option.iter
    (fun callback ->
      callback ~seq:new_header.Mmt.Header.sequence
        ~born:packet.Mmt_sim.Packet.born packet)
    t.on_rewrite;
  Element.Forward packet

(* Fast path: the header already has exactly the mode's feature set, so
   no extension appears or disappears and the header size is unchanged.
   [apply_mode] then reduces to two conditional same-width overwrites
   (the mode's retransmit buffer and pace), which a match-action stage
   performs in place. *)
let rewrite_fast t ~mode packet ~frame ~mmt_offset view =
  Option.iter
    (Mmt.Header.View.set_retransmit_from view)
    mode.Mmt.Mode.retransmit_from;
  Option.iter (Mmt.Header.View.set_pace_mbps view) mode.Mmt.Mode.pace_mbps;
  (match t.re_encap with
  | Some encap ->
      let mmt_length = Bytes.length frame - mmt_offset in
      let out_off = Mmt.Encap.overhead encap in
      let out = Mmt_sim.Pool.acquire t.pool (out_off + mmt_length) in
      Mmt.Encap.wrap_into encap
        ~mmt_length:(mmt_length + packet.Mmt_sim.Packet.padding)
        out;
      Bytes.blit frame mmt_offset out out_off mmt_length;
      Mmt_sim.Packet.set_frame packet out
  | None -> ());
  t.rewritten <- t.rewritten + 1;
  Option.iter
    (fun callback ->
      let seq =
        if Mmt.Header.View.has view Mmt.Feature.Sequenced then
          Some (Mmt.Header.View.sequence view)
        else None
      in
      callback ~seq ~born:packet.Mmt_sim.Packet.born packet)
    t.on_rewrite;
  (* Recycle the replaced frame only after the callback: [view] still
     reads from it for the sequence number. *)
  if Mmt_sim.Packet.frame packet != frame then Mmt_sim.Pool.release t.pool frame;
  Element.Forward packet

let process t ~now packet =
  let frame = Mmt_sim.Packet.frame packet in
  match Mmt.Encap.locate frame with
  | Error reason ->
      t.parse_errors <- t.parse_errors + 1;
      Element.Discard ("mode-rewriter: " ^ reason)
  | Ok (_encap, mmt_offset) -> (
      match Mmt.Header.View.of_frame ~off:mmt_offset frame with
      | Error reason ->
          t.parse_errors <- t.parse_errors + 1;
          Element.Discard ("mode-rewriter: " ^ reason)
      | Ok view ->
          if Mmt.Header.View.kind view <> Mmt.Feature.Kind.Data then begin
            t.passed <- t.passed + 1;
            Element.Forward packet
          end
          else begin
            let mode = effective_target t ~now in
            if mode != t.mode then t.degraded <- t.degraded + 1;
            if
              Mmt.Feature.Set.equal
                (Mmt.Header.View.features view)
                mode.Mmt.Mode.features
            then rewrite_fast t ~mode packet ~frame ~mmt_offset view
            else
              match Mmt.Header.decode_bytes ~off:mmt_offset frame with
              | Error reason ->
                  t.parse_errors <- t.parse_errors + 1;
                  Element.Discard ("mode-rewriter: " ^ reason)
              | Ok header ->
                  rewrite_slow t ~mode ~now packet ~frame ~mmt_offset header
          end)

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

let stats t =
  {
    rewritten = t.rewritten;
    sequenced = t.sequenced;
    passed = t.passed;
    parse_errors = t.parse_errors;
    degraded = t.degraded;
  }
