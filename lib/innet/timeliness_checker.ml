open Mmt_util
open Mmt_frame

type policy = Mark | Drop_expired | Notify

type stats = {
  checked : int;
  expired : int;
  dropped : int;
  notices_sent : int;
}

type t = {
  env : Mmt_runtime.Env.t;
  policy : policy;
  mutable checked : int;
  mutable expired : int;
  mutable dropped : int;
  mutable notices_sent : int;
  element : Element.t Lazy.t;
}

let program =
  {
    Op.name = "timeliness-checker";
    ops =
      [
        Op.Extract "config_data";
        Op.Compare "features.timely";
        Op.Extract "deadline";
        Op.Compare "now";
        Op.Extract "notify";
        Op.Emit_digest "deadline-exceeded";
      ];
  }

let send_notice t ~dst notice =
  Mmt.Control.send t.env ~dst Mmt.Feature.Kind.Deadline_exceeded
    (Mmt.Control.Deadline_exceeded.encode notice);
  t.notices_sent <- t.notices_sent + 1

let process t ~now packet =
  let hv = Mmt.Header_vector.of_packet packet in
  let view = Mmt.Header_vector.view hv in
  if
    not
      (Mmt.Header_vector.parsed hv
      && Mmt.Header.View.kind view = Mmt.Feature.Kind.Data
      && Mmt.Header.View.has view Mmt.Feature.Timely)
  then Element.Forward packet
  else begin
    t.checked <- t.checked + 1;
    let deadline = Mmt.Header.View.deadline_ns view in
    if Units.Time.(now > deadline) then begin
      t.expired <- t.expired + 1;
      match t.policy with
      | Mark -> Element.Forward packet
      | Drop_expired ->
          t.dropped <- t.dropped + 1;
          Element.Discard "expired"
      | Notify ->
          let notify = Mmt.Header.View.notify view in
          if not (Addr.Ip.is_any notify) then
            send_notice t ~dst:notify
              {
                Mmt.Control.Deadline_exceeded.sequence =
                  (if Mmt.Header.View.has view Mmt.Feature.Sequenced then
                     Mmt.Header.View.sequence view
                   else 0xFFFFFFFF);
                deadline;
                observed = now;
              };
          Element.Forward packet
    end
    else Element.Forward packet
  end

let create ~env ~policy () =
  let rec t =
    {
      env;
      policy;
      checked = 0;
      expired = 0;
      dropped = 0;
      notices_sent = 0;
      element =
        lazy
          {
            Element.name = "timeliness-checker";
            program;
            process = (fun ~now packet -> process t ~now packet);
          };
    }
  in
  t

let element t = Lazy.force t.element

let stats t =
  {
    checked = t.checked;
    expired = t.expired;
    dropped = t.dropped;
    notices_sent = t.notices_sent;
  }
