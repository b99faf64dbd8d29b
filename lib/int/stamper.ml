open Mmt_util
module Op = Mmt_innet.Op
module Element = Mmt_innet.Element

type stats = { stamped : int; overflowed : int; untracked : int }

type t = {
  node_id : int;
  mode_id : int;
  residency : Units.Time.t;
  queue_depth : unit -> int;
  mutable stamped : int;
  mutable overflowed : int;
  mutable untracked : int;
  element : Element.t Lazy.t;
}

let program =
  {
    Op.name = "int-stamper";
    ops =
      [
        Op.Extract "config_data";
        Op.Compare "features.int_telemetry";
        Op.Extract "int.count";
        Op.Compare "int.max_hops";
        Op.Set_field "int.slot.node_id";
        Op.Set_field "int.slot.mode_id";
        Op.Set_field "int.slot.hop_index";
        Op.Set_field "int.slot.queue_depth";
        Op.Set_field "int.slot.ingress";
        Op.Set_field "int.slot.egress";
        Op.Add_to_field "int.count";
      ];
  }

let process t ~now packet =
  let hv = Mmt.Header_vector.of_packet packet in
  let view = Mmt.Header_vector.view hv in
  (if
     not
       (Mmt.Header_vector.parsed hv
       && Mmt.Header.View.has view Mmt.Feature.Int_telemetry)
   then t.untracked <- t.untracked + 1
   else
     let queue_depth = t.queue_depth () in
     match
       Mmt.Header.View.push_int_record view ~node_id:t.node_id
         ~mode_id:t.mode_id ~queue_depth
         ~ingress:(Units.Time.diff now t.residency)
         ~egress:now
     with
     | Some _hop -> t.stamped <- t.stamped + 1
     | None -> t.overflowed <- t.overflowed + 1);
  Element.Forward packet

let create ~node_id ~mode_id ?(residency = Units.Time.zero)
    ?(queue_depth = fun () -> 0) () =
  let rec t =
    {
      node_id;
      mode_id;
      residency;
      queue_depth;
      stamped = 0;
      overflowed = 0;
      untracked = 0;
      element =
        lazy
          {
            Element.name = Printf.sprintf "int-stamper(node %d)" node_id;
            program;
            process = (fun ~now packet -> process t ~now packet);
          };
    }
  in
  t

let element t = Lazy.force t.element

let stats t =
  { stamped = t.stamped; overflowed = t.overflowed; untracked = t.untracked }
