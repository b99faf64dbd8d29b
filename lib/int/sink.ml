module Op = Mmt_innet.Op
module Element = Mmt_innet.Element

type stats = { stripped : int; passed : int }

type t = {
  node_id : int;
  emit : Digest.t -> unit;
  pool : Mmt_sim.Pool.t;
  mutable stripped : int;
  mutable passed : int;
  element : Element.t Lazy.t;
}

let program =
  {
    Op.name = "int-sink";
    ops =
      [
        Op.Extract "config_data";
        Op.Compare "features.int_telemetry";
        Op.Extract "int.stack";
        Op.Emit_digest "int-postcard";
        Op.Set_field "config_data";
      ];
  }

let process_clean t ~now packet =
  let hv = Mmt.Header_vector.of_packet packet in
  let view = Mmt.Header_vector.view hv in
  if
    Mmt.Header_vector.parsed hv
    && Mmt.Header.View.kind view = Mmt.Feature.Kind.Data
    && Mmt.Header.View.has view Mmt.Feature.Int_telemetry
  then begin
    let digest =
      {
        Digest.experiment = Mmt.Header.View.experiment view;
        sequence =
          (if Mmt.Header.View.has view Mmt.Feature.Sequenced then
             Some (Mmt.Header.View.sequence view)
           else None);
        records = Mmt.Header.View.int_records view;
        overflowed = Mmt.Header.View.int_overflowed view;
        sink_node = t.node_id;
        sink_at = now;
      }
    in
    (* The INT stack is the last extension, so stripping it is a
       contiguous cut — no decode or re-encode.  Build the stripped
       frame in a pool buffer, recycle the old one and re-aim the
       vector at the new frame. *)
    let frame = Mmt_sim.Packet.frame packet in
    let mmt_offset = Mmt.Header_vector.mmt_offset hv in
    let mmt_length = Mmt.Header.View.stripped_int_length view in
    let out = Mmt_sim.Pool.acquire t.pool (mmt_offset + mmt_length) in
    Mmt.Encap.rewrap_into ~old_frame:frame ~mmt_offset
      ~mmt_length:(mmt_length + packet.Mmt_sim.Packet.padding)
      out;
    Mmt.Header.View.strip_int_into view out ~off:mmt_offset;
    Mmt_sim.Packet.set_frame packet out;
    if frame != out then Mmt_sim.Pool.release t.pool frame;
    Mmt.Header_vector.refresh hv packet;
    t.stripped <- t.stripped + 1;
    t.emit digest;
    Element.Forward packet
  end
  else begin
    t.passed <- t.passed + 1;
    Element.Forward packet
  end

let process t ~now packet =
  if packet.Mmt_sim.Packet.corrupted then begin
    (* A corrupted frame fails its integrity check downstream; do not
       let its stack pollute the telemetry. *)
    t.passed <- t.passed + 1;
    Element.Forward packet
  end
  else process_clean t ~now packet

let create ~node_id ~emit ~pool () =
  let rec t =
    {
      node_id;
      emit;
      pool;
      stripped = 0;
      passed = 0;
      element =
        lazy
          {
            Element.name = Printf.sprintf "int-sink(node %d)" node_id;
            program;
            process = (fun ~now packet -> process t ~now packet);
          };
    }
  in
  t

let element t = Lazy.force t.element
let stats t = { stripped = t.stripped; passed = t.passed }
