open Mmt_frame

type stats = { duplicated : int; copies_sent : int; passed : int }

type t = {
  env : Mmt_runtime.Env.t;
  consumers : Addr.Ip.t list;
  mutable duplicated : int;
  mutable copies_sent : int;
  mutable passed : int;
  element : Element.t Lazy.t;
}

let program =
  {
    Op.name = "duplicator";
    ops =
      [
        Op.Extract "config_data";
        Op.Compare "kind";
        Op.Clone "multicast-group";
        Op.Set_flag "features.duplicated";
      ];
  }

(* Returns the frame to copy consumer frames from, plus whether it is a
   scratch buffer this element owns (and may recycle afterwards) or the
   packet's own live frame (which it must not). *)
let mark_duplicated t frame view =
  if Mmt.Header.View.has view Mmt.Feature.Duplicated then (frame, false)
  else begin
    (* The Duplicated bit lives in the configuration data; the header
       size is unchanged, so flip it in place on a copy, at the offsets
       the vector already holds. *)
    let len = Bytes.length frame in
    let out = Mmt_sim.Pool.acquire (Mmt_runtime.Env.pool t.env) len in
    Bytes.blit frame 0 out 0 len;
    Mmt.Header.View.set_duplicated_in view out;
    (out, true)
  end

let process t ~now:_ packet =
  let hv = Mmt.Header_vector.of_packet packet in
  if
    t.consumers = []
    || not
         (Mmt.Header_vector.parsed hv
         && Mmt.Header_vector.kind hv = Mmt.Feature.Kind.Data)
  then begin
    t.passed <- t.passed + 1;
    Element.Forward packet
  end
  else begin
    t.duplicated <- t.duplicated + 1;
    let marked, scratch =
      mark_duplicated t (Mmt_sim.Packet.frame packet) (Mmt.Header_vector.view hv)
    in
    List.iter
      (fun consumer ->
        (* Slot-allocated copy: record and frame both come from the
           ring, so the fan-out is allocation-free. *)
        let len = Bytes.length marked in
        let copy =
          Mmt_sim.Ring.in_packet t.env.Mmt_runtime.Env.ring
            ~padding:packet.Mmt_sim.Packet.padding
            ~id:(t.env.Mmt_runtime.Env.fresh_id ())
            ~born:packet.Mmt_sim.Packet.born len
        in
        Bytes.blit marked 0 copy.Mmt_sim.Packet.frame 0 len;
        copy.Mmt_sim.Packet.corrupted <- packet.Mmt_sim.Packet.corrupted;
        copy.Mmt_sim.Packet.hops <- packet.Mmt_sim.Packet.hops;
        t.copies_sent <- t.copies_sent + 1;
        t.env.Mmt_runtime.Env.send consumer copy)
      t.consumers;
    if scratch then Mmt_sim.Pool.release (Mmt_runtime.Env.pool t.env) marked;
    Element.Forward packet
  end

let create ~env ~consumers () =
  let rec t =
    {
      env;
      consumers;
      duplicated = 0;
      copies_sent = 0;
      passed = 0;
      element =
        lazy
          {
            Element.name = "duplicator";
            program;
            process = (fun ~now packet -> process t ~now packet);
          };
    }
  in
  t

let element t = Lazy.force t.element
let stats t = { duplicated = t.duplicated; copies_sent = t.copies_sent; passed = t.passed }
