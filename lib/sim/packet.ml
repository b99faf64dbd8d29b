open Mmt_util

type t = {
  mutable id : int;
  mutable frame : bytes;
  mutable padding : int;
  mutable born : Units.Time.t;
  mutable corrupted : bool;
  mutable hops : int;
  mutable gen : int;
  mutable slot : int;
}

let create ?(padding = 0) ~id ~born frame =
  if padding < 0 then invalid_arg "Packet.create: negative padding";
  { id; frame; padding; born; corrupted = false; hops = 0; gen = 0; slot = -1 }

let wire_size t = Units.Size.bytes (Bytes.length t.frame + t.padding)
let frame t = t.frame
let set_frame t frame = t.frame <- frame

let copy t ~id =
  {
    id;
    frame = Bytes.copy t.frame;
    padding = t.padding;
    born = t.born;
    corrupted = t.corrupted;
    hops = t.hops;
    gen = 0;
    slot = -1;
  }

let pp fmt t =
  Format.fprintf fmt "pkt#%d{%a%s, %d hops}" t.id Units.Size.pp (wire_size t)
    (if t.corrupted then ", corrupted" else "")
    t.hops
