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

let none = create ~id:(-1) ~born:Units.Time.zero Bytes.empty

(* Growable circular FIFO: steady-state push/pop allocate nothing
   (stdlib [Queue] allocates a cell per push).  Indices wrap by
   compare-and-subtract: the operands stay in [0, 2*cap) and the branch
   predicts, where [mod] is an integer division on the per-packet
   path. *)
module Fifo = struct
  type packet = t
  type t = { mutable buf : packet array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 16 none; head = 0; len = 0 }
  let length f = f.len

  let push f packet =
    let cap = Array.length f.buf in
    if f.len = cap then begin
      let grown = Array.make (cap * 2) none in
      for i = 0 to f.len - 1 do
        let src = f.head + i in
        grown.(i) <- f.buf.(if src >= cap then src - cap else src)
      done;
      f.buf <- grown;
      f.head <- 0
    end;
    let cap = Array.length f.buf in
    let tail = f.head + f.len in
    f.buf.(if tail >= cap then tail - cap else tail) <- packet;
    f.len <- f.len + 1

  let pop f =
    if f.len = 0 then none
    else begin
      let packet = f.buf.(f.head) in
      f.buf.(f.head) <- none;
      let next = f.head + 1 in
      f.head <- (if next >= Array.length f.buf then 0 else next);
      f.len <- f.len - 1;
      packet
    end
end

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
