type flags = { syn : bool; ack : bool; fin : bool }

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  window : int;
  flags : flags;
  payload : bytes;
}

let magic = 0x54
let header_size = 28

(* Field offsets: magic 0, flags 1, ports 2 and 4, seq 6, ack 14,
   window 22, payload length 26. *)

let ack_only = { syn = false; ack = true; fin = false }

let data ~src_port ~dst_port ~seq ~ack ~window payload =
  { src_port; dst_port; seq; ack; window; flags = ack_only; payload }

let pure_ack ~src_port ~dst_port ~ack ~window =
  {
    src_port;
    dst_port;
    seq = 0;
    ack;
    window;
    flags = ack_only;
    payload = Bytes.create 0;
  }

let flags_byte f =
  (if f.syn then 1 else 0) lor (if f.ack then 2 else 0) lor (if f.fin then 4 else 0)

(* Every flags value a frame can carry, so reading one allocates
   nothing. *)
let flags_table =
  Array.init 8 (fun b -> { syn = b land 1 <> 0; ack = b land 2 <> 0; fin = b land 4 <> 0 })

let write frame ~flags ~src_port ~dst_port ~seq ~ack ~window ~length =
  if Bytes.length frame < header_size then
    invalid_arg "Segment.write: frame shorter than a header";
  Bytes.set_uint8 frame 0 magic;
  Bytes.set_uint8 frame 1 (flags_byte flags);
  Bytes.set_uint16_be frame 2 (src_port land 0xFFFF);
  Bytes.set_uint16_be frame 4 (dst_port land 0xFFFF);
  Bytes.set_int64_be frame 6 (Int64.of_int seq);
  Bytes.set_int64_be frame 14 (Int64.of_int ack);
  Bytes.set_int32_be frame 22 (Int32.of_int window);
  Bytes.set_uint16_be frame 26 (length land 0xFFFF)

let payload_length frame = Bytes.get_uint16_be frame 26

let check frame =
  let n = Bytes.length frame in
  if n = 0 then Error "truncated segment"
  else if Bytes.get_uint8 frame 0 <> magic then Error "not a baseline TCP segment"
  else if n < header_size then Error "truncated segment"
  else if n - header_size < payload_length frame then
    Error "segment payload truncated"
  else Ok ()

let flags frame = flags_table.(Bytes.get_uint8 frame 1 land 7)
let src_port frame = Bytes.get_uint16_be frame 2
let dst_port frame = Bytes.get_uint16_be frame 4
let seq frame = Int64.to_int (Bytes.get_int64_be frame 6)
let ack frame = Int64.to_int (Bytes.get_int64_be frame 14)
let window frame = Int32.to_int (Bytes.get_int32_be frame 22) land 0xFFFF_FFFF

let encode t =
  let length = Bytes.length t.payload in
  let frame = Bytes.create (header_size + length) in
  write frame ~flags:t.flags ~src_port:t.src_port ~dst_port:t.dst_port ~seq:t.seq
    ~ack:t.ack ~window:t.window ~length;
  Bytes.blit t.payload 0 frame header_size length;
  frame

let decode frame =
  match check frame with
  | Error _ as e -> e
  | Ok () ->
      Ok
        {
          src_port = src_port frame;
          dst_port = dst_port frame;
          seq = seq frame;
          ack = ack frame;
          window = window frame;
          flags = flags frame;
          payload = Bytes.sub frame header_size (payload_length frame);
        }

let equal a b =
  a.src_port = b.src_port && a.dst_port = b.dst_port && a.seq = b.seq
  && a.ack = b.ack && a.window = b.window && a.flags = b.flags
  && Bytes.equal a.payload b.payload

let pp fmt t =
  Format.fprintf fmt "tcp{%d->%d seq=%d ack=%d win=%d%s%s%s %dB}" t.src_port
    t.dst_port t.seq t.ack t.window
    (if t.flags.syn then " SYN" else "")
    (if t.flags.fin then " FIN" else "")
    (if t.flags.ack then " ACK" else "")
    (Bytes.length t.payload)
