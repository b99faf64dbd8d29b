open Mmt_frame

let of_block block id =
  if id < 0 || id > 0xFFFF then invalid_arg "Mmt_facility.Address: id out of range";
  Addr.Ip.of_octets 10 block (id lsr 8) (id land 0xFF)

let source_ip id = of_block 16 id
let flow_ip id = of_block 32 id
let buffer_ip id = of_block 48 id
let sink_ip id = of_block 64 id

type role =
  | Source of int
  | Flow of int
  | Buffer of int
  | Sink of int
  | Other

let classify_int v =
  if v lsr 24 <> 10 then Other
  else
    let id = v land 0xFFFF in
    match (v lsr 16) land 0xFF with
    | 16 -> Source id
    | 32 -> Flow id
    | 48 -> Buffer id
    | 64 -> Sink id
    | _ -> Other

let classify ip = classify_int (Addr.Ip.to_int ip)
