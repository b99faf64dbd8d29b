module Mac = struct
  type t = int64

  let mask = 0xFFFFFFFFFFFFL
  let broadcast = mask
  let of_int64 x = Int64.logand x mask
  let to_int64 t = t

  let of_string s =
    match String.split_on_char ':' s with
    | [ a; b; c; d; e; f ] ->
        let octet part =
          match int_of_string_opt ("0x" ^ part) with
          | Some v when v >= 0 && v <= 0xFF -> Int64.of_int v
          | _ -> invalid_arg ("Addr.Mac.of_string: " ^ s)
        in
        List.fold_left
          (fun acc part -> Int64.logor (Int64.shift_left acc 8) (octet part))
          0L [ a; b; c; d; e; f ]
    | _ -> invalid_arg ("Addr.Mac.of_string: " ^ s)

  let to_string t =
    let octet i =
      Int64.to_int (Int64.logand (Int64.shift_right_logical t (8 * i)) 0xFFL)
    in
    Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" (octet 5) (octet 4) (octet 3)
      (octet 2) (octet 1) (octet 0)

  let equal = Int64.equal
  let compare = Int64.compare
  let pp fmt t = Format.pp_print_string fmt (to_string t)
  let is_broadcast t = Int64.equal t broadcast
end

module Ip = struct
  type t = int32

  let any = 0l
  let of_int32 x = x
  let to_int32 t = t
  let to_int t = Int32.to_int t land 0xFFFF_FFFF

  let of_octets a b c d =
    let check v = if v < 0 || v > 255 then invalid_arg "Addr.Ip.of_octets" in
    check a; check b; check c; check d;
    Int32.of_int ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d)

  let of_string s =
    match String.split_on_char '.' s with
    | [ a; b; c; d ] -> (
        match
          (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c,
           int_of_string_opt d)
        with
        | Some a, Some b, Some c, Some d
          when a >= 0 && a <= 255 && b >= 0 && b <= 255 && c >= 0 && c <= 255
               && d >= 0 && d <= 255 ->
            of_octets a b c d
        | _ -> invalid_arg ("Addr.Ip.of_string: " ^ s))
    | _ -> invalid_arg ("Addr.Ip.of_string: " ^ s)

  let to_string t =
    let v = to_int t in
    Printf.sprintf "%d.%d.%d.%d" ((v lsr 24) land 0xFF) ((v lsr 16) land 0xFF)
      ((v lsr 8) land 0xFF) (v land 0xFF)

  let equal = Int32.equal
  let compare = Int32.compare
  let pp fmt t = Format.pp_print_string fmt (to_string t)
  let is_any t = Int32.equal t 0l
end
