type t =
  | Sequenced
  | Reliable
  | Timely
  | Age_tracked
  | Paced
  | Backpressured
  | Duplicated
  | Encrypted
  | Int_telemetry
  | Checksummed

let all =
  [ Sequenced; Reliable; Timely; Age_tracked; Paced; Backpressured; Duplicated;
    Encrypted; Int_telemetry; Checksummed ]

let to_string = function
  | Sequenced -> "sequenced"
  | Reliable -> "reliable"
  | Timely -> "timely"
  | Age_tracked -> "age-tracked"
  | Paced -> "paced"
  | Backpressured -> "backpressured"
  | Duplicated -> "duplicated"
  | Encrypted -> "encrypted"
  | Int_telemetry -> "int-telemetry"
  | Checksummed -> "checksummed"

let[@inline] bit = function
  | Sequenced -> 0
  | Reliable -> 1
  | Timely -> 2
  | Age_tracked -> 3
  | Paced -> 4
  | Backpressured -> 5
  | Duplicated -> 6
  | Encrypted -> 7
  | Int_telemetry -> 8
  | Checksummed -> 9

module Set = struct
  type feature = t
  type t = int

  let empty = 0
  let[@inline] mem feature set = set land (1 lsl bit feature) <> 0
  let add feature set = set lor (1 lsl bit feature)
  let remove feature set = set land lnot (1 lsl bit feature)
  let of_list features = List.fold_left (fun set f -> add f set) empty features
  let to_list set = List.filter (fun f -> mem f set) all
  let union = ( lor )
  let equal = Int.equal
  let subset a b = a land b = a
  let cardinal set = List.length (to_list set)

  let pp fmt set =
    match to_list set with
    | [] -> Format.pp_print_string fmt "{}"
    | features ->
        Format.fprintf fmt "{%s}"
          (String.concat ", " (List.map (fun (f : feature) -> to_string f) features))
end

module Kind = struct
  type t = Data | Nak | Deadline_exceeded | Backpressure | Buffer_advert

  let to_int = function
    | Data -> 0
    | Nak -> 1
    | Deadline_exceeded -> 2
    | Backpressure -> 3
    | Buffer_advert -> 4

  let of_int = function
    | 0 -> Some Data
    | 1 -> Some Nak
    | 2 -> Some Deadline_exceeded
    | 3 -> Some Backpressure
    | 4 -> Some Buffer_advert
    | _ -> None

  let to_string = function
    | Data -> "data"
    | Nak -> "nak"
    | Deadline_exceeded -> "deadline-exceeded"
    | Backpressure -> "backpressure"
    | Buffer_advert -> "buffer-advert"

  let equal a b = to_int a = to_int b
end

let config_id_v1 = 1
let feature_mask = 0xFFFF
let reserved_mask = 0xF0000
let kind_shift = 20

let encode_config_data ~kind set =
  (Kind.to_int kind lsl kind_shift) lor (set land feature_mask)

let decode_config_kind data =
  if data land reserved_mask <> 0 then None else Kind.of_int (data lsr kind_shift)

let config_features data = data land feature_mask

let decode_config_data data =
  if data land reserved_mask <> 0 then Error "reserved configuration bits set"
  else
    match Kind.of_int (data lsr kind_shift) with
    | None -> Error (Printf.sprintf "unknown message kind %d" (data lsr kind_shift))
    | Some kind -> Ok (kind, data land feature_mask)
