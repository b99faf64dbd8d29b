open Mmt_util
open Mmt_frame
module Cursor = Mmt_wire.Cursor

type age = {
  age_us : int;
  budget_us : int;
  aged : bool;
  hop_count : int;
  last_touch_ns : Units.Time.t;
}

type timely = { deadline : Units.Time.t; notify : Addr.Ip.t }

type int_record = {
  node_id : int;
  mode_id : int;
  hop_index : int;
  queue_depth : int;
  ingress_ns : Units.Time.t;
  egress_ns : Units.Time.t;
}

type int_stack = { records : int_record list; overflowed : bool }

let empty_int_stack = { records = []; overflowed = false }

type t = {
  config_id : int;
  kind : Feature.Kind.t;
  features : Feature.Set.t;
  experiment : Experiment_id.t;
  sequence : int option;
  retransmit_from : Addr.Ip.t option;
  timely : timely option;
  age : age option;
  pace_mbps : int option;
  backpressure_to : Addr.Ip.t option;
  int_stack : int_stack option;
}

let core_size = 8
let checksum_size = 4
let sequence_size = 4
let retransmit_size = 4
let timely_size = 12
let age_size = 20
let pace_size = 4
let backpressure_size = 4
let max_int_hops = 4
let int_record_size = 24
let int_ext_size = 4 + (max_int_hops * int_record_size)

let max_size =
  core_size + checksum_size + sequence_size + retransmit_size + timely_size
  + age_size + pace_size + backpressure_size + int_ext_size

let check_u32 what v =
  if v < 0 || v > 0xFFFFFFFF then
    invalid_arg (Printf.sprintf "Header: %s out of u32 range" what)

let check_u24 what v =
  if v < 0 || v > 0xFFFFFF then
    invalid_arg (Printf.sprintf "Header: %s out of u24 range" what)

let check_u16 what v =
  if v < 0 || v > 0xFFFF then
    invalid_arg (Printf.sprintf "Header: %s out of u16 range" what)

let check_u8 what v =
  if v < 0 || v > 0xFF then
    invalid_arg (Printf.sprintf "Header: %s out of u8 range" what)

let check_int_stack stack =
  if List.length stack.records > max_int_hops then
    invalid_arg
      (Printf.sprintf "Header: INT stack deeper than %d hops" max_int_hops);
  List.iter
    (fun r ->
      check_u16 "int.node_id" r.node_id;
      check_u8 "int.mode_id" r.mode_id;
      check_u8 "int.hop_index" r.hop_index;
      check_u32 "int.queue_depth" r.queue_depth)
    stack.records

let features_of_fields ~sequence ~retransmit_from ~timely ~age ~pace_mbps
    ~backpressure_to ~int_stack ~extra =
  let maybe feature opt set =
    match opt with Some _ -> Feature.Set.add feature set | None -> set
  in
  let base =
    Feature.Set.empty
    |> maybe Feature.Sequenced sequence
    |> maybe Feature.Reliable retransmit_from
    |> maybe Feature.Timely timely
    |> maybe Feature.Age_tracked age
    |> maybe Feature.Paced pace_mbps
    |> maybe Feature.Backpressured backpressure_to
    |> maybe Feature.Int_telemetry int_stack
  in
  List.fold_left
    (fun set feature ->
      match feature with
      | Feature.Duplicated | Feature.Encrypted | Feature.Checksummed ->
          Feature.Set.add feature set
      | Feature.Sequenced | Feature.Reliable | Feature.Timely
      | Feature.Age_tracked | Feature.Paced | Feature.Backpressured
      | Feature.Int_telemetry ->
          invalid_arg
            (Printf.sprintf
               "Header.create: feature %s carries a field; pass its value"
               (Feature.to_string feature)))
    base extra

let create ?(kind = Feature.Kind.Data) ?sequence ?retransmit_from ?timely ?age
    ?pace_mbps ?backpressure_to ?int_stack ?(extra_features = []) ~experiment () =
  Option.iter (check_u32 "sequence") sequence;
  Option.iter (fun a ->
      check_u32 "age_us" a.age_us;
      check_u32 "budget_us" a.budget_us;
      check_u24 "hop_count" a.hop_count)
    age;
  Option.iter (check_u32 "pace_mbps") pace_mbps;
  Option.iter check_int_stack int_stack;
  let features =
    features_of_fields ~sequence ~retransmit_from ~timely ~age ~pace_mbps
      ~backpressure_to ~int_stack ~extra:extra_features
  in
  {
    config_id = Feature.config_id_v1;
    kind;
    features;
    experiment;
    sequence;
    retransmit_from;
    timely;
    age;
    pace_mbps;
    backpressure_to;
    int_stack;
  }

let mode0 ~experiment = create ~experiment ()

let size t =
  let ext feature width = if Feature.Set.mem feature t.features then width else 0 in
  core_size
  + ext Feature.Checksummed checksum_size
  + ext Feature.Sequenced sequence_size
  + ext Feature.Reliable retransmit_size
  + ext Feature.Timely timely_size
  + ext Feature.Age_tracked age_size
  + ext Feature.Paced pace_size
  + ext Feature.Backpressured backpressure_size
  + ext Feature.Int_telemetry int_ext_size

let encode_int_stack w stack =
  Cursor.Writer.u8 w (List.length stack.records);
  Cursor.Writer.u8 w (if stack.overflowed then 1 else 0);
  Cursor.Writer.u16 w 0;
  List.iter
    (fun r ->
      Cursor.Writer.u16 w r.node_id;
      Cursor.Writer.u8 w r.mode_id;
      Cursor.Writer.u8 w r.hop_index;
      Cursor.Writer.u32_int w r.queue_depth;
      Cursor.Writer.u64 w (Units.Time.to_int64_ns r.ingress_ns);
      Cursor.Writer.u64 w (Units.Time.to_int64_ns r.egress_ns))
    stack.records;
  let unused = max_int_hops - List.length stack.records in
  if unused > 0 then Cursor.Writer.bytes w (Bytes.make (unused * int_record_size) '\000')

(* The checksum extension is the FIRST extension (right after the core)
   so a P4 verify stage finds it at a constant offset.  It is laid out
   as [u16 checksum | u16 zero-pad]; the checksum is the RFC 1071
   ones'-complement sum over the whole fixed header with the checksum
   field itself zeroed, which makes "sum over header = 0" the verify
   property. *)

let checksum_field_off ~off = off + core_size

let seal_in_place frame ~off ~size =
  let at = checksum_field_off ~off in
  Bytes.set_uint16_be frame at 0;
  Bytes.set_uint16_be frame at (Cursor.checksum frame ~off ~len:size)

let verify_in_place frame ~off ~size = Cursor.checksum frame ~off ~len:size = 0

let encode_into_raw w t =
  Cursor.Writer.u8 w t.config_id;
  Cursor.Writer.u24 w (Feature.encode_config_data ~kind:t.kind t.features);
  Cursor.Writer.u32 w (Experiment_id.to_int32 t.experiment);
  if Feature.Set.mem Feature.Checksummed t.features then begin
    (* Placeholder; [encode] seals once the header is fully written. *)
    Cursor.Writer.u16 w 0;
    Cursor.Writer.u16 w 0
  end;
  Option.iter (fun s -> Cursor.Writer.u32_int w s) t.sequence;
  Option.iter (fun ip -> Cursor.Writer.u32 w (Addr.Ip.to_int32 ip)) t.retransmit_from;
  Option.iter
    (fun tl ->
      Cursor.Writer.u64 w (Units.Time.to_int64_ns tl.deadline);
      Cursor.Writer.u32 w (Addr.Ip.to_int32 tl.notify))
    t.timely;
  Option.iter
    (fun a ->
      Cursor.Writer.u32_int w a.age_us;
      Cursor.Writer.u32_int w a.budget_us;
      Cursor.Writer.u8 w (if a.aged then 1 else 0);
      Cursor.Writer.u24 w a.hop_count;
      Cursor.Writer.u64 w (Units.Time.to_int64_ns a.last_touch_ns))
    t.age;
  Option.iter (fun p -> Cursor.Writer.u32_int w p) t.pace_mbps;
  Option.iter (fun ip -> Cursor.Writer.u32 w (Addr.Ip.to_int32 ip)) t.backpressure_to;
  Option.iter (encode_int_stack w) t.int_stack

let encode t =
  let w = Cursor.Writer.create (size t) in
  encode_into_raw w t;
  let frame = Cursor.Writer.contents w in
  if Feature.Set.mem Feature.Checksummed t.features then
    seal_in_place frame ~off:0 ~size:(size t);
  frame

let encode_into w t =
  if Feature.Set.mem Feature.Checksummed t.features then
    (* Sealing needs the finished bytes; build then splice. *)
    Cursor.Writer.bytes w (encode t)
  else encode_into_raw w t

let decode r =
  match
    let config_id = Cursor.Reader.u8 r in
    if config_id <> Feature.config_id_v1 then
      Error (Printf.sprintf "unknown configuration identifier %d" config_id)
    else
      match Feature.decode_config_data (Cursor.Reader.u24 r) with
      | Error e -> Error e
      | Ok (kind, features) ->
          let experiment = Experiment_id.of_int32 (Cursor.Reader.u32 r) in
          if Feature.Set.mem Feature.Checksummed features then
            (* Wire artifact only: integrity is checked on the raw
               bytes (View.verify / Header.verify) before decoding. *)
            Cursor.Reader.skip r checksum_size;
          let if_feature feature read =
            if Feature.Set.mem feature features then Some (read ()) else None
          in
          let sequence = if_feature Feature.Sequenced (fun () -> Cursor.Reader.u32_int r) in
          let retransmit_from =
            if_feature Feature.Reliable (fun () ->
                Addr.Ip.of_int32 (Cursor.Reader.u32 r))
          in
          let timely =
            if_feature Feature.Timely (fun () ->
                let deadline = Units.Time.of_int64_ns (Cursor.Reader.u64 r) in
                let notify = Addr.Ip.of_int32 (Cursor.Reader.u32 r) in
                { deadline; notify })
          in
          let age =
            if_feature Feature.Age_tracked (fun () ->
                let age_us = Cursor.Reader.u32_int r in
                let budget_us = Cursor.Reader.u32_int r in
                let flags = Cursor.Reader.u8 r in
                let hop_count = Cursor.Reader.u24 r in
                let last_touch_ns = Units.Time.of_int64_ns (Cursor.Reader.u64 r) in
                { age_us; budget_us; aged = flags land 1 = 1; hop_count; last_touch_ns })
          in
          let pace_mbps = if_feature Feature.Paced (fun () -> Cursor.Reader.u32_int r) in
          let backpressure_to =
            if_feature Feature.Backpressured (fun () ->
                Addr.Ip.of_int32 (Cursor.Reader.u32 r))
          in
          let int_stack =
            if not (Feature.Set.mem Feature.Int_telemetry features) then Ok None
            else begin
              let count = Cursor.Reader.u8 r in
              let flags = Cursor.Reader.u8 r in
              let _reserved = Cursor.Reader.u16 r in
              if count > max_int_hops then
                Error (Printf.sprintf "INT stack count %d exceeds %d" count max_int_hops)
              else begin
                let records =
                  List.init count (fun _ ->
                      let node_id = Cursor.Reader.u16 r in
                      let mode_id = Cursor.Reader.u8 r in
                      let hop_index = Cursor.Reader.u8 r in
                      let queue_depth = Cursor.Reader.u32_int r in
                      let ingress_ns = Units.Time.of_int64_ns (Cursor.Reader.u64 r) in
                      let egress_ns = Units.Time.of_int64_ns (Cursor.Reader.u64 r) in
                      { node_id; mode_id; hop_index; queue_depth; ingress_ns; egress_ns })
                in
                Cursor.Reader.skip r ((max_int_hops - count) * int_record_size);
                Ok (Some { records; overflowed = flags land 1 = 1 })
              end
            end
          in
          match int_stack with
          | Error e -> Error e
          | Ok int_stack ->
              Ok
                {
                  config_id;
                  kind;
                  features;
                  experiment;
                  sequence;
                  retransmit_from;
                  timely;
                  age;
                  pace_mbps;
                  backpressure_to;
                  int_stack;
                }
  with
  | result -> result
  | exception Cursor.Out_of_bounds what -> Error ("truncated header: " ^ what)

let decode_bytes ?(off = 0) buf =
  decode (Cursor.Reader.of_bytes ~off buf)

(* Field surgery: each [with_*] re-derives the feature bit. *)

let with_feature t feature =
  { t with features = Feature.Set.add feature t.features }

let with_sequence t sequence =
  check_u32 "sequence" sequence;
  { (with_feature t Feature.Sequenced) with sequence = Some sequence }

let with_retransmit_from t ip =
  { (with_feature t Feature.Reliable) with retransmit_from = Some ip }

let with_timely t timely = { (with_feature t Feature.Timely) with timely = Some timely }

let with_age t age =
  check_u32 "age_us" age.age_us;
  check_u32 "budget_us" age.budget_us;
  check_u24 "hop_count" age.hop_count;
  { (with_feature t Feature.Age_tracked) with age = Some age }

let with_pace t pace =
  check_u32 "pace_mbps" pace;
  { (with_feature t Feature.Paced) with pace_mbps = Some pace }

let with_backpressure_to t ip =
  { (with_feature t Feature.Backpressured) with backpressure_to = Some ip }

let with_int_stack t stack =
  check_int_stack stack;
  { (with_feature t Feature.Int_telemetry) with int_stack = Some stack }

let with_checksummed t = with_feature t Feature.Checksummed

let with_kind t kind = { t with kind }

let strip t feature =
  let features = Feature.Set.remove feature t.features in
  match feature with
  | Feature.Sequenced -> { t with features; sequence = None }
  | Feature.Reliable -> { t with features; retransmit_from = None }
  | Feature.Timely -> { t with features; timely = None }
  | Feature.Age_tracked -> { t with features; age = None }
  | Feature.Paced -> { t with features; pace_mbps = None }
  | Feature.Backpressured -> { t with features; backpressure_to = None }
  | Feature.Int_telemetry -> { t with features; int_stack = None }
  | Feature.Duplicated | Feature.Encrypted | Feature.Checksummed ->
      { t with features }

let offset_of_age t =
  if not (Feature.Set.mem Feature.Age_tracked t.features) then None
  else begin
    let skip feature width =
      if Feature.Set.mem feature t.features then width else 0
    in
    Some
      (core_size
      + skip Feature.Checksummed checksum_size
      + skip Feature.Sequenced sequence_size
      + skip Feature.Reliable retransmit_size
      + skip Feature.Timely timely_size)
  end

let offset_of_int t =
  if not (Feature.Set.mem Feature.Int_telemetry t.features) then None
  else begin
    let skip feature width =
      if Feature.Set.mem feature t.features then width else 0
    in
    Some
      (core_size
      + skip Feature.Checksummed checksum_size
      + skip Feature.Sequenced sequence_size
      + skip Feature.Reliable retransmit_size
      + skip Feature.Timely timely_size
      + skip Feature.Age_tracked age_size
      + skip Feature.Paced pace_size
      + skip Feature.Backpressured backpressure_size)
  end

let push_int_record_in_place frame ~ext_off ~node_id ~mode_id ~queue_depth
    ~ingress ~egress =
  (* Layout: u8 count | u8 flags | u16 reserved | max_int_hops x
     (u16 node | u8 mode | u8 hop | u32 queue | u64 ingress | u64 egress) *)
  let count = Char.code (Bytes.get frame ext_off) in
  if count >= max_int_hops then begin
    let flags = Char.code (Bytes.get frame (ext_off + 1)) in
    Bytes.set frame (ext_off + 1) (Char.chr (flags lor 1));
    None
  end
  else begin
    let slot = ext_off + 4 + (count * int_record_size) in
    Bytes.set_uint16_be frame slot (node_id land 0xFFFF);
    Bytes.set frame (slot + 2) (Char.chr (mode_id land 0xFF));
    Bytes.set frame (slot + 3) (Char.chr (count land 0xFF));
    Bytes.set_int32_be frame (slot + 4)
      (Int32.of_int (min queue_depth 0xFFFFFFFF));
    Bytes.set_int64_be frame (slot + 8) (Units.Time.to_int64_ns ingress);
    Bytes.set_int64_be frame (slot + 16) (Units.Time.to_int64_ns egress);
    Bytes.set frame ext_off (Char.chr (count + 1));
    Some count
  end

let touch_age_in_place frame ~ext_off ~now =
  (* Layout: u32 age_us | u32 budget_us | u8 flags | u24 hops | u64 touch *)
  let age_us = Int32.to_int (Bytes.get_int32_be frame ext_off) land 0xFFFFFFFF in
  let budget_us =
    Int32.to_int (Bytes.get_int32_be frame (ext_off + 4)) land 0xFFFFFFFF
  in
  let flags = Char.code (Bytes.get frame (ext_off + 8)) in
  let hops =
    (Char.code (Bytes.get frame (ext_off + 9)) lsl 16)
    lor Bytes.get_uint16_be frame (ext_off + 10)
  in
  let last_touch = Int64.to_int (Bytes.get_int64_be frame (ext_off + 12)) in
  let now_ns = Units.Time.to_ns now in
  let elapsed_ns = max 0 (now_ns - last_touch) in
  let age_us = age_us + (elapsed_ns / 1_000) in
  let age_us = min age_us 0xFFFFFFFF in
  let aged = flags land 1 = 1 || age_us > budget_us in
  let hops = min (hops + 1) 0xFFFFFF in
  Bytes.set_int32_be frame ext_off (Int32.of_int age_us);
  Bytes.set frame (ext_off + 8) (Char.chr (if aged then flags lor 1 else flags));
  Bytes.set frame (ext_off + 9) (Char.chr ((hops lsr 16) land 0xFF));
  Bytes.set_uint16_be frame (ext_off + 10) (hops land 0xFFFF);
  Bytes.set_int64_be frame (ext_off + 12) (Int64.of_int now_ns);
  (age_us, aged)

(* Zero-copy header views ------------------------------------------------ *)

module View = struct
  type t = {
    mutable frame : bytes;
    mutable base : int;
    mutable kind : Feature.Kind.t;
    mutable features : Feature.Set.t;
    mutable size : int;
    (* Absolute byte offsets of each extension within [frame]; -1 when
       the feature bit is clear.  Computed once from the feature bits,
       exactly as a P4 parser state machine would. *)
    mutable off_checksum : int;
    mutable off_sequence : int;
    mutable off_retransmit : int;
    mutable off_timely : int;
    mutable off_age : int;
    mutable off_pace : int;
    mutable off_backpressure : int;
    mutable off_int : int;
    mutable failure : int;  (* why the last [parse_into] failed, or [parsed] *)
  }

  let blank () =
    {
      frame = Bytes.empty;
      base = 0;
      kind = Feature.Kind.Data;
      features = Feature.Set.empty;
      size = 0;
      off_checksum = -1;
      off_sequence = -1;
      off_retransmit = -1;
      off_timely = -1;
      off_age = -1;
      off_pace = -1;
      off_backpressure = -1;
      off_int = -1;
      failure = 0;
    }

  (* [parse_into] outcomes; only [parse_error] turns them into text. *)
  let parsed = 0
  let truncated_core = 1
  let bad_config_id = 2
  let bad_config_data = 3
  let truncated = 4
  let int_overflow = 5

  (* The feature bits that place an extension, as masks on the
     configuration data. *)
  let mask feature = 1 lsl Feature.bit feature
  let m_checksum = mask Feature.Checksummed
  let m_sequence = mask Feature.Sequenced
  let m_retransmit = mask Feature.Reliable
  let m_timely = mask Feature.Timely
  let m_age = mask Feature.Age_tracked
  let m_pace = mask Feature.Paced
  let m_backpressure = mask Feature.Backpressured
  let m_int = mask Feature.Int_telemetry
  let place data m at = if data land m <> 0 then at else -1
  let skip data m width at = if data land m <> 0 then at + width else at

  let config_data frame off =
    (Char.code (Bytes.get frame (off + 1)) lsl 16)
    lor Bytes.get_uint16_be frame (off + 2)

  let classify v frame off =
    let len = Bytes.length frame in
    if off < 0 || len - off < core_size then truncated_core
    else if Char.code (Bytes.get frame off) <> Feature.config_id_v1 then
      bad_config_id
    else
      let data = config_data frame off in
      match Feature.decode_config_kind data with
      | None -> bad_config_data
      | Some kind ->
          v.kind <- kind;
          v.features <- Feature.config_features data;
          let at = off + core_size in
          v.off_checksum <- place data m_checksum at;
          let at = skip data m_checksum checksum_size at in
          v.off_sequence <- place data m_sequence at;
          let at = skip data m_sequence sequence_size at in
          v.off_retransmit <- place data m_retransmit at;
          let at = skip data m_retransmit retransmit_size at in
          v.off_timely <- place data m_timely at;
          let at = skip data m_timely timely_size at in
          v.off_age <- place data m_age at;
          let at = skip data m_age age_size at in
          v.off_pace <- place data m_pace at;
          let at = skip data m_pace pace_size at in
          v.off_backpressure <- place data m_backpressure at;
          let at = skip data m_backpressure backpressure_size at in
          v.off_int <- place data m_int at;
          let at = skip data m_int int_ext_size at in
          v.size <- at - off;
          if len < at then truncated
          else if
            v.off_int >= 0 && Char.code (Bytes.get frame v.off_int) > max_int_hops
          then int_overflow
          else parsed

  let parse_into v frame ~off =
    v.frame <- frame;
    v.base <- off;
    let failure = classify v frame off in
    v.failure <- failure;
    failure = parsed

  let parse_error v =
    let frame = v.frame and off = v.base in
    let have = Bytes.length frame - off in
    if v.failure = truncated_core then
      Printf.sprintf "truncated header: need %d bytes, have %d" core_size have
    else if v.failure = bad_config_id then
      Printf.sprintf "unknown configuration identifier %d"
        (Char.code (Bytes.get frame off))
    else if v.failure = bad_config_data then
      match Feature.decode_config_data (config_data frame off) with
      | Error e -> e
      | Ok _ -> assert false
    else if v.failure = truncated then
      Printf.sprintf "truncated header: need %d bytes, have %d" v.size have
    else if v.failure = int_overflow then
      Printf.sprintf "INT stack count %d exceeds %d"
        (Char.code (Bytes.get frame v.off_int))
        max_int_hops
    else invalid_arg "Header.View.parse_error: the view parsed"

  let of_frame ?(off = 0) frame =
    let v = blank () in
    if parse_into v frame ~off then Ok v else Error (parse_error v)

  let kind v = v.kind
  let features v = v.features
  let size v = v.size
  let has v feature = Feature.Set.mem feature v.features

  let missing what = invalid_arg ("Header.View." ^ what ^ ": feature not present")
  let need at what = if at < 0 then missing what

  let u32_at frame at = Int32.to_int (Bytes.get_int32_be frame at) land 0xFFFFFFFF
  let set_u32_at frame at v = Bytes.set_int32_be frame at (Int32.of_int v)

  (* Every mutator reseals when the header is checksummed — in P4 this
     is the deparser's checksum-update stage.  Non-checksummed headers
     pay a single branch. *)
  let reseal v =
    if v.off_checksum >= 0 then seal_in_place v.frame ~off:v.base ~size:v.size

  let checksum v =
    need v.off_checksum "checksum";
    Bytes.get_uint16_be v.frame v.off_checksum

  let verify v =
    v.off_checksum < 0 || verify_in_place v.frame ~off:v.base ~size:v.size

  let experiment v = Experiment_id.of_int32 (Bytes.get_int32_be v.frame (v.base + 4))

  let sequence v =
    need v.off_sequence "sequence";
    u32_at v.frame v.off_sequence

  let set_sequence v s =
    need v.off_sequence "set_sequence";
    check_u32 "sequence" s;
    set_u32_at v.frame v.off_sequence s;
    reseal v

  let retransmit_from v =
    need v.off_retransmit "retransmit_from";
    Addr.Ip.of_int32 (Bytes.get_int32_be v.frame v.off_retransmit)

  let set_retransmit_from v ip =
    need v.off_retransmit "set_retransmit_from";
    Bytes.set_int32_be v.frame v.off_retransmit (Addr.Ip.to_int32 ip);
    reseal v

  let deadline_ns v =
    need v.off_timely "deadline_ns";
    Units.Time.of_int64_ns (Bytes.get_int64_be v.frame v.off_timely)

  let set_deadline_ns v deadline =
    need v.off_timely "set_deadline_ns";
    Bytes.set_int64_be v.frame v.off_timely (Units.Time.to_int64_ns deadline);
    reseal v

  let notify v =
    need v.off_timely "notify";
    Addr.Ip.of_int32 (Bytes.get_int32_be v.frame (v.off_timely + 8))

  let set_notify v ip =
    need v.off_timely "set_notify";
    Bytes.set_int32_be v.frame (v.off_timely + 8) (Addr.Ip.to_int32 ip);
    reseal v

  let age_us v =
    need v.off_age "age_us";
    u32_at v.frame v.off_age

  let budget_us v =
    need v.off_age "budget_us";
    u32_at v.frame (v.off_age + 4)

  let aged v =
    need v.off_age "aged";
    Char.code (Bytes.get v.frame (v.off_age + 8)) land 1 = 1

  let hop_count v =
    need v.off_age "hop_count";
    (Char.code (Bytes.get v.frame (v.off_age + 9)) lsl 16)
    lor Bytes.get_uint16_be v.frame (v.off_age + 10)

  let last_touch_ns v =
    need v.off_age "last_touch_ns";
    Units.Time.of_int64_ns (Bytes.get_int64_be v.frame (v.off_age + 12))

  let touch_age v ~now =
    need v.off_age "touch_age";
    let result = touch_age_in_place v.frame ~ext_off:v.off_age ~now in
    reseal v;
    result

  let pace_mbps v =
    need v.off_pace "pace_mbps";
    u32_at v.frame v.off_pace

  let set_pace_mbps v pace =
    need v.off_pace "set_pace_mbps";
    check_u32 "pace_mbps" pace;
    set_u32_at v.frame v.off_pace pace;
    reseal v

  let backpressure_to v =
    need v.off_backpressure "backpressure_to";
    Addr.Ip.of_int32 (Bytes.get_int32_be v.frame v.off_backpressure)

  let set_backpressure_to v ip =
    need v.off_backpressure "set_backpressure_to";
    Bytes.set_int32_be v.frame v.off_backpressure (Addr.Ip.to_int32 ip);
    reseal v

  let int_count v =
    need v.off_int "int_count";
    Char.code (Bytes.get v.frame v.off_int)

  let int_overflowed v =
    need v.off_int "int_overflowed";
    Char.code (Bytes.get v.frame (v.off_int + 1)) land 1 = 1

  let int_record v i =
    need v.off_int "int_record";
    if i < 0 || i >= int_count v then
      invalid_arg
        (Printf.sprintf "Header.View.int_record: slot %d of %d" i (int_count v));
    let slot = v.off_int + 4 + (i * int_record_size) in
    {
      node_id = Bytes.get_uint16_be v.frame slot;
      mode_id = Char.code (Bytes.get v.frame (slot + 2));
      hop_index = Char.code (Bytes.get v.frame (slot + 3));
      queue_depth = u32_at v.frame (slot + 4);
      ingress_ns = Units.Time.of_int64_ns (Bytes.get_int64_be v.frame (slot + 8));
      egress_ns = Units.Time.of_int64_ns (Bytes.get_int64_be v.frame (slot + 16));
    }

  let int_records v = List.init (int_count v) (int_record v)

  let push_int_record v ~node_id ~mode_id ~queue_depth ~ingress ~egress =
    need v.off_int "push_int_record";
    let result =
      push_int_record_in_place v.frame ~ext_off:v.off_int ~node_id ~mode_id
        ~queue_depth ~ingress ~egress
    in
    reseal v;
    result

  let set_duplicated v =
    let data =
      Feature.encode_config_data ~kind:v.kind
        (Feature.Set.add Feature.Duplicated v.features)
    in
    Bytes.set v.frame (v.base + 1) (Char.chr ((data lsr 16) land 0xFF));
    Bytes.set_uint16_be v.frame (v.base + 2) (data land 0xFFFF);
    reseal v

  let stripped_int_length v =
    need v.off_int "stripped_int_length";
    Bytes.length v.frame - v.base - int_ext_size

  let strip_int_into v out ~off =
    need v.off_int "strip_int_into";
    let frame_len = Bytes.length v.frame in
    let head_len = v.off_int - v.base in
    let tail_off = v.off_int + int_ext_size in
    let tail_len = frame_len - tail_off in
    Bytes.blit v.frame v.base out off head_len;
    Bytes.blit v.frame tail_off out (off + head_len) tail_len;
    let data =
      Feature.encode_config_data ~kind:v.kind
        (Feature.Set.remove Feature.Int_telemetry v.features)
    in
    Bytes.set out (off + 1) (Char.chr ((data lsr 16) land 0xFF));
    Bytes.set_uint16_be out (off + 2) (data land 0xFFFF);
    if v.off_checksum >= 0 then
      seal_in_place out ~off ~size:(v.size - int_ext_size)

  let strip_int v =
    let out = Bytes.create (stripped_int_length v) in
    strip_int_into v out ~off:0;
    out

  let set_duplicated_in v copy =
    let frame = v.frame in
    v.frame <- copy;
    set_duplicated v;
    v.frame <- frame

  (* A u64 time field as [decode] then [encode] leave it: the value goes
     through an OCaml int, which keeps 63 bits. *)
  let copy_time src i dst o =
    Bytes.set_int64_be dst o
      (Int64.of_int (Int64.to_int (Bytes.get_int64_be src i)))

  let copy_u32 src i dst o = Bytes.set_int32_be dst o (Bytes.get_int32_be src i)

  let copy_extension v feature dst ~at =
    let src = v.frame in
    match (feature : Feature.t) with
    | Feature.Sequenced ->
        need v.off_sequence "copy_extension";
        copy_u32 src v.off_sequence dst at
    | Feature.Reliable ->
        need v.off_retransmit "copy_extension";
        copy_u32 src v.off_retransmit dst at
    | Feature.Paced ->
        need v.off_pace "copy_extension";
        copy_u32 src v.off_pace dst at
    | Feature.Backpressured ->
        need v.off_backpressure "copy_extension";
        copy_u32 src v.off_backpressure dst at
    | Feature.Timely ->
        need v.off_timely "copy_extension";
        copy_time src v.off_timely dst at;
        copy_u32 src (v.off_timely + 8) dst (at + 8)
    | Feature.Age_tracked ->
        let i = v.off_age in
        need i "copy_extension";
        (* age_us and budget_us, then the flags byte's aged bit and the
           u24 hop count, then last-touch *)
        Bytes.set_int64_be dst at (Bytes.get_int64_be src i);
        copy_u32 src (i + 8) dst (at + 8);
        Bytes.set dst (at + 8)
          (Char.chr (Char.code (Bytes.get src (i + 8)) land 1));
        copy_time src (i + 12) dst (at + 12)
    | Feature.Int_telemetry ->
        let i = v.off_int in
        need i "copy_extension";
        let count = Char.code (Bytes.get src i) in
        Bytes.set dst at (Char.chr count);
        Bytes.set dst (at + 1)
          (Char.chr (Char.code (Bytes.get src (i + 1)) land 1));
        Bytes.set_uint16_be dst (at + 2) 0;
        for r = 0 to count - 1 do
          let s = i + 4 + (r * int_record_size)
          and d = at + 4 + (r * int_record_size) in
          Bytes.set_int64_be dst d (Bytes.get_int64_be src s);
          copy_time src (s + 8) dst (d + 8);
          copy_time src (s + 16) dst (d + 16)
        done;
        let used = 4 + (count * int_record_size) in
        Bytes.fill dst (at + used) (int_ext_size - used) '\000'
    | Feature.Checksummed | Feature.Duplicated | Feature.Encrypted ->
        invalid_arg "Header.View.copy_extension: feature carries no field"
end

module Template = struct
  type t = {
    bytes : bytes;
    config_data : int;
    layout : View.t;  (* parsed over [bytes]: where each field lives *)
  }

  let carries_field feature =
    match (feature : Feature.t) with
    | Feature.Duplicated | Feature.Encrypted -> false
    | _ -> true

  let make ?features header =
    let features = Option.value ~default:header.features features in
    if
      not
        (List.for_all
           (fun f ->
             (not (carries_field f))
             || Feature.Set.mem f features = Feature.Set.mem f header.features)
           Feature.all)
    then invalid_arg "Header.Template.make: features change the layout";
    let bytes = encode header in
    let layout = View.blank () in
    if not (View.parse_into layout bytes ~off:0) then
      invalid_arg ("Header.Template.make: " ^ View.parse_error layout);
    {
      bytes;
      config_data = Feature.encode_config_data ~kind:header.kind features;
      layout;
    }

  let size t = Bytes.length t.bytes

  (* The template at [at], its per-packet fields filled, each field in
     [keep] copied from [from], sealed once. *)
  let emit t ~from ~keep dst ~at ~sequence ~deadline ~last_touch =
    let l = t.layout and size = Bytes.length t.bytes in
    Bytes.blit t.bytes 0 dst at size;
    Bytes.set dst (at + 1) (Char.chr ((t.config_data lsr 16) land 0xFF));
    Bytes.set_uint16_be dst (at + 2) (t.config_data land 0xFFFF);
    if from != l then
      Bytes.set_int32_be dst (at + 4)
        (Experiment_id.to_int32 (View.experiment from));
    let off = l.View.off_sequence in
    if off >= 0 then
      if Feature.Set.mem Feature.Sequenced keep then
        View.copy_extension from Feature.Sequenced dst ~at:(at + off)
      else Bytes.set_int32_be dst (at + off) (Int32.of_int sequence);
    let off = l.View.off_retransmit in
    if off >= 0 && Feature.Set.mem Feature.Reliable keep then
      View.copy_extension from Feature.Reliable dst ~at:(at + off);
    let off = l.View.off_timely in
    if off >= 0 then
      if Feature.Set.mem Feature.Timely keep then
        View.copy_extension from Feature.Timely dst ~at:(at + off)
      else Bytes.set_int64_be dst (at + off) (Units.Time.to_int64_ns deadline);
    let off = l.View.off_age in
    if off >= 0 then
      if Feature.Set.mem Feature.Age_tracked keep then
        View.copy_extension from Feature.Age_tracked dst ~at:(at + off)
      else
        Bytes.set_int64_be dst (at + off + 12)
          (Units.Time.to_int64_ns last_touch);
    let off = l.View.off_pace in
    if off >= 0 && Feature.Set.mem Feature.Paced keep then
      View.copy_extension from Feature.Paced dst ~at:(at + off);
    let off = l.View.off_backpressure in
    if off >= 0 && Feature.Set.mem Feature.Backpressured keep then
      View.copy_extension from Feature.Backpressured dst ~at:(at + off);
    let off = l.View.off_int in
    if off >= 0 && Feature.Set.mem Feature.Int_telemetry keep then
      View.copy_extension from Feature.Int_telemetry dst ~at:(at + off);
    if l.View.off_checksum >= 0 then seal_in_place dst ~off:at ~size

  let write t dst ~at ~sequence ~deadline ~last_touch =
    emit t ~from:t.layout ~keep:Feature.Set.empty dst ~at ~sequence ~deadline
      ~last_touch
end

let equal a b =
  a.config_id = b.config_id
  && Feature.Kind.equal a.kind b.kind
  && Feature.Set.equal a.features b.features
  && Experiment_id.equal a.experiment b.experiment
  && a.sequence = b.sequence
  && Option.equal Addr.Ip.equal a.retransmit_from b.retransmit_from
  && Option.equal
       (fun (x : timely) y ->
         Units.Time.equal x.deadline y.deadline && Addr.Ip.equal x.notify y.notify)
       a.timely b.timely
  && Option.equal
       (fun (x : age) y ->
         x.age_us = y.age_us && x.budget_us = y.budget_us && x.aged = y.aged
         && x.hop_count = y.hop_count
         && Units.Time.equal x.last_touch_ns y.last_touch_ns)
       a.age b.age
  && a.pace_mbps = b.pace_mbps
  && Option.equal Addr.Ip.equal a.backpressure_to b.backpressure_to
  && Option.equal
       (fun (x : int_stack) y ->
         x.overflowed = y.overflowed
         && List.equal
              (fun (p : int_record) q ->
                p.node_id = q.node_id && p.mode_id = q.mode_id
                && p.hop_index = q.hop_index
                && p.queue_depth = q.queue_depth
                && Units.Time.equal p.ingress_ns q.ingress_ns
                && Units.Time.equal p.egress_ns q.egress_ns)
              x.records y.records)
       a.int_stack b.int_stack

let pp fmt t =
  Format.fprintf fmt "@[mmt{%s %a %a" (Feature.Kind.to_string t.kind)
    Experiment_id.pp t.experiment Feature.Set.pp t.features;
  Option.iter (fun s -> Format.fprintf fmt " seq=%d" s) t.sequence;
  Option.iter (fun ip -> Format.fprintf fmt " rtx=%a" Addr.Ip.pp ip) t.retransmit_from;
  Option.iter
    (fun tl ->
      Format.fprintf fmt " deadline=%a notify=%a" Units.Time.pp tl.deadline
        Addr.Ip.pp tl.notify)
    t.timely;
  Option.iter
    (fun a ->
      Format.fprintf fmt " age=%dus/%dus%s hops=%d" a.age_us a.budget_us
        (if a.aged then "(AGED)" else "")
        a.hop_count)
    t.age;
  Option.iter (fun p -> Format.fprintf fmt " pace=%dMbps" p) t.pace_mbps;
  Option.iter
    (fun ip -> Format.fprintf fmt " bp=%a" Addr.Ip.pp ip)
    t.backpressure_to;
  Option.iter
    (fun stack ->
      Format.fprintf fmt " int=%d/%d%s"
        (List.length stack.records)
        max_int_hops
        (if stack.overflowed then "(OVERFLOW)" else ""))
    t.int_stack;
  Format.fprintf fmt "}@]"
