open Mmt_util
open Mmt_frame
module Cursor = Mmt_wire.Cursor

let decode_guard what f buf =
  match f (Cursor.Reader.of_bytes buf) with
  | value -> Ok value
  | exception Cursor.Out_of_bounds _ -> Error ("truncated " ^ what)

module Nak = struct
  type t = { requester : Addr.Ip.t; ranges : (int * int) list }

  let encode t =
    let w = Cursor.Writer.create (4 + 2 + (8 * List.length t.ranges)) in
    Cursor.Writer.u32 w (Addr.Ip.to_int32 t.requester);
    Cursor.Writer.u16 w (List.length t.ranges);
    List.iter
      (fun (first, last) ->
        Cursor.Writer.u32_int w first;
        Cursor.Writer.u32_int w last)
      t.ranges;
    Cursor.Writer.contents w

  let decode buf =
    decode_guard "nak"
      (fun r ->
        let requester = Addr.Ip.of_int32 (Cursor.Reader.u32 r) in
        let count = Cursor.Reader.u16 r in
        let ranges =
          List.init count (fun _ ->
              let first = Cursor.Reader.u32_int r in
              let last = Cursor.Reader.u32_int r in
              (first, last))
        in
        { requester; ranges })
      buf

  let sequence_count t =
    List.fold_left (fun acc (first, last) -> acc + last - first + 1) 0 t.ranges

  let ranges_of_sorted seqs =
    let rec build acc current seqs =
      match (current, seqs) with
      | None, [] -> List.rev acc
      | Some range, [] -> List.rev (range :: acc)
      | None, s :: rest -> build acc (Some (s, s)) rest
      | Some (first, last), s :: rest ->
          if s = last + 1 then build acc (Some (first, s)) rest
          else build ((first, last) :: acc) (Some (s, s)) rest
    in
    build [] None seqs

  let equal a b = Addr.Ip.equal a.requester b.requester && a.ranges = b.ranges

  let pp fmt t =
    Format.fprintf fmt "nak{to %a:" Addr.Ip.pp t.requester;
    List.iter (fun (first, last) -> Format.fprintf fmt " %d-%d" first last) t.ranges;
    Format.fprintf fmt "}"
end

module Deadline_exceeded = struct
  type t = { sequence : int; deadline : Units.Time.t; observed : Units.Time.t }

  let encode t =
    let w = Cursor.Writer.create 20 in
    Cursor.Writer.u32_int w t.sequence;
    Cursor.Writer.u64 w (Units.Time.to_int64_ns t.deadline);
    Cursor.Writer.u64 w (Units.Time.to_int64_ns t.observed);
    Cursor.Writer.contents w

  let decode buf =
    decode_guard "deadline-exceeded"
      (fun r ->
        let sequence = Cursor.Reader.u32_int r in
        let deadline = Units.Time.of_int64_ns (Cursor.Reader.u64 r) in
        let observed = Units.Time.of_int64_ns (Cursor.Reader.u64 r) in
        { sequence; deadline; observed })
      buf

  let lateness t = Units.Time.diff t.observed t.deadline

  let equal a b =
    a.sequence = b.sequence
    && Units.Time.equal a.deadline b.deadline
    && Units.Time.equal a.observed b.observed

  let pp fmt t =
    Format.fprintf fmt "deadline-exceeded{seq %d, late by %a}" t.sequence
      Units.Time.pp (lateness t)
end

module Backpressure = struct
  type t = { origin : Addr.Ip.t; advised_pace_mbps : int; severity : int }

  let encode t =
    let w = Cursor.Writer.create 9 in
    Cursor.Writer.u32 w (Addr.Ip.to_int32 t.origin);
    Cursor.Writer.u32_int w t.advised_pace_mbps;
    Cursor.Writer.u8 w t.severity;
    Cursor.Writer.contents w

  let decode buf =
    decode_guard "backpressure"
      (fun r ->
        let origin = Addr.Ip.of_int32 (Cursor.Reader.u32 r) in
        let advised_pace_mbps = Cursor.Reader.u32_int r in
        let severity = Cursor.Reader.u8 r in
        { origin; advised_pace_mbps; severity })
      buf

  let equal a b =
    Addr.Ip.equal a.origin b.origin
    && a.advised_pace_mbps = b.advised_pace_mbps
    && a.severity = b.severity

  let pp fmt t =
    Format.fprintf fmt "backpressure{from %a, pace %dMbps, severity %d}"
      Addr.Ip.pp t.origin t.advised_pace_mbps t.severity
end

module Buffer_advert = struct
  type t = { buffer : Addr.Ip.t; capacity : Units.Size.t; rtt_hint : Units.Time.t }

  let encode t =
    let w = Cursor.Writer.create 20 in
    Cursor.Writer.u32 w (Addr.Ip.to_int32 t.buffer);
    Cursor.Writer.u64 w (Int64.of_int (Units.Size.to_bytes t.capacity));
    Cursor.Writer.u64 w (Units.Time.to_int64_ns t.rtt_hint);
    Cursor.Writer.contents w

  let decode buf =
    decode_guard "buffer-advert"
      (fun r ->
        let buffer = Addr.Ip.of_int32 (Cursor.Reader.u32 r) in
        let capacity = Units.Size.bytes (Int64.to_int (Cursor.Reader.u64 r)) in
        let rtt_hint = Units.Time.of_int64_ns (Cursor.Reader.u64 r) in
        { buffer; capacity; rtt_hint })
      buf

  let equal a b =
    Addr.Ip.equal a.buffer b.buffer
    && Units.Size.equal a.capacity b.capacity
    && Units.Time.equal a.rtt_hint b.rtt_hint

  let pp fmt t =
    Format.fprintf fmt "buffer-advert{%a, %a, rtt %a}" Addr.Ip.pp t.buffer
      Units.Size.pp t.capacity Units.Time.pp t.rtt_hint
end

let send env ?(experiment = Experiment_id.make ~experiment:0 ~slice:0) ~dst
    kind payload =
  let header = Header.with_kind (Header.mode0 ~experiment) kind in
  let encap =
    Encap.Over_ipv4
      { src = env.Mmt_runtime.Env.local_ip; dst; dscp = 0; ttl = 64 }
  in
  env.Mmt_runtime.Env.send dst
    (Encap.packet env encap header ~length:(Bytes.length payload) (fun w ->
         Cursor.Writer.bytes w payload))
