open Mmt_util

type stats = { digests : int; overflowed : int; empty : int }

type hop = {
  residency : Stats.Summary.t;
  queue_depth : Stats.Summary.t;
  mutable stamps : int;
}

type t = {
  names : (int, string) Hashtbl.t;
  hops : (int, hop) Hashtbl.t;
  segments : (int * int, Stats.Summary.t) Hashtbl.t;
  e2e : Stats.Summary.t;
  mutable digests : int;
  mutable overflowed : int;
  mutable empty : int;
  mutable max_inconsistency_ns : int;
}

let create ?(nodes = []) () =
  let names = Hashtbl.create 8 in
  List.iter (fun (id, name) -> Hashtbl.replace names id name) nodes;
  {
    names;
    hops = Hashtbl.create 8;
    segments = Hashtbl.create 8;
    e2e = Stats.Summary.create ();
    digests = 0;
    overflowed = 0;
    empty = 0;
    max_inconsistency_ns = 0;
  }

let node_name t id =
  match Hashtbl.find_opt t.names id with
  | Some name -> name
  | None -> Printf.sprintf "node-%d" id

let hop_for t id =
  match Hashtbl.find_opt t.hops id with
  | Some hop -> hop
  | None ->
      let hop =
        {
          residency = Stats.Summary.create ();
          queue_depth = Stats.Summary.create ();
          stamps = 0;
        }
      in
      Hashtbl.replace t.hops id hop;
      hop

let segment_for t key =
  match Hashtbl.find_opt t.segments key with
  | Some summary -> summary
  | None ->
      let summary = Stats.Summary.create () in
      Hashtbl.replace t.segments key summary;
      summary

let ns = Units.Time.to_ns

let add t (digest : Digest.t) =
  t.digests <- t.digests + 1;
  if digest.Digest.overflowed then t.overflowed <- t.overflowed + 1;
  match digest.Digest.records with
  | [] -> t.empty <- t.empty + 1
  | records ->
      List.iter
        (fun (r : Mmt.Header.int_record) ->
          let hop = hop_for t r.Mmt.Header.node_id in
          hop.stamps <- hop.stamps + 1;
          Stats.Summary.add hop.residency
            (float_of_int (ns r.Mmt.Header.egress_ns - ns r.Mmt.Header.ingress_ns));
          Stats.Summary.add hop.queue_depth (float_of_int r.Mmt.Header.queue_depth))
        records;
      let rec walk = function
        | [] -> ()
        | [ (last : Mmt.Header.int_record) ] ->
            Stats.Summary.add
              (segment_for t (last.Mmt.Header.node_id, digest.Digest.sink_node))
              (float_of_int
                 (ns digest.Digest.sink_at - ns last.Mmt.Header.egress_ns))
        | (a : Mmt.Header.int_record) :: (b :: _ as rest) ->
            Stats.Summary.add
              (segment_for t (a.Mmt.Header.node_id, b.Mmt.Header.node_id))
              (float_of_int
                 (ns b.Mmt.Header.ingress_ns - ns a.Mmt.Header.egress_ns));
            walk rest
      in
      walk records;
      (match (Digest.covered_span digest, Digest.segment_sum digest) with
      | Some covered, Some pieces ->
          Stats.Summary.add t.e2e (float_of_int (ns covered));
          let drift = abs (ns covered - ns pieces) in
          if drift > t.max_inconsistency_ns then t.max_inconsistency_ns <- drift
      | _ -> ())

let stats t = { digests = t.digests; overflowed = t.overflowed; empty = t.empty }

let hop_ids t = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.hops [])

let hop_stamps t id =
  match Hashtbl.find_opt t.hops id with Some hop -> hop.stamps | None -> 0

let hop_residency t id =
  Option.map (fun hop -> hop.residency) (Hashtbl.find_opt t.hops id)

let segment_ids t =
  List.sort compare (Hashtbl.fold (fun key _ acc -> key :: acc) t.segments [])

let segment_latency t ~src ~dst = Hashtbl.find_opt t.segments (src, dst)

let e2e t = t.e2e
let max_inconsistency_ns t = t.max_inconsistency_ns

let time_of_ns_float v =
  Units.Time.to_string (Units.Time.ns (int_of_float (Float.max 0. v)))

let summary_cells summary =
  if Stats.Summary.count summary = 0 then ("-", "-", "-")
  else
    ( time_of_ns_float (Stats.Summary.median summary),
      time_of_ns_float (Stats.Summary.mean summary),
      time_of_ns_float (Stats.Summary.quantile summary 0.99) )

let hop_table t =
  let table =
    Table.create ~title:"INT per-hop breakdown"
      ~columns:
        [
          ("hop", Table.Left);
          ("stamps", Table.Right);
          ("residency p50", Table.Right);
          ("residency mean", Table.Right);
          ("residency p99", Table.Right);
          ("queue p50", Table.Right);
          ("queue max", Table.Right);
        ]
      ()
  in
  List.iter
    (fun id ->
      let hop = Hashtbl.find t.hops id in
      let p50, mean, p99 = summary_cells hop.residency in
      let queue_p50, queue_max =
        if Stats.Summary.count hop.queue_depth = 0 then ("-", "-")
        else
          ( Printf.sprintf "%.0f B" (Stats.Summary.median hop.queue_depth),
            Printf.sprintf "%.0f B" (Stats.Summary.max hop.queue_depth) )
      in
      Table.add_row table
        [ node_name t id; string_of_int hop.stamps; p50; mean; p99; queue_p50; queue_max ])
    (hop_ids t);
  table

let segment_table t =
  let table =
    Table.create ~title:"INT per-segment latency"
      ~columns:
        [
          ("segment", Table.Left);
          ("samples", Table.Right);
          ("p50", Table.Right);
          ("mean", Table.Right);
          ("p99", Table.Right);
        ]
      ()
  in
  List.iter
    (fun (src, dst) ->
      let summary = Hashtbl.find t.segments (src, dst) in
      let p50, mean, p99 = summary_cells summary in
      Table.add_row table
        [
          Printf.sprintf "%s -> %s" (node_name t src) (node_name t dst);
          string_of_int (Stats.Summary.count summary);
          p50;
          mean;
          p99;
        ])
    (segment_ids t);
  table

let render t =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer (Table.render (hop_table t));
  Buffer.add_char buffer '\n';
  Buffer.add_string buffer (Table.render (segment_table t));
  Buffer.add_char buffer '\n';
  let p50, mean, p99 = summary_cells t.e2e in
  Buffer.add_string buffer
    (Printf.sprintf
       "%d digests (%d overflowed, %d empty); covered end-to-end p50 %s, mean \
        %s, p99 %s; max per-packet drift %dns\n"
       t.digests t.overflowed t.empty p50 mean p99 t.max_inconsistency_ns);
  Buffer.contents buffer

let report ?(id = "INT") ?(title = "in-band telemetry per-hop breakdown") t =
  let rows = ref [] in
  let push row = rows := row :: !rows in
  push
    (Mmt_telemetry.Report.info ~metric:"digests collected"
       ~measured:
         (Printf.sprintf "%d (%d overflowed, %d empty)" t.digests t.overflowed
            t.empty));
  List.iter
    (fun node ->
      let hop = Hashtbl.find t.hops node in
      let p50, mean, p99 = summary_cells hop.residency in
      push
        (Mmt_telemetry.Report.info
           ~metric:(Printf.sprintf "hop %s residency" (node_name t node))
           ~measured:
             (Printf.sprintf "p50 %s / mean %s / p99 %s over %d stamps" p50 mean
                p99 hop.stamps));
      if Stats.Summary.count hop.queue_depth > 0 then
        push
          (Mmt_telemetry.Report.info
             ~metric:(Printf.sprintf "hop %s queue depth" (node_name t node))
             ~measured:
               (Printf.sprintf "p50 %.0f B / max %.0f B"
                  (Stats.Summary.median hop.queue_depth)
                  (Stats.Summary.max hop.queue_depth))))
    (hop_ids t);
  List.iter
    (fun (src, dst) ->
      let summary = Hashtbl.find t.segments (src, dst) in
      let p50, mean, p99 = summary_cells summary in
      push
        (Mmt_telemetry.Report.info
           ~metric:(Printf.sprintf "segment %s -> %s" (node_name t src) (node_name t dst))
           ~measured:(Printf.sprintf "p50 %s / mean %s / p99 %s" p50 mean p99)))
    (segment_ids t);
  let e2e_p50, e2e_mean, e2e_p99 = summary_cells t.e2e in
  push
    (Mmt_telemetry.Report.info ~metric:"covered end-to-end"
       ~measured:(Printf.sprintf "p50 %s / mean %s / p99 %s" e2e_p50 e2e_mean e2e_p99));
  push
    (Mmt_telemetry.Report.check ~metric:"segment sums vs end-to-end"
       ~expected:"telescoping sum, zero drift"
       ~measured:(Printf.sprintf "max drift %dns" t.max_inconsistency_ns)
       (t.max_inconsistency_ns <= 1));
  { Mmt_telemetry.Report.id; title; note = None; rows = List.rev !rows }
