open Mmt_util
module Scenario = Mmt_facility.Scenario
module Metrics = Mmt_facility.Metrics

let log_points ~lo ~hi =
  let rec decades d acc =
    if d > hi then List.rev acc
    else
      let acc = if d >= lo then d :: acc else acc in
      let acc = if 3 * d >= lo && 3 * d <= hi then (3 * d) :: acc else acc in
      decades (10 * d) acc
  in
  decades 1 []

(* The registry run keeps the emission window short: the sweep's
   shape (contention growing with flow count) is visible at 3 ms, and
   the full-window run stays available via `shapeshift facility`. *)
let default_base = { Scenario.default with Scenario.duration = Units.Time.ms 3. }
let default_points = log_points ~lo:10 ~hi:1000

let pct x = Printf.sprintf "%.2f%%" (100. *. x)

let report ?(jobs = 1) ?(base = default_base) ?(points = default_points) () =
  if points = [] then invalid_arg "Facility.report: no sweep points";
  (* Each point is a self-contained deterministic simulation, so the
     points run on separate domains and the report keeps their order. *)
  let points = Array.of_list points in
  let results =
    Parallel.init ~jobs (Array.length points) (fun i ->
        let flows = points.(i) in
        (flows, Scenario.run { base with Scenario.flows }))
    |> Array.to_list
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E-F5 facility sweep: wan %s, loss %.3g%%, window %s, seed %Ld"
           (Units.Rate.to_string Scenario.wan_rate)
           (base.Scenario.wan_loss *. 100.)
           (Units.Time.to_string base.Scenario.duration)
           base.Scenario.seed)
      ~columns:
        [
          ("flows", Table.Right);
          ("goodput", Table.Right);
          ("fairness", Table.Right);
          ("deadline", Table.Right);
          ("recovered", Table.Right);
          ("lost", Table.Right);
          ("retx HW", Table.Right);
          ("NAK HW", Table.Right);
          ("events", Table.Right);
        ]
      ()
  in
  List.iter
    (fun (flows, (r : Scenario.result)) ->
      let s = r.Scenario.summary in
      Table.add_row table
        [
          string_of_int flows;
          Units.Rate.to_string s.Metrics.goodput;
          Printf.sprintf "%.4f" s.Metrics.fairness;
          pct s.Metrics.deadline_hit_rate;
          string_of_int s.Metrics.recovered;
          string_of_int s.Metrics.lost;
          Printf.sprintf "%dKiB" (s.Metrics.retx_occupancy_hw / 1024);
          string_of_int s.Metrics.nak_state_hw;
          string_of_int r.Scenario.events;
        ])
    results;
  let first = List.hd results in
  let last = List.nth results (List.length results - 1) in
  let summary_of (_, (r : Scenario.result)) = r.Scenario.summary in
  let goodput r = Units.Rate.to_bps (summary_of r).Metrics.goodput in
  let total_gaps =
    List.fold_left
      (fun acc r ->
        acc + (summary_of r).Metrics.recovered + (summary_of r).Metrics.lost)
      0 results
  in
  let max_nak_hw =
    List.fold_left (fun acc r -> max acc (summary_of r).Metrics.nak_state_hw) 0 results
  in
  let rerun = Scenario.run { base with Scenario.flows = fst first } in
  let report =
    {
      Mmt_telemetry.Report.id = "E-F5";
      title = "facility fan-in: 10 -> ~1000 elephant flows over one shared WAN";
      note =
        Some
          (Printf.sprintf "per-flow nominal %s bulk / %s telemetry, fan-in degree %d, %d sinks"
             (Units.Rate.to_string Scenario.bulk_rate)
             (Units.Rate.to_string Scenario.telemetry_rate)
             Scenario.degree base.Scenario.sinks);
      rows =
        [
          (let metric = "aggregate goodput scales with fan-in" in
           match results with
           | [ _ ] ->
               (* Scaling needs two points; one point would be compared
                  with itself. *)
               Mmt_telemetry.Report.info ~metric
                 ~measured:"single point: scaling not assessed"
           | _ ->
               Mmt_telemetry.Report.check ~metric
                 ~expected:
                   "more elephants move more data (§ 2.1) until the WAN saturates"
                 ~measured:
                   (Printf.sprintf "%d flows: %s; %d flows: %s" (fst first)
                      (Units.Rate.to_string (summary_of first).Metrics.goodput)
                      (fst last)
                      (Units.Rate.to_string (summary_of last).Metrics.goodput))
                 (goodput last > goodput first));
          Mmt_telemetry.Report.check ~metric:"goodput bounded by the shared WAN"
            ~expected:"never exceeds the bottleneck line rate"
            ~measured:
              (Printf.sprintf "max %s of %s"
                 (Units.Rate.to_string
                    (Units.Rate.bps
                       (List.fold_left (fun acc r -> Float.max acc (goodput r)) 0. results)))
                 (Units.Rate.to_string Scenario.wan_rate))
            (List.for_all
               (fun r -> goodput r <= Units.Rate.to_bps Scenario.wan_rate)
               results);
          Mmt_telemetry.Report.check ~metric:"fairness uncontended"
            ~expected:"Jain index ~1.0 when the WAN has headroom"
            ~measured:(Printf.sprintf "%.4f at %d flows" (summary_of first).Metrics.fairness (fst first))
            ((summary_of first).Metrics.fairness >= 0.99);
          Mmt_telemetry.Report.check ~metric:"recovery machinery exercised"
            ~expected:"loss opens gaps; NAKs and retx buffers close them (§ 5.3)"
            ~measured:
              (Printf.sprintf "%d gaps across the sweep, NAK-state high water %d"
                 total_gaps max_nak_hw)
            (total_gaps > 0 && max_nak_hw > 0);
          Mmt_telemetry.Report.check ~metric:"deterministic at fixed seed"
            ~expected:"re-running a point reproduces its summary exactly"
            ~measured:(Printf.sprintf "%d-flow point re-run" (fst first))
            (rerun.Scenario.summary = (snd first).Scenario.summary);
          Mmt_telemetry.Report.info ~metric:"deadline hit-rate, min -> max flows"
            ~measured:
              (Printf.sprintf "%s -> %s"
                 (pct (summary_of first).Metrics.deadline_hit_rate)
                 (pct (summary_of last).Metrics.deadline_hit_rate));
          Mmt_telemetry.Report.info ~metric:"retx-buffer byte high water (max flow)"
            ~measured:
              (Printf.sprintf "%d KiB at %d flows"
                 ((summary_of last).Metrics.retx_occupancy_hw / 1024)
                 (fst last));
        ];
    }
  in
  let ok = Mmt_telemetry.Report.all_ok report in
  (Table.render table ^ "\n\n" ^ Mmt_telemetry.Report.render report, ok)

let run () = report ()
