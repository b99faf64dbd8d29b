open Mmt_util

let buffer_placement () =
  let positions = [ 0.0; 0.25; 0.5; 0.75; 0.9 ] in
  let outcomes =
    List.map
      (fun position ->
        ( position,
          Mmt_pilot.Runners.Placement_run.run
            (Mmt_pilot.Runners.Placement_run.params ~buffer_position:position
               ~fragment_count:4000 ~loss:0.005 ()) ))
      positions
  in
  let table =
    Table.create ~title:"E-A1: buffer placement sweep (13 ms WAN RTT, 0.5% loss)"
      ~columns:
        [
          ("buffer position", Table.Right);
          ("theoretical recovery RTT", Table.Right);
          ("delivered", Table.Right);
          ("recovered", Table.Right);
          ("max latency", Table.Right);
          ("p99 latency", Table.Right);
        ]
      ()
  in
  List.iter
    (fun (position, (o : Mmt_pilot.Runners.Placement_run.outcome)) ->
      Table.add_row table
        [
          Printf.sprintf "%.0f%% of path" (position *. 100.);
          Units.Time.to_string o.Mmt_pilot.Runners.Placement_run.recovery_rtt;
          string_of_int o.Mmt_pilot.Runners.Placement_run.delivered;
          string_of_int o.Mmt_pilot.Runners.Placement_run.recovered;
          Printf.sprintf "%.2f ms" (o.Mmt_pilot.Runners.Placement_run.latency_max *. 1e3);
          Printf.sprintf "%.2f ms" (o.Mmt_pilot.Runners.Placement_run.latency_p99 *. 1e3);
        ])
    outcomes;
  let first = snd (List.hd outcomes) in
  let last = snd (List.nth outcomes (List.length outcomes - 1)) in
  let ok =
    last.Mmt_pilot.Runners.Placement_run.latency_max
    < first.Mmt_pilot.Runners.Placement_run.latency_max
    && List.for_all
         (fun (_, (o : Mmt_pilot.Runners.Placement_run.outcome)) ->
           o.Mmt_pilot.Runners.Placement_run.delivered = 4000)
         outcomes
  in
  let report =
    {
      Mmt_telemetry.Report.id = "E-A1";
      title = "buffer placement ablation";
      note = None;
      rows =
        [
          Mmt_telemetry.Report.check ~metric:"worst-case latency vs placement"
            ~expected:"shrinks as the buffer nears the destination (§ 1, § 5.1)"
            ~measured:
              (Printf.sprintf "max %.2f ms at source vs %.2f ms at 90%%"
                 (first.Mmt_pilot.Runners.Placement_run.latency_max *. 1e3)
                 (last.Mmt_pilot.Runners.Placement_run.latency_max *. 1e3))
            ok;
        ];
    }
  in
  ( Table.render table ^ "\n" ^ Mmt_telemetry.Report.render report,
    Mmt_telemetry.Report.all_ok report )

let loss_sweep () =
  let rate = Units.Rate.gbps 100. in
  let rtt = Units.Time.ms 13. in
  let bdp = Units.Rate.bytes_in rate rtt in
  let losses = [ 0.; 1e-4; 1e-3; 5e-3 ] in
  let tcp_fct ?algorithm loss =
    let config = Mmt_tcp.Connection.tuned_config ~bdp in
    let config =
      match algorithm with
      | Some algorithm -> { config with Mmt_tcp.Connection.algorithm }
      | None -> config
    in
    let o =
      Mmt_pilot.Runners.Tcp_run.run
        (Mmt_pilot.Runners.Tcp_run.params ~rate ~rtt ~loss
           ~transfer:(Units.Size.mib 256) ~config ())
    in
    Option.map Units.Time.to_float_s o.Mmt_pilot.Runners.Tcp_run.fct
  in
  let mmt_fct loss =
    let o =
      Mmt_pilot.Runners.Placement_run.run
        (Mmt_pilot.Runners.Placement_run.params ~rate ~rtt ~loss
           ~fragment_count:10_000 ~fragment_size:(Units.Size.bytes 7200) ())
    in
    Option.map Units.Time.to_float_s o.Mmt_pilot.Runners.Placement_run.fct
  in
  let rows_data =
    List.map
      (fun loss ->
        ( loss,
          tcp_fct loss,
          tcp_fct ~algorithm:Mmt_tcp.Congestion.Bbr loss,
          mmt_fct loss ))
      losses
  in
  let table =
    Table.create
      ~title:
        "E-A2: loss sweep — tuned Cubic vs BBR [73] (256 MiB) vs multi-modal          (10000 x 7200 B), same path"
      ~columns:
        [
          ("loss rate", Table.Right);
          ("Cubic FCT", Table.Right);
          ("BBR FCT", Table.Right);
          ("MMT FCT", Table.Right);
        ]
      ()
  in
  let show = function Some s -> Printf.sprintf "%.3f s" s | None -> "DNF" in
  List.iter
    (fun (loss, tcp, bbr, mmt) ->
      Table.add_row table [ Printf.sprintf "%g" loss; show tcp; show bbr; show mmt ])
    rows_data;
  let at loss select =
    match List.find_opt (fun (l, _, _, _) -> l = loss) rows_data with
    | Some row -> select row
    | None -> None
  in
  let ratio_at loss = at loss (fun (_, tcp, _, _) -> tcp) in
  let bbr_at loss = at loss (fun (_, _, bbr, _) -> bbr) in
  let mmt_at loss = at loss (fun (_, _, _, mmt) -> mmt) in
  let tcp_clean = ratio_at 0. in
  let tcp_lossy = ratio_at 5e-3 in
  let mmt_all = List.filter_map (fun (_, _, _, m) -> m) rows_data in
  (* The multi-modal transport pays a bounded, additive recovery cost
     (a few local recovery RTTs at the stream tail), never a
     multiplicative collapse. *)
  let mmt_extra_cost =
    match mmt_all with
    | [] -> infinity
    | xs -> List.fold_left Float.max 0. xs -. List.fold_left Float.min infinity xs
  in
  let tcp_degrades =
    match (tcp_clean, tcp_lossy) with
    | Some clean, Some lossy -> lossy > 3. *. clean
    | Some _, None -> true (* did not finish: maximal degradation *)
    | _ -> false
  in
  let report =
    {
      Mmt_telemetry.Report.id = "E-A2";
      title = "loss sweep: who tolerates corruption loss";
      note = None;
      rows =
        [
          Mmt_telemetry.Report.check ~metric:"TCP under corruption loss"
            ~expected:"FCT degrades sharply (window collapse, § 4.1)"
            ~measured:
              (Printf.sprintf "clean %s -> 0.5%% loss %s" (show tcp_clean) (show tcp_lossy))
            tcp_degrades;
          Mmt_telemetry.Report.check ~metric:"multi-modal under corruption loss"
            ~expected:"bounded additive recovery cost, no collapse (§ 5.1)"
            ~measured:
              (Printf.sprintf "FCT grows by at most %.0f ms across the sweep"
                 (mmt_extra_cost *. 1e3))
            (mmt_extra_cost < 0.12);
          (let ordering =
             match (ratio_at 1e-3, bbr_at 1e-3, mmt_at 1e-3) with
             | Some cubic, Some bbr, Some mmt -> bbr < cubic /. 10. && mmt < bbr
             | _ -> false
           in
           Mmt_telemetry.Report.check ~metric:"BBR sits between Cubic and MMT"
             ~expected:
               "model-based control tolerates loss [73], local recovery beats both"
             ~measured:
               (Printf.sprintf "at 0.1%% loss: Cubic %s, BBR %s, MMT %s"
                  (show (ratio_at 1e-3)) (show (bbr_at 1e-3)) (show (mmt_at 1e-3)))
             ordering);
        ];
    }
  in
  ( Table.render table ^ "\n" ^ Mmt_telemetry.Report.render report,
    Mmt_telemetry.Report.all_ok report )

let deadline_sweep () =
  let budgets_ms = [ 3.; 6.; 8.; 12.; 30. ] in
  let late_fraction budget_ms =
    let config =
      {
        Mmt_pilot.Pilot.default_config with
        Mmt_pilot.Pilot.fragment_count = 800;
        wan_loss = 0.;
        wan_corrupt = 0.;
        deadline_budget = Some (Units.Time.ms budget_ms);
        payload = Mmt_daq.Workload.Synthetic (Units.Size.bytes 1024);
      }
    in
    let pilot = Mmt_pilot.Pilot.build config in
    Mmt_pilot.Pilot.run pilot;
    let r = (Mmt_pilot.Pilot.results pilot).Mmt_pilot.Pilot.receiver in
    float_of_int r.Mmt.Receiver.late /. float_of_int (max 1 r.Mmt.Receiver.delivered)
  in
  let sweep = List.map (fun b -> (b, late_fraction b)) budgets_ms in
  let table =
    Table.create
      ~title:"E-A4: deadline budget sweep (13 ms WAN RTT, one-way ~6.5 ms)"
      ~columns:[ ("budget", Table.Right); ("late fraction", Table.Right) ]
      ()
  in
  List.iter
    (fun (b, f) ->
      Table.add_row table [ Printf.sprintf "%.0f ms" b; Printf.sprintf "%.1f%%" (f *. 100.) ])
    sweep;
  let monotone_non_increasing =
    let rec check = function
      | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 1e-9 && check rest
      | _ -> true
    in
    check sweep
  in
  let tight = snd (List.hd sweep) in
  let loose = snd (List.nth sweep (List.length sweep - 1)) in
  let report =
    {
      Mmt_telemetry.Report.id = "E-A4";
      title = "deadline budget ablation";
      note = None;
      rows =
        [
          Mmt_telemetry.Report.check ~metric:"late fraction vs budget"
            ~expected:"falls from ~100% to 0 as the budget crosses path latency (Req 3)"
            ~measured:
              (Printf.sprintf "%.0f%% at %g ms -> %.0f%% at %g ms%s" (tight *. 100.)
                 (List.hd budgets_ms) (loose *. 100.)
                 (List.nth budgets_ms (List.length budgets_ms - 1))
                 (if monotone_non_increasing then ", monotone" else ""))
            (tight > 0.99 && loose = 0. && monotone_non_increasing);
        ];
    }
  in
  ( Table.render table ^ "\n" ^ Mmt_telemetry.Report.render report,
    Mmt_telemetry.Report.all_ok report )

let priority_queue () =
  let droptail = Mmt_pilot.Runners.Priority_run.run ~deadline_aware:false in
  let edf = Mmt_pilot.Runners.Priority_run.run ~deadline_aware:true in
  let table =
    Table.create
      ~title:
        "E-A5: alert stream sharing a congested 10 GbE hop with a 12 Gbps bulk burst"
      ~columns:
        [
          ("queue", Table.Left);
          ("alerts delivered", Table.Right);
          ("alerts late", Table.Right);
          ("alert p99 latency", Table.Right);
          ("bulk delivered", Table.Right);
        ]
      ()
  in
  let add name (o : Mmt_pilot.Runners.Priority_run.outcome) =
    Table.add_row table
      [
        name;
        string_of_int o.Mmt_pilot.Runners.Priority_run.alerts_delivered;
        string_of_int o.Mmt_pilot.Runners.Priority_run.alerts_late;
        Printf.sprintf "%.2f ms" (o.Mmt_pilot.Runners.Priority_run.alert_latency_p99 *. 1e3);
        string_of_int o.Mmt_pilot.Runners.Priority_run.bulk_delivered;
      ]
  in
  add "drop-tail" droptail;
  add "deadline-aware (EDF)" edf;
  let report =
    {
      Mmt_telemetry.Report.id = "E-A5";
      title = "deadline-aware AQM ablation";
      note = None;
      rows =
        [
          Mmt_telemetry.Report.check ~metric:"late alerts under congestion"
            ~expected:"EDF serves deadline-bearing packets first (§ 5.3)"
            ~measured:
              (Printf.sprintf "drop-tail: %d late; EDF: %d late"
                 droptail.Mmt_pilot.Runners.Priority_run.alerts_late
                 edf.Mmt_pilot.Runners.Priority_run.alerts_late)
            (droptail.Mmt_pilot.Runners.Priority_run.alerts_late > 0
            && edf.Mmt_pilot.Runners.Priority_run.alerts_late = 0);
          Mmt_telemetry.Report.check ~metric:"bulk stream unharmed"
            ~expected:"prioritization reorders, it does not starve"
            ~measured:
              (Printf.sprintf "bulk delivered %d vs %d"
                 edf.Mmt_pilot.Runners.Priority_run.bulk_delivered
                 droptail.Mmt_pilot.Runners.Priority_run.bulk_delivered)
            (edf.Mmt_pilot.Runners.Priority_run.bulk_delivered
            = droptail.Mmt_pilot.Runners.Priority_run.bulk_delivered);
        ];
    }
  in
  ( Table.render table ^ "\n" ^ Mmt_telemetry.Report.render report,
    Mmt_telemetry.Report.all_ok report )

let int_localization () =
  (* Run the identical lossless stream on both hardware profiles with
     in-band telemetry on, and let the INT decomposition localize where
     the latency difference actually lives: device residency (hardware
     class) vs path segments (propagation, identical RTT). *)
  let probe (profile : Mmt_pilot.Profile.t) =
    let config =
      {
        Mmt_pilot.Pilot.default_config with
        Mmt_pilot.Pilot.profile;
        fragment_count = 400;
        wan_loss = 0.;
        wan_corrupt = 0.;
        int_telemetry = true;
        payload = Mmt_daq.Workload.Synthetic (Units.Size.bytes 1024);
      }
    in
    let pilot = Mmt_pilot.Pilot.build config in
    Mmt_pilot.Pilot.run pilot;
    Option.get (Mmt_pilot.Pilot.int_collector pilot)
  in
  let fabric = probe Mmt_pilot.Profile.fabric_virtual in
  let physical = probe Mmt_pilot.Profile.physical_100gbe in
  let mean_ns = function
    | Some summary when Stats.Summary.count summary > 0 -> Stats.Summary.mean summary
    | _ -> nan
  in
  let show ns =
    if Float.is_nan ns then "-"
    else Units.Time.to_string (Units.Time.ns (int_of_float ns))
  in
  let components =
    [
      ( "dtn1 residency",
        (fun c -> mean_ns (Mmt_int.Collector.hop_residency c 1)) );
      ( "tofino2 residency",
        (fun c -> mean_ns (Mmt_int.Collector.hop_residency c 2)) );
      ( "segment dtn1 -> tofino2",
        (fun c -> mean_ns (Mmt_int.Collector.segment_latency c ~src:1 ~dst:2)) );
      ( "segment tofino2 -> dtn2",
        (fun c -> mean_ns (Mmt_int.Collector.segment_latency c ~src:2 ~dst:3)) );
      ( "covered end-to-end",
        (fun c -> mean_ns (Some (Mmt_int.Collector.e2e c))) );
    ]
  in
  let table =
    Table.create
      ~title:"E-A6: INT latency localization — fabric-virtual vs physical-100gbe"
      ~columns:
        [
          ("component (mean)", Table.Left);
          ("fabric-virtual", Table.Right);
          ("physical-100gbe", Table.Right);
          ("ratio", Table.Right);
        ]
      ()
  in
  List.iter
    (fun (name, f) ->
      let a = f fabric and b = f physical in
      Table.add_row table
        [ name; show a; show b; Printf.sprintf "%.1fx" (a /. b) ])
    components;
  let switch_ratio =
    mean_ns (Mmt_int.Collector.hop_residency fabric 2)
    /. mean_ns (Mmt_int.Collector.hop_residency physical 2)
  in
  let segment_invariant =
    List.for_all
      (fun (src, dst) ->
        let a = mean_ns (Mmt_int.Collector.segment_latency fabric ~src ~dst) in
        let b = mean_ns (Mmt_int.Collector.segment_latency physical ~src ~dst) in
        Float.abs (a -. b) /. b < 0.10)
      [ (1, 2); (2, 3) ]
  in
  let drift =
    max
      (Mmt_int.Collector.max_inconsistency_ns fabric)
      (Mmt_int.Collector.max_inconsistency_ns physical)
  in
  let report =
    {
      Mmt_telemetry.Report.id = "E-A6";
      title = "INT latency localization ablation";
      note = Some "lossless, 400 fragments per profile, same 13 ms WAN RTT";
      rows =
        [
          Mmt_telemetry.Report.check ~metric:"per-packet accounting closes"
            ~expected:"hop residencies + segment gaps telescope to the covered span"
            ~measured:(Printf.sprintf "max drift %dns across both profiles" drift)
            (drift <= 1);
          Mmt_telemetry.Report.check ~metric:"switch residency localizes hardware class"
            ~expected:"software switch slower than Tofino2 by >=10x (20 us vs 450 ns)"
            ~measured:(Printf.sprintf "%.1fx" switch_ratio)
            (switch_ratio >= 10.);
          Mmt_telemetry.Report.check ~metric:"path segments are profile-invariant"
            ~expected:"same WAN RTT, so segment means within 10%"
            ~measured:
              (Printf.sprintf "dtn1->tofino2 %s vs %s; tofino2->dtn2 %s vs %s"
                 (show (mean_ns (Mmt_int.Collector.segment_latency fabric ~src:1 ~dst:2)))
                 (show (mean_ns (Mmt_int.Collector.segment_latency physical ~src:1 ~dst:2)))
                 (show (mean_ns (Mmt_int.Collector.segment_latency fabric ~src:2 ~dst:3)))
                 (show (mean_ns (Mmt_int.Collector.segment_latency physical ~src:2 ~dst:3))))
            segment_invariant;
        ];
    }
  in
  ( Table.render table ^ "\n" ^ Mmt_telemetry.Report.render report,
    Mmt_telemetry.Report.all_ok report )
