open Mmt_util

(* E-R2: randomized chaos campaigns.

   Where E-R1 runs seven hand-written fault plans, E-R2 turns the
   generator loose: seeded random-but-valid plans against the pilot
   (both profiles) and the facility (lossy), every trial checked
   against the delivery-invariant ledger and the termination watchdog.
   The campaign here is sized for the experiment sweep — the standing
   acceptance campaign (1000+ pilot, 200+ facility trials) runs from
   the CLI and in CI's campaign-smoke job.

   Campaigns are executed with [jobs = 1]: the registry sweep already
   parallelises over experiments, and domains beyond the cores only
   contend.  Determinism across job counts is covered by the test
   suite, which runs campaigns on several domains directly. *)

let pilot_trials = 24
let facility_trials = 6
let campaign_seed = 0xCA40_5EEDL

let run () =
  let pilot = Mmt_pilot.Chaos_run.campaign_target () in
  let facility = Mmt_facility.Chaos.campaign_target () in
  let reports =
    List.map
      (fun (target, trials) ->
        Mmt_fault.Campaign.run target ~trials ~seed:campaign_seed)
      [ (pilot, pilot_trials); (facility, facility_trials) ]
  in
  let table =
    Table.create ~title:"E-R2: randomized chaos campaigns (seeded fuzzing)"
      ~columns:
        [
          ("target", Table.Left);
          ("trials", Table.Right);
          ("ok", Table.Right);
          ("violating", Table.Right);
          ("fault events", Table.Right);
          ("engine events", Table.Right);
        ]
      ()
  in
  let totals =
    List.map
      (fun (r : Mmt_fault.Campaign.report) ->
        let bad = List.length (Mmt_fault.Campaign.violating r) in
        let faults =
          Array.fold_left
            (fun acc (t : Mmt_fault.Campaign.trial) ->
              acc + t.exec.Mmt_fault.Campaign.faults_applied)
            0 r.results
        and events =
          Array.fold_left
            (fun acc (t : Mmt_fault.Campaign.trial) ->
              acc + t.exec.Mmt_fault.Campaign.events)
            0 r.results
        in
        Table.add_row table
          [
            r.Mmt_fault.Campaign.target;
            string_of_int r.trials;
            string_of_int (r.trials - bad);
            string_of_int bad;
            string_of_int faults;
            string_of_int events;
          ];
        (r, bad, faults))
      reports
  in
  let violating = List.fold_left (fun acc (_, bad, _) -> acc + bad) 0 totals in
  let faults = List.fold_left (fun acc (_, _, f) -> acc + f) 0 totals in
  let trials = pilot_trials + facility_trials in
  (* Byte-determinism: the same campaign seed must render the same
     report — this is what makes a corpus seed a name. *)
  let replay = Mmt_fault.Campaign.run pilot ~trials:pilot_trials ~seed:campaign_seed in
  let first_render =
    match reports with r :: _ -> Mmt_fault.Campaign.render r | [] -> ""
  in
  let deterministic = Mmt_fault.Campaign.render replay = first_render in
  let profiles_exercised =
    match reports with
    | r :: _ ->
        Array.exists
          (fun (t : Mmt_fault.Campaign.trial) ->
            t.profile = Mmt_fault.Generator.Degrading)
          r.results
        && Array.exists
             (fun (t : Mmt_fault.Campaign.trial) ->
               t.profile = Mmt_fault.Generator.Lossy)
             r.results
    | [] -> false
  in
  let rows =
    [
      Mmt_telemetry.Report.check ~metric:"invariants survive random chaos"
        ~expected:"every generated plan leaves the ledger clean"
        ~measured:
          (Printf.sprintf "%d violation(s) across %d trials (%d fault events)"
             violating trials faults)
        (violating = 0);
      Mmt_telemetry.Report.check ~metric:"campaigns actually inject"
        ~expected:"the fuzzer produces live fault schedules, not empty plans"
        ~measured:(Printf.sprintf "%d fault events applied" faults)
        (faults > trials);
      Mmt_telemetry.Report.check ~metric:"both profiles exercised"
        ~expected:"pilot trials split between lossy and degrading plans"
        ~measured:
          (match reports with
          | r :: _ ->
              let d =
                Array.fold_left
                  (fun acc (t : Mmt_fault.Campaign.trial) ->
                    if t.profile = Mmt_fault.Generator.Degrading then acc + 1
                    else acc)
                  0 r.results
              in
              Printf.sprintf "%d lossy / %d degrading" (pilot_trials - d) d
          | [] -> "no report")
        profiles_exercised;
      Mmt_telemetry.Report.check ~metric:"a seed names its campaign"
        ~expected:"same seed, same rendered report, byte for byte"
        ~measured:(if deterministic then "replay identical" else "replay DIVERGED")
        deterministic;
    ]
  in
  let report =
    {
      Mmt_telemetry.Report.id = "E-R2";
      title = "randomized chaos campaigns: seeded fault-plan fuzzing (robustness)";
      note =
        Some
          "Plans are pure functions of their trial seed; violating seeds \
           shrink to minimal counterexamples and land in test/chaos_corpus/.";
      rows;
    }
  in
  ( Table.render table ^ "\n" ^ Mmt_telemetry.Report.render report,
    Mmt_telemetry.Report.all_ok report )
