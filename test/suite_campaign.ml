(* The chaos-campaign subsystem: plan conflict validation, the seeded
   generator, the campaign runner (sequential vs. pooled
   byte-identity), the shrinker against a known-violating defect, the
   watchdog, the shared invariant formatters, and the standing
   regression corpus under test/chaos_corpus/. *)
open Mmt_util
module Fault = Mmt_fault
module C = Mmt_pilot.Chaos_run

let us = Units.Time.us
let ms = Units.Time.ms

(* Plan validation: the deterministic accept/reject surface ---------------- *)

let rejects events =
  match Fault.Plan.make events with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_plan_rejects_nan () =
  Alcotest.(check bool) "NaN factor rejected" true
    (rejects
       [
         Fault.Plan.event ~at:Units.Time.zero
           (Fault.Plan.Degrade_rate { link = "l"; factor = Float.nan });
       ]);
  Alcotest.(check bool) "NaN probability rejected" true
    (rejects
       [
         Fault.Plan.event ~at:Units.Time.zero
           (Fault.Plan.Corrupt_headers
              { link = "l"; probability = Float.nan; bits = 1 });
       ])

let test_plan_rejects_same_instant_conflicts () =
  let conflict a b =
    rejects [ Fault.Plan.event ~at:(ms 1.) a; Fault.Plan.event ~at:(ms 1.) b ]
  in
  Alcotest.(check bool) "down vs up" true
    (conflict (Fault.Plan.Link_down "l") (Fault.Plan.Link_up "l"));
  Alcotest.(check bool) "degrade vs restore" true
    (conflict
       (Fault.Plan.Degrade_rate { link = "l"; factor = 0.5 })
       (Fault.Plan.Restore_rate "l"));
  Alcotest.(check bool) "fail vs restart" true
    (conflict (Fault.Plan.Fail_element "e") (Fault.Plan.Restart_element "e"));
  Alcotest.(check bool) "blackhole vs unblackhole" true
    (conflict
       (Fault.Plan.Blackhole_adverts "c")
       (Fault.Plan.Unblackhole_adverts "c"));
  Alcotest.(check bool) "corrupt vs stop" true
    (conflict
       (Fault.Plan.Corrupt_headers { link = "l"; probability = 0.1; bits = 1 })
       (Fault.Plan.Stop_corrupting "l"));
  (* A partition opens every member link: a same-instant Link_up on a
     member is the same down-vs-up conflict. *)
  Alcotest.(check bool) "partition vs member up" true
    (conflict (Fault.Plan.Partition [ "a"; "b" ]) (Fault.Plan.Link_up "a"))

let test_plan_accepts_benign_same_instant () =
  let accepts a b = not (rejects [ Fault.Plan.event ~at:(ms 1.) a; Fault.Plan.event ~at:(ms 1.) b ]) in
  (* Idempotent duplicates agree on polarity. *)
  Alcotest.(check bool) "duplicate down" true
    (accepts (Fault.Plan.Link_down "l") (Fault.Plan.Link_down "l"));
  Alcotest.(check bool) "duplicate degrade" true
    (accepts
       (Fault.Plan.Degrade_rate { link = "l"; factor = 0.5 })
       (Fault.Plan.Degrade_rate { link = "l"; factor = 0.2 }));
  (* Different subjects never conflict. *)
  Alcotest.(check bool) "down a, up b" true
    (accepts (Fault.Plan.Link_down "a") (Fault.Plan.Link_up "b"));
  (* Different families on one name never conflict: rate vs liveness. *)
  Alcotest.(check bool) "down vs restore-rate" true
    (accepts (Fault.Plan.Link_down "l") (Fault.Plan.Restore_rate "l"));
  (* Same pair at different instants is the normal case. *)
  Alcotest.(check bool) "window" true
    (not
       (rejects
          [
            Fault.Plan.event ~at:(ms 1.) (Fault.Plan.Link_down "l");
            Fault.Plan.event ~at:(ms 2.) (Fault.Plan.Link_up "l");
          ]))

(* Invariant formatters ---------------------------------------------------- *)

let sample_outcome () =
  let ledger = Fault.Invariant.ledger () in
  Fault.Invariant.delivered ledger ~seq:1;
  Fault.Invariant.delivered ledger ~seq:2;
  Fault.Invariant.delivered ledger ~seq:2;
  Fault.Invariant.outcome ~emitted:3 ~abandoned:1 ~resurrected:0 ~pending:0
    ~terminated:true ledger

let test_invariant_to_string () =
  Alcotest.(check string) "stable one-liner"
    "emitted=3 delivered=2 duplicates=1 abandoned=1 resurrected=0 pending=0 \
     terminated=true"
    (Fault.Invariant.to_string (sample_outcome ()))

let test_invariant_to_json () =
  Alcotest.(check string) "stable json"
    "{\"emitted\":3,\"delivered\":2,\"duplicates\":1,\"abandoned\":1,\
     \"resurrected\":0,\"pending\":0,\"terminated\":true}"
    (Fault.Invariant.to_json (sample_outcome ()))

(* Watchdog ---------------------------------------------------------------- *)

let test_run_bounded_watchdog () =
  let module Engine = Mmt_sim.Engine in
  (* A self-rescheduling livelock never drains; the budget must trip. *)
  let engine = Engine.create () in
  let rec tick () =
    ignore (Engine.schedule_after engine ~delay:(us 1.) tick)
  in
  tick ();
  Alcotest.(check bool) "livelock trips the budget" false
    (Engine.run_bounded engine ~until:(ms 10.) ~budget:1000);
  (* An honest run under budget terminates and matches [run ~until]. *)
  let finite = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 5 do
    ignore
      (Engine.schedule finite
         ~at:(us (float_of_int i))
         (fun () -> incr fired))
  done;
  Alcotest.(check bool) "finite run terminates" true
    (Engine.run_bounded finite ~until:(ms 1.) ~budget:1_000_000);
  Alcotest.(check int) "all events ran" 5 !fired;
  Alcotest.(check bool) "clock pinned to the cap" true
    (Units.Time.equal (Engine.now finite) (ms 1.))

(* Generator --------------------------------------------------------------- *)

let pilot_universe () = C.campaign_universe (C.campaign_trial ())

let test_generator_deterministic () =
  let u = pilot_universe () in
  let p1, plan1 = Fault.Generator.generate u ~seed:0xFEEDL in
  let p2, plan2 = Fault.Generator.generate u ~seed:0xFEEDL in
  Alcotest.(check bool) "profile equal" true (p1 = p2);
  Alcotest.(check string) "plan equal" (Fault.Plan.describe plan1)
    (Fault.Plan.describe plan2)

let test_generator_validity () =
  let u = pilot_universe () in
  let horizon = Units.Time.to_ns u.Fault.Generator.horizon in
  for seed = 0 to 199 do
    let profile, plan =
      Fault.Generator.generate u ~seed:(Int64.of_int seed)
    in
    let events = Fault.Plan.events plan in
    Alcotest.(check bool) "non-empty" true (events <> []);
    List.iter
      (fun (e : Fault.Plan.event) ->
        if Units.Time.to_ns e.Fault.Plan.at > horizon then
          Alcotest.failf "seed %d: event past the horizon" seed;
        match e.Fault.Plan.action with
        | Fault.Plan.Corrupt_headers { bits; probability; _ } ->
            Alcotest.(check bool) "single-bit storms" true (bits = 1);
            Alcotest.(check bool) "probability bounded" true
              (probability <= Fault.Generator.default_config.max_corrupt_probability)
        | Fault.Plan.Blackhole_adverts _ | Fault.Plan.Fail_element "ingress-rewriter"
        | Fault.Plan.Link_down "source->ingress" ->
            Alcotest.(check bool) "emission faults only when degrading" true
              (profile = Fault.Generator.Degrading)
        | _ -> ())
      events;
    (* Every opener has a later closer on the same subject: the last
       event for any subject is a closer, so faults cannot outlive the
       horizon.  Spot-check link liveness. *)
    let final = Hashtbl.create 8 in
    List.iter
      (fun (e : Fault.Plan.event) ->
        match e.Fault.Plan.action with
        | Fault.Plan.Link_down l -> Hashtbl.replace final l false
        | Fault.Plan.Link_up l -> Hashtbl.replace final l true
        | Fault.Plan.Partition ls ->
            List.iter (fun l -> Hashtbl.replace final l false) ls
        | Fault.Plan.Heal ls ->
            List.iter (fun l -> Hashtbl.replace final l true) ls
        | _ -> ())
      events;
    Hashtbl.iter
      (fun l up -> if not up then Alcotest.failf "seed %d: %s left down" seed l)
      final
  done

let test_generator_lossy_only_universe () =
  (* No degrading subjects on offer (the facility shape): the profile
     is pinned to lossy. *)
  let u = Mmt_facility.Chaos.universe in
  for seed = 0 to 49 do
    let profile, _ = Fault.Generator.generate u ~seed:(Int64.of_int seed) in
    Alcotest.(check bool) "lossy" true (profile = Fault.Generator.Lossy)
  done

let test_generator_rejects_hopeless_universe () =
  Alcotest.check_raises "no families"
    (Invalid_argument "Fault.Generator: universe offers no fault family")
    (fun () ->
      ignore
        (Fault.Generator.generate Fault.Generator.empty_universe ~seed:1L))

(* Campaigns --------------------------------------------------------------- *)

let small_target ?defect () = C.campaign_target ~fragment_count:400 ?defect ()

let test_campaign_trial_seeds_stable () =
  let a = Fault.Campaign.trial_seeds ~seed:9L ~trials:5 in
  let b = Fault.Campaign.trial_seeds ~seed:9L ~trials:5 in
  Alcotest.(check (array int64)) "stable schedule" a b;
  (* A prefix property would let corpora survive trial-count changes;
     the schedule is drawn up front, so it holds by construction. *)
  let c = Fault.Campaign.trial_seeds ~seed:9L ~trials:3 in
  Alcotest.(check (array int64)) "prefix" c (Array.sub a 0 3)

let test_campaign_jobs_byte_identical () =
  let target = small_target () in
  let seq = Fault.Campaign.run target ~trials:8 ~seed:0xCA17L in
  let par = Fault.Campaign.run ~jobs:4 target ~trials:8 ~seed:0xCA17L in
  Alcotest.(check string) "reports byte-identical"
    (Fault.Campaign.render ~verbose:true seq)
    (Fault.Campaign.render ~verbose:true par);
  Alcotest.(check bool) "clean" true (Fault.Campaign.all_ok seq)

let test_campaign_detects_planted_defect () =
  (* Broken_restart replays sequence 0 into the application from
     buffer A's restart handler: any plan that restarts buffer-a must
     violate, and only those plans may. *)
  let target = small_target ~defect:C.Broken_restart () in
  let report = Fault.Campaign.run target ~trials:12 ~seed:0xDEFEC7L in
  let restarts_a (t : Fault.Campaign.trial) =
    List.exists
      (fun (e : Fault.Plan.event) ->
        e.Fault.Plan.action = Fault.Plan.Restart_element "buffer-a")
      (Fault.Plan.events t.Fault.Campaign.plan)
  in
  let bad = Fault.Campaign.violating report in
  Alcotest.(check bool) "campaign catches the defect" true (bad <> []);
  Array.iter
    (fun (t : Fault.Campaign.trial) ->
      Alcotest.(check bool)
        (Printf.sprintf "trial %d verdict matches plan" t.Fault.Campaign.index)
        (restarts_a t)
        (t.Fault.Campaign.exec.Fault.Campaign.violations <> []))
    report.Fault.Campaign.results

(* Shrinking --------------------------------------------------------------- *)

let violating_oracle target profile candidate =
  (target.Fault.Campaign.execute profile candidate).Fault.Campaign.violations
  <> []

let test_shrink_converges_to_minimal () =
  let target = small_target ~defect:C.Broken_restart () in
  let plan =
    Fault.Plan.make
      [
        Fault.Plan.event ~at:(us 100.) (Fault.Plan.Link_down "buffer-b->sink");
        Fault.Plan.event ~at:(us 300.) (Fault.Plan.Link_up "buffer-b->sink");
        Fault.Plan.event ~at:(us 200.) (Fault.Plan.Fail_element "buffer-a");
        Fault.Plan.event ~at:(us 500.)
          (Fault.Plan.Restart_element "buffer-a");
        Fault.Plan.event ~at:(us 400.)
          (Fault.Plan.Degrade_rate
             { link = "ingress->buffer-a"; factor = 0.5 });
        Fault.Plan.event ~at:(us 600.)
          (Fault.Plan.Restore_rate "ingress->buffer-a");
      ]
  in
  let violating = violating_oracle target Fault.Generator.Lossy in
  Alcotest.(check bool) "plan violates under the defect" true (violating plan);
  let r1 = Fault.Shrink.run ~violating plan in
  let r2 = Fault.Shrink.run ~violating plan in
  Alcotest.(check int) "minimal: one event" 1
    (Fault.Plan.length r1.Fault.Shrink.plan);
  (match Fault.Plan.events r1.Fault.Shrink.plan with
  | [ e ] ->
      Alcotest.(check bool) "the culprit survives" true
        (e.Fault.Plan.action = Fault.Plan.Restart_element "buffer-a");
      Alcotest.(check bool) "advanced to t=0" true
        (Units.Time.is_zero e.Fault.Plan.at)
  | _ -> Alcotest.fail "expected a single event");
  Alcotest.(check string) "shrink is deterministic"
    (Fault.Plan.describe r1.Fault.Shrink.plan)
    (Fault.Plan.describe r2.Fault.Shrink.plan);
  Alcotest.(check int) "same move sequence" r1.Fault.Shrink.steps
    r2.Fault.Shrink.steps;
  Alcotest.(check int) "same oracle cost" r1.Fault.Shrink.attempts
    r2.Fault.Shrink.attempts

let test_shrink_keeps_progress_on_budget () =
  let target = small_target ~defect:C.Broken_restart () in
  let plan =
    Fault.Plan.make
      [
        Fault.Plan.event ~at:(us 200.) (Fault.Plan.Fail_element "buffer-a");
        Fault.Plan.event ~at:(us 500.)
          (Fault.Plan.Restart_element "buffer-a");
        Fault.Plan.event ~at:(us 100.) (Fault.Plan.Link_down "buffer-b->sink");
        Fault.Plan.event ~at:(us 300.) (Fault.Plan.Link_up "buffer-b->sink");
      ]
  in
  let violating = violating_oracle target Fault.Generator.Lossy in
  let full = Fault.Shrink.run ~violating plan in
  let capped = Fault.Shrink.run ~max_attempts:4 ~violating plan in
  Alcotest.(check bool) "budget bounds the oracle" true
    (capped.Fault.Shrink.attempts <= 4);
  Alcotest.(check bool) "partial progress is kept" true
    (Fault.Plan.length capped.Fault.Shrink.plan
    <= Fault.Plan.length plan);
  Alcotest.(check bool) "full shrink is no larger" true
    (Fault.Plan.length full.Fault.Shrink.plan
    <= Fault.Plan.length capped.Fault.Shrink.plan)

let test_shrink_not_violating_is_identity () =
  let plan =
    Fault.Plan.make
      [ Fault.Plan.event ~at:(us 100.) (Fault.Plan.Link_down "l") ]
  in
  let r = Fault.Shrink.run ~violating:(fun _ -> false) plan in
  Alcotest.(check int) "no steps" 0 r.Fault.Shrink.steps;
  Alcotest.(check string) "unchanged" (Fault.Plan.describe plan)
    (Fault.Plan.describe r.Fault.Shrink.plan)

(* Facility target --------------------------------------------------------- *)

let test_facility_empty_plan_clean () =
  let o = Mmt_facility.Chaos.run Fault.Plan.empty in
  Alcotest.(check (list string)) "no violations" [] o.Mmt_facility.Chaos.violations;
  Alcotest.(check int) "no faults" 0 o.Mmt_facility.Chaos.faults_applied;
  Alcotest.(check bool) "emission happened" true (o.Mmt_facility.Chaos.emitted > 0);
  (* Loss is off and no faults ran: every sequenced frame (including
     the tail probes) must land. *)
  Alcotest.(check int) "all delivered" o.Mmt_facility.Chaos.emitted
    o.Mmt_facility.Chaos.delivered

let test_facility_wan_partition_recovers () =
  let o =
    Mmt_facility.Chaos.run
      (Fault.Plan.make
         [
           Fault.Plan.event ~at:(ms 2.)
             (Fault.Plan.Partition [ "edge-in->edge-out"; "edge-out->edge-in" ]);
           Fault.Plan.event ~at:(ms 4.)
             (Fault.Plan.Heal [ "edge-in->edge-out"; "edge-out->edge-in" ]);
         ])
  in
  Alcotest.(check int) "both cut events applied" 2
    o.Mmt_facility.Chaos.faults_applied;
  Alcotest.(check (list string)) "invariants survive the cut" []
    o.Mmt_facility.Chaos.violations

(* Regression corpus ------------------------------------------------------- *)

(* `dune runtest` runs from _build/default/test (where the dune deps
   glob stages the corpus); a bare `dune exec test/...` runs from the
   project root. *)
let corpus_path () =
  List.find Sys.file_exists
    [ "chaos_corpus/corpus.txt"; "test/chaos_corpus/corpus.txt" ]

let read_corpus () =
  let ic = open_in (corpus_path ()) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> (
            let line = String.trim line in
            if line = "" || line.[0] = '#' then go acc
            else
              match String.split_on_char ' ' line with
              | target :: seed :: _ -> go ((target, Int64.of_string seed) :: acc)
              | _ -> failwith ("malformed corpus line: " ^ line))
      in
      go [])

let test_corpus_replays_clean () =
  let entries = read_corpus () in
  Alcotest.(check bool) "corpus is not empty" true (entries <> []);
  let pilot = lazy (small_target ()) in
  let facility = lazy (Mmt_facility.Chaos.campaign_target ()) in
  List.iter
    (fun (name, seed) ->
      let target =
        match name with
        | "pilot" -> Lazy.force pilot
        | "facility" -> Lazy.force facility
        | other -> failwith ("corpus names unknown target: " ^ other)
      in
      let profile, plan =
        Fault.Generator.generate target.Fault.Campaign.universe ~seed
      in
      let exec = target.Fault.Campaign.execute profile plan in
      match exec.Fault.Campaign.violations with
      | [] -> ()
      | vs ->
          Alcotest.failf "corpus seed %s 0x%LX regressed: %s" name seed
            (String.concat "; " vs))
    entries

let suite =
  [
    Alcotest.test_case "plan rejects NaN parameters" `Quick
      test_plan_rejects_nan;
    Alcotest.test_case "plan rejects same-instant conflicts" `Quick
      test_plan_rejects_same_instant_conflicts;
    Alcotest.test_case "plan accepts benign same-instant pairs" `Quick
      test_plan_accepts_benign_same_instant;
    Alcotest.test_case "invariant to_string stable" `Quick
      test_invariant_to_string;
    Alcotest.test_case "invariant to_json stable" `Quick test_invariant_to_json;
    Alcotest.test_case "run_bounded watchdog" `Quick test_run_bounded_watchdog;
    Alcotest.test_case "generator deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "generator plans are valid" `Quick
      test_generator_validity;
    Alcotest.test_case "generator pins lossy-only universes" `Quick
      test_generator_lossy_only_universe;
    Alcotest.test_case "generator rejects hopeless universe" `Quick
      test_generator_rejects_hopeless_universe;
    Alcotest.test_case "trial seed schedule stable" `Quick
      test_campaign_trial_seeds_stable;
    Alcotest.test_case "campaign sequential vs jobs byte-identical" `Slow
      test_campaign_jobs_byte_identical;
    Alcotest.test_case "campaign detects planted defect" `Slow
      test_campaign_detects_planted_defect;
    Alcotest.test_case "shrink converges to the minimal plan" `Slow
      test_shrink_converges_to_minimal;
    Alcotest.test_case "shrink keeps progress on budget" `Slow
      test_shrink_keeps_progress_on_budget;
    Alcotest.test_case "shrink of a passing plan is identity" `Quick
      test_shrink_not_violating_is_identity;
    Alcotest.test_case "facility empty plan is clean" `Slow
      test_facility_empty_plan_clean;
    Alcotest.test_case "facility WAN partition recovers" `Slow
      test_facility_wan_partition_recovers;
    Alcotest.test_case "regression corpus replays clean" `Slow
      test_corpus_replays_clean;
  ]
