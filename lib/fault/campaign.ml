open Mmt_util

(* Campaigns: N generated plans executed against one target, every
   trial checked against the delivery invariants plus the termination
   watchdog, folded into one deterministic report.

   The target is a closure bundle rather than a functor over pilot or
   facility scenarios: this library sits below both, so each scenario
   hands its own executor in.  Trials share no mutable state — every
   execution builds a fresh engine and topology — which is what lets
   the sweep run on {!Parallel.init}, as the experiment registry does:
   each trial's result lands at its index and the report is rendered
   in index order, so the bytes are identical at any [--jobs]. *)

type exec = {
  outcome : Invariant.outcome;
  violations : string list;
  faults_applied : int;
  events : int;
}

type target = {
  name : string;
  universe : Generator.universe;
  execute : Generator.profile -> Plan.t -> exec;
}

type trial = {
  index : int;
  seed : int64;
  profile : Generator.profile;
  plan : Plan.t;
  exec : exec;
}

type report = {
  target : string;
  trials : int;
  campaign_seed : int64;
  generator : Generator.config;
  results : trial array;
}

let trial_seeds ~seed ~trials =
  let master = Rng.create ~seed in
  Array.init trials (fun _ -> Rng.int64 master)

let run ?(jobs = 1) ?(config = Generator.default_config) target ~trials ~seed =
  if trials < 1 then invalid_arg "Fault.Campaign: trials must be positive";
  let seeds = trial_seeds ~seed ~trials in
  let results =
    Parallel.init ~jobs trials (fun index ->
        let trial_seed = seeds.(index) in
        let profile, plan =
          Generator.generate ~config target.universe ~seed:trial_seed
        in
        let exec = target.execute profile plan in
        { index; seed = trial_seed; profile; plan; exec })
  in
  { target = target.name; trials; campaign_seed = seed; generator = config; results }

let violating report =
  Array.to_list report.results
  |> List.filter (fun t -> t.exec.violations <> [])

let all_ok report = violating report = []

(* Stable fault-mix vocabulary: one label per Plan constructor, in
   declaration order. *)
let action_label = function
  | Plan.Link_down _ -> "link-down"
  | Plan.Link_up _ -> "link-up"
  | Plan.Partition _ -> "partition"
  | Plan.Heal _ -> "heal"
  | Plan.Degrade_rate _ -> "degrade-rate"
  | Plan.Restore_rate _ -> "restore-rate"
  | Plan.Fail_element _ -> "fail-element"
  | Plan.Restart_element _ -> "restart-element"
  | Plan.Blackhole_adverts _ -> "blackhole-adverts"
  | Plan.Unblackhole_adverts _ -> "unblackhole-adverts"
  | Plan.Corrupt_headers _ -> "corrupt-headers"
  | Plan.Stop_corrupting _ -> "stop-corrupting"

let action_labels =
  [
    "link-down"; "link-up"; "partition"; "heal"; "degrade-rate";
    "restore-rate"; "fail-element"; "restart-element"; "blackhole-adverts";
    "unblackhole-adverts"; "corrupt-headers"; "stop-corrupting";
  ]

(* Violation taxonomy: bucket by which invariant broke, not by the
   violation string's counters, so the histogram is stable across
   trials that differ only in magnitude. *)
let classify_violation v =
  let contains needle =
    let n = String.length needle and h = String.length v in
    let rec go i = i + n <= h && (String.sub v i n = needle || go (i + 1)) in
    go 0
  in
  if contains "did not terminate" then "watchdog"
  else if contains "duplicate" then "duplicate-delivery"
  else if contains "limbo" then "limbo"
  else if contains "accounting mismatch" then "accounting-mismatch"
  else "other"

let violation_classes =
  [ "watchdog"; "duplicate-delivery"; "limbo"; "accounting-mismatch"; "other" ]

let render ?(verbose = false) report =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "campaign '%s': %d trials, seed 0x%LX\n" report.target
    report.trials report.campaign_seed;
  let lossy = ref 0 and degrading = ref 0 in
  let ok = ref 0 and bad = ref 0 in
  let faults = ref 0 and events = ref 0 in
  let mix = Hashtbl.create 16 in
  let taxonomy = Hashtbl.create 8 in
  let bump table key =
    Hashtbl.replace table key
      (1 + Option.value ~default:0 (Hashtbl.find_opt table key))
  in
  Array.iter
    (fun t ->
      (match t.profile with
      | Generator.Lossy -> incr lossy
      | Generator.Degrading -> incr degrading);
      if t.exec.violations = [] then incr ok else incr bad;
      faults := !faults + t.exec.faults_applied;
      events := !events + t.exec.events;
      List.iter
        (fun (e : Plan.event) -> bump mix (action_label e.Plan.action))
        (Plan.events t.plan);
      List.iter (fun v -> bump taxonomy (classify_violation v)) t.exec.violations)
    report.results;
  Printf.bprintf buf "verdicts: %d ok, %d violating\n" !ok !bad;
  Printf.bprintf buf "profiles: %d lossy, %d degrading\n" !lossy !degrading;
  Printf.bprintf buf "faults applied: %d, engine events: %d\n" !faults !events;
  let histogram table labels =
    labels
    |> List.filter_map (fun label ->
           match Hashtbl.find_opt table label with
           | Some n -> Some (Printf.sprintf "%s %d" label n)
           | None -> None)
    |> String.concat ", "
  in
  Printf.bprintf buf "fault mix: %s\n"
    (match histogram mix action_labels with "" -> "(empty plans)" | h -> h);
  Printf.bprintf buf "violation taxonomy: %s\n"
    (match histogram taxonomy violation_classes with
    | "" -> "(none)"
    | h -> h);
  if verbose then
    Array.iter
      (fun t ->
        Printf.bprintf buf "trial %4d seed 0x%016LX %-9s %s: %s\n" t.index
          t.seed
          (Generator.profile_label t.profile)
          (if t.exec.violations = [] then "ok" else "VIOLATING")
          (Invariant.to_string t.exec.outcome))
      report.results;
  Array.iter
    (fun t ->
      if t.exec.violations <> [] then begin
        Printf.bprintf buf "VIOLATION trial %d seed 0x%016LX [%s]\n" t.index
          t.seed
          (Generator.profile_label t.profile);
        Printf.bprintf buf "  plan: %s\n" (Plan.describe t.plan);
        Printf.bprintf buf "  invariant: %s\n" (Invariant.to_string t.exec.outcome);
        List.iter (fun v -> Printf.bprintf buf "  violated: %s\n" v)
          t.exec.violations
      end)
    report.results;
  Buffer.contents buf
