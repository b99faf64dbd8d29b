type entry = { id : string; title : string; run : unit -> string * bool }

let all =
  [
    { id = "E-T1"; title = "Table 1: DAQ rates"; run = Table1.run };
    { id = "E-F1"; title = "Fig. 1: staged dataflow"; run = Fig1.run };
    { id = "E-F2"; title = "Fig. 2 / § 4.1: today's transport"; run = Fig2.run };
    { id = "E-F3"; title = "Fig. 3: multi-modal goal scenario"; run = Fig3.run };
    { id = "E-F4"; title = "Fig. 4 / § 5.4: pilot study"; run = Fig4.run };
    { id = "E-A1"; title = "ablation: buffer placement"; run = Ablations.buffer_placement };
    { id = "E-A2"; title = "ablation: loss sweep TCP vs MMT"; run = Ablations.loss_sweep };
    { id = "E-A4"; title = "ablation: deadline budget"; run = Ablations.deadline_sweep };
    { id = "E-A5"; title = "ablation: deadline-aware AQM"; run = Ablations.priority_queue };
    {
      id = "E-A6";
      title = "ablation: INT latency localization";
      run = Ablations.int_localization;
    };
    {
      id = "E-X1";
      title = "§ 6.1: resource discovery + failover";
      run = Challenge6.discovery_failover;
    };
    {
      id = "E-X2";
      title = "§ 6.2: in-network alert generation";
      run = Challenge6.payload_alerts;
    };
    { id = "E-R1"; title = "robustness: chaos series"; run = Chaos.run };
    {
      id = "E-R2";
      title = "robustness: randomized chaos campaigns";
      run = Chaos_campaign.run;
    };
    {
      id = "E-F5";
      title = "facility: fan-in flow-count sweep (10 -> ~1000)";
      run = Facility.run;
    };
  ]

let normalize id =
  let lower = String.lowercase_ascii id in
  if String.length lower >= 2 && String.sub lower 0 2 = "e-" then lower
  else "e-" ^ lower

let find id =
  let target = normalize id in
  List.find_opt (fun entry -> String.lowercase_ascii entry.id = target) all

(* Every experiment builds its own engine, topology and seeded Rng, and
   only returns a report string — no experiment touches shared mutable
   state — so the sweep parallelises over domains with no change to any
   result, and the results come back in registry order. *)
let run_collect ?(jobs = 1) () =
  let entries = Array.of_list all in
  Mmt_util.Parallel.init ~jobs (Array.length entries) (fun i ->
      let entry = entries.(i) in
      let started = Unix.gettimeofday () in
      let result = entry.run () in
      (entry, result, Unix.gettimeofday () -. started))
  |> Array.to_list

let print_result (entry, (output, ok), _wall_s) =
  Printf.printf "### %s — %s\n\n%!" entry.id entry.title;
  print_string output;
  if not ok then Printf.printf "!! %s: some shape checks FAILED\n" entry.id;
  print_newline ()

let run_all ?(jobs = 1) () =
  let results = run_collect ~jobs () in
  List.iter print_result results;
  List.for_all (fun (_, (_, ok), _) -> ok) results
