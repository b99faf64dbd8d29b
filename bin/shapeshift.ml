(* Command-line interface: run experiment reproductions, drive the
   pilot with custom parameters, inspect the catalog. *)

open Mmt_util
open Cmdliner

(* `shapeshift list` ----------------------------------------------------- *)

let list_cmd =
  let run () =
    let table =
      Table.create ~title:"Experiment reproductions"
        ~columns:[ ("id", Table.Left); ("title", Table.Left) ]
        ()
    in
    List.iter
      (fun (e : Mmt_experiments.Registry.entry) ->
        Table.add_row table [ e.Mmt_experiments.Registry.id; e.Mmt_experiments.Registry.title ])
      Mmt_experiments.Registry.all;
    Table.print table;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List every table/figure reproduction.")
    Term.(const run $ const ())

(* `shapeshift experiments [ID...]` -------------------------------------- *)

let experiments_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  let run ids =
    match ids with
    | [] -> if Mmt_experiments.Registry.run_all () then 0 else 1
    | ids ->
        List.fold_left
          (fun code id ->
            match Mmt_experiments.Registry.find id with
            | None ->
                Printf.eprintf "unknown experiment %S (try `shapeshift list`)\n" id;
                2
            | Some entry ->
                Printf.printf "### %s — %s\n\n%!" entry.Mmt_experiments.Registry.id
                  entry.Mmt_experiments.Registry.title;
                let output, ok = entry.Mmt_experiments.Registry.run () in
                print_string output;
                print_newline ();
                if ok then code else 1)
          0 ids
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures (all, or by id).")
    Term.(const run $ ids)

(* `--jobs`, shared by `all`, `campaign` and `facility` ------------------ *)

let jobs_arg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected 0 (auto) or a positive count, got %S" s))
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int)) 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run whole simulations on up to $(docv) domains; 0 picks the \
           machine's recommended domain count, and larger requests are \
           capped at it (extra domains only contend).  Every simulation \
           is self-contained and deterministic, so the output is \
           byte-identical at any $(docv).")

(* `shapeshift all [--jobs N]` --------------------------------------------- *)

let all_cmd =
  let run jobs = if Mmt_experiments.Registry.run_all ~jobs () then 0 else 1 in
  Cmd.v
    (Cmd.info "all"
       ~doc:"Run the full experiment sweep, optionally across domains.")
    Term.(const run $ jobs_arg)

(* `--profile`, shared by `pilot` and `telemetry` ------------------------ *)

let profile_arg =
  let parse = function
    | "physical" -> Ok Mmt_pilot.Profile.physical_100gbe
    | "fabric" -> Ok Mmt_pilot.Profile.fabric_virtual
    | other -> Error (`Msg (Printf.sprintf "unknown profile %S" other))
  in
  let print fmt (p : Mmt_pilot.Profile.t) =
    Format.pp_print_string fmt p.Mmt_pilot.Profile.name
  in
  Arg.(
    value
    & opt (conv (parse, print)) Mmt_pilot.Profile.physical_100gbe
    & info [ "profile" ] ~docv:"PROFILE" ~doc:"Hardware variant: physical or fabric.")

(* `shapeshift pilot ...` -------------------------------------------------- *)

let pilot_cmd =
  let fragments =
    Arg.(value & opt int 2000 & info [ "fragments" ] ~doc:"Fragments to stream.")
  in
  let loss =
    Arg.(value & opt float 0.002 & info [ "loss" ] ~doc:"WAN drop probability.")
  in
  let corrupt =
    Arg.(value & opt float 0.0005 & info [ "corrupt" ] ~doc:"WAN corruption probability.")
  in
  let researchers =
    Arg.(value & opt int 0 & info [ "researchers" ] ~doc:"Duplicated-stream consumers.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~doc:"Activate the Timely feature with this budget.")
  in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Simulation seed.") in
  let int_flag =
    Arg.(
      value & flag
      & info [ "int" ]
          ~doc:"Stamp in-band telemetry along the path and print the per-hop breakdown.")
  in
  let run profile fragments loss corrupt researchers deadline_ms seed int_flag =
    let config =
      {
        Mmt_pilot.Pilot.default_config with
        Mmt_pilot.Pilot.profile;
        fragment_count = fragments;
        wan_loss = loss;
        wan_corrupt = corrupt;
        researchers;
        deadline_budget = Option.map Units.Time.ms deadline_ms;
        int_telemetry = int_flag;
        seed;
      }
    in
    let pilot = Mmt_pilot.Pilot.build config in
    Mmt_pilot.Pilot.run pilot;
    let r = Mmt_pilot.Pilot.results pilot in
    let receiver = r.Mmt_pilot.Pilot.receiver in
    let table =
      Table.create
        ~title:
          (Printf.sprintf "Pilot run: %s, %d fragments, %.3g%% loss, seed %Ld"
             profile.Mmt_pilot.Profile.name fragments (loss *. 100.) seed)
        ~columns:[ ("metric", Table.Left); ("value", Table.Right) ]
        ()
    in
    let row name value = Table.add_row table [ name; value ] in
    row "emitted" (string_of_int r.Mmt_pilot.Pilot.emitted);
    row "delivered" (string_of_int receiver.Mmt.Receiver.delivered);
    row "gaps detected" (string_of_int receiver.Mmt.Receiver.gaps_detected);
    row "recovered" (string_of_int receiver.Mmt.Receiver.recovered);
    row "lost" (string_of_int receiver.Mmt.Receiver.lost);
    row "duplicates" (string_of_int receiver.Mmt.Receiver.duplicates);
    row "NAKs sent" (string_of_int receiver.Mmt.Receiver.naks_sent);
    row "DTN1 resends" (string_of_int r.Mmt_pilot.Pilot.buffer.Mmt.Buffer_host.frames_resent);
    row "late" (string_of_int receiver.Mmt.Receiver.late);
    row "aged" (string_of_int receiver.Mmt.Receiver.aged);
    row "goodput" (Units.Rate.to_string r.Mmt_pilot.Pilot.goodput);
    row "completion"
      (match receiver.Mmt.Receiver.completion with
      | Some t -> Units.Time.to_string t
      | None -> "-");
    List.iteri
      (fun i (stats : Mmt.Receiver.stats) ->
        row (Printf.sprintf "researcher %d delivered" i)
          (string_of_int stats.Mmt.Receiver.delivered))
      r.Mmt_pilot.Pilot.researcher_stats;
    Table.print table;
    Option.iter
      (fun collector ->
        print_newline ();
        print_string (Mmt_int.Collector.render collector))
      (Mmt_pilot.Pilot.int_collector pilot);
    if receiver.Mmt.Receiver.delivered = r.Mmt_pilot.Pilot.emitted then 0 else 1
  in
  Cmd.v
    (Cmd.info "pilot" ~doc:"Run the Fig. 4 pilot topology with custom parameters.")
    Term.(
      const run $ profile_arg $ fragments $ loss $ corrupt $ researchers
      $ deadline_ms $ seed $ int_flag)

(* `shapeshift telemetry` ---------------------------------------------------- *)

let telemetry_cmd =
  let fragments =
    Arg.(value & opt int 500 & info [ "fragments" ] ~doc:"Fragments to stream.")
  in
  let loss =
    Arg.(value & opt float 0. & info [ "loss" ] ~doc:"WAN drop probability.")
  in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Simulation seed.") in
  let run profile fragments loss seed =
    let config =
      {
        Mmt_pilot.Pilot.default_config with
        Mmt_pilot.Pilot.profile;
        fragment_count = fragments;
        wan_loss = loss;
        wan_corrupt = 0.;
        int_telemetry = true;
        seed;
      }
    in
    let pilot = Mmt_pilot.Pilot.build config in
    Mmt_pilot.Pilot.run pilot;
    match Mmt_pilot.Pilot.int_collector pilot with
    | None -> 1
    | Some collector ->
        print_string (Mmt_int.Collector.render collector);
        print_newline ();
        let report =
          Mmt_int.Collector.report
            ~title:
              (Printf.sprintf "in-band telemetry, %s profile"
                 profile.Mmt_pilot.Profile.name)
            collector
        in
        Mmt_telemetry.Report.print report;
        if Mmt_telemetry.Report.all_ok report then 0 else 1
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
        "Run the pilot with in-band telemetry on and print where each \
         nanosecond of latency is spent.")
    Term.(const run $ profile_arg $ fragments $ loss $ seed)

(* `shapeshift catalog` ------------------------------------------------------ *)

let catalog_cmd =
  let run () =
    let table =
      Table.create ~title:"Experiment catalog (Table 1 of the paper)"
        ~columns:
          [
            ("experiment", Table.Left);
            ("DAQ rate", Table.Right);
            ("fragment", Table.Right);
            ("WAN RTT", Table.Right);
            ("slices", Table.Right);
            ("alert stream", Table.Right);
          ]
        ()
    in
    List.iter
      (fun (e : Mmt_daq.Experiment.t) ->
        Table.add_row table
          [
            e.Mmt_daq.Experiment.name;
            Units.Rate.to_string e.Mmt_daq.Experiment.daq_rate;
            Units.Size.to_string e.Mmt_daq.Experiment.message_size;
            Units.Time.to_string e.Mmt_daq.Experiment.wan_rtt;
            string_of_int e.Mmt_daq.Experiment.slices;
            (match e.Mmt_daq.Experiment.alert_stream with
            | Some rate -> Units.Rate.to_string rate
            | None -> "-");
          ])
      Mmt_daq.Experiment.all;
    Table.print table;
    0
  in
  Cmd.v (Cmd.info "catalog" ~doc:"Print the instrument catalog (Table 1).")
    Term.(const run $ const ())

(* `shapeshift failover` ----------------------------------------------------- *)

let failover_cmd =
  let fail_at_ms =
    Arg.(
      value
      & opt (some float) (Some 5.)
      & info [ "fail-at-ms" ]
          ~doc:"When buffer A dies (omit failure with --no-failure).")
  in
  let no_failure =
    Arg.(value & flag & info [ "no-failure" ] ~doc:"Run the healthy baseline.")
  in
  let fragments =
    Arg.(value & opt int 12_000 & info [ "fragments" ] ~doc:"Fragments to stream.")
  in
  let run fail_at_ms no_failure fragments =
    let module C = Mmt_pilot.Chaos_run in
    let fail_at =
      if no_failure then None else Option.map Units.Time.ms fail_at_ms
    in
    let o = C.run (C.failover_trial ~fragment_count:fragments ?fail_at ()) in
    let table =
      Table.create ~title:"Discovery + failover run (§ 6 challenge 1)"
        ~columns:[ ("metric", Table.Left); ("value", Table.Right) ]
        ()
    in
    let row name value = Table.add_row table [ name; value ] in
    let lost = o.C.lost + o.C.unrecoverable in
    row "delivered" (string_of_int o.C.delivered);
    row "delivered degraded" (string_of_int o.C.degraded_delivered);
    row "recovered" (string_of_int o.C.recovered);
    row "lost" (string_of_int lost);
    row "NAKs served by buffer A" (string_of_int o.C.naks_served_by_a);
    row "NAKs served by buffer B" (string_of_int o.C.naks_served_by_b);
    row "planner mode changes" (string_of_int o.C.mode_changes);
    row "final buffer in the mode" o.C.final_buffer;
    row "invariant violations" (string_of_int (List.length o.C.violations));
    Table.print table;
    List.iter (fun v -> Printf.printf "  !! %s\n" v) o.C.violations;
    if lost = 0 && o.C.violations = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "failover"
       ~doc:"Kill a retransmission buffer mid-stream and watch discovery re-plan.")
    Term.(const run $ fail_at_ms $ no_failure $ fragments)

(* `shapeshift chaos` -------------------------------------------------------- *)

let chaos_cmd =
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List the scenarios and exit.")
  in
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            "Run a single scenario (substring match against the series \
             names); default runs the whole series.")
  in
  let fragments =
    Arg.(
      value
      & opt (some int) None
      & info [ "fragments" ] ~doc:"Override the fragment count.")
  in
  let show_log =
    Arg.(value & flag & info [ "log" ] ~doc:"Print the applied-fault log.")
  in
  let print_outcome name (params : Mmt_pilot.Chaos_run.params) show_log =
    let o = Mmt_pilot.Chaos_run.run params in
    let module C = Mmt_pilot.Chaos_run in
    let table =
      Table.create
        ~title:(Printf.sprintf "chaos: %s (%d fault events planned)" name
                  (Mmt_fault.Plan.length params.C.plan))
        ~columns:[ ("metric", Table.Left); ("value", Table.Right) ]
        ()
    in
    let row k v = Table.add_row table [ k; v ] in
    row "sequenced (emitted)" (string_of_int o.C.emitted);
    row "delivered" (string_of_int o.C.delivered);
    row "delivered degraded" (string_of_int o.C.degraded_delivered);
    row "recovered" (string_of_int o.C.recovered);
    row "lost" (string_of_int (o.C.lost + o.C.unrecoverable));
    row "duplicates" (string_of_int o.C.duplicates);
    row "headers flipped on-wire" (string_of_int o.C.tampered);
    row "caught in-network" (string_of_int o.C.verify_failed_innet);
    row "caught at receiver" (string_of_int o.C.checksum_failed_rx);
    row "destroyed by downed links" (string_of_int o.C.fault_drops);
    row "degraded rewrites" (string_of_int o.C.degraded_rewrites);
    row "planner mode changes" (string_of_int o.C.mode_changes);
    row "final buffer" o.C.final_buffer;
    row "NAKs served by A" (string_of_int o.C.naks_served_by_a);
    row "NAKs served by B" (string_of_int o.C.naks_served_by_b);
    row "faults applied" (string_of_int o.C.faults_applied);
    row "goodput" (Units.Rate.to_string o.C.goodput);
    row "completion"
      (match o.C.completion with
      | Some t -> Units.Time.to_string t
      | None -> "-");
    Table.print table;
    if show_log then
      List.iter
        (fun (at, what) ->
          Printf.printf "  %-12s FAULT %s\n" (Units.Time.to_string at) what)
        o.C.fault_log;
    Printf.printf "invariant: %s\n"
      (Mmt_fault.Invariant.to_string o.C.invariant);
    (match o.C.violations with
    | [] -> Printf.printf "invariants: OK\n\n"
    | vs ->
        Printf.printf "invariants: %d VIOLATION(S)\n" (List.length vs);
        List.iter (fun v -> Printf.printf "  !! %s\n" v) vs;
        print_newline ());
    o.C.violations = []
  in
  let run list_flag scenario fragments show_log =
    let scenarios = Mmt_experiments.Chaos.scenarios in
    if list_flag then begin
      List.iter (fun (name, _) -> print_endline name) scenarios;
      0
    end
    else
      let contains ~needle hay =
        let n = String.length needle and h = String.length hay in
        let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
        n = 0 || at 0
      in
      let selected =
        match scenario with
        | None -> scenarios
        | Some needle ->
            List.filter
              (fun (name, _) ->
                contains
                  ~needle:(String.lowercase_ascii needle)
                  (String.lowercase_ascii name))
              scenarios
      in
      match selected with
      | [] ->
          Printf.eprintf "no scenario matches (try `shapeshift chaos --list`)\n";
          2
      | selected ->
          let ok =
            List.fold_left
              (fun ok (name, params) ->
                let params =
                  match fragments with
                  | None -> params
                  | Some n ->
                      { params with Mmt_pilot.Chaos_run.fragment_count = n }
                in
                print_outcome name params show_log && ok)
              true selected
          in
          if ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the fault-injection series: kill buffers, flip header bits on \
          the wire, flap links, blackhole adverts — and check the delivery \
          invariants.")
    Term.(const run $ list_flag $ scenario $ fragments $ show_log)

(* `shapeshift campaign` ----------------------------------------------------- *)

let campaign_cmd =
  let trials =
    Arg.(
      value & opt int 200
      & info [ "trials" ] ~docv:"N" ~doc:"Generated plans to execute.")
  in
  let seed =
    Arg.(
      value & opt int64 0xC4A05EEDL
      & info [ "seed" ]
          ~doc:"Campaign seed; every trial seed derives from it.")
  in
  let scenario =
    Arg.(
      value & opt string "pilot"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Target scenario: $(b,pilot) or $(b,facility).")
  in
  let shrink_flag =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Shrink every violating plan to a locally minimal \
             counterexample (deterministic re-execution).")
  in
  let replay =
    Arg.(
      value
      & opt (some int64) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:
            "Skip the campaign: regenerate the one plan named by this \
             trial seed, execute it, and report.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"List every trial's one-line outcome.")
  in
  let run trials seed jobs scenario shrink_flag replay verbose =
    let module Camp = Mmt_fault.Campaign in
    let target =
      match scenario with
      | "pilot" -> Some (Mmt_pilot.Chaos_run.campaign_target ())
      | "facility" -> Some (Mmt_facility.Chaos.campaign_target ())
      | _ -> None
    in
    match target with
    | None ->
        Printf.eprintf
          "shapeshift campaign: unknown --scenario %s (pilot|facility)\n"
          scenario;
        2
    | Some target -> (
        let shrink_and_print ~profile ~seed:trial_seed plan =
          let violating candidate =
            (target.Camp.execute profile candidate).Camp.violations <> []
          in
          let r = Mmt_fault.Shrink.run ~violating plan in
          Printf.printf
            "shrunk seed 0x%016LX in %d step(s), %d execution(s): %s\n"
            trial_seed r.Mmt_fault.Shrink.steps r.Mmt_fault.Shrink.attempts
            (Mmt_fault.Plan.describe r.Mmt_fault.Shrink.plan)
        in
        match replay with
        | Some trial_seed ->
            let profile, plan =
              Mmt_fault.Generator.generate target.Camp.universe
                ~seed:trial_seed
            in
            Printf.printf "replay seed 0x%016LX [%s] against '%s'\n%s\n"
              trial_seed
              (Mmt_fault.Generator.profile_label profile)
              target.Camp.name
              (Mmt_fault.Plan.describe plan);
            let exec = target.Camp.execute profile plan in
            Printf.printf "invariant: %s\n"
              (Mmt_fault.Invariant.to_string exec.Camp.outcome);
            (match exec.Camp.violations with
            | [] ->
                Printf.printf "invariants: OK\n";
                0
            | vs ->
                Printf.printf "invariants: %d VIOLATION(S)\n" (List.length vs);
                List.iter (fun v -> Printf.printf "  !! %s\n" v) vs;
                if shrink_flag then
                  shrink_and_print ~profile ~seed:trial_seed plan;
                1)
        | None ->
            if trials < 1 then begin
              Printf.eprintf "shapeshift campaign: --trials must be positive\n";
              2
            end
            else begin
              let report = Camp.run ~jobs target ~trials ~seed in
              print_string (Camp.render ~verbose report);
              match Camp.violating report with
              | [] -> 0
              | bad ->
                  if shrink_flag then
                    List.iter
                      (fun (t : Camp.trial) ->
                        shrink_and_print ~profile:t.Camp.profile
                          ~seed:t.Camp.seed t.Camp.plan)
                      bad;
                  1
            end)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Fuzz a scenario with seeded random-but-valid fault plans, check \
          the delivery invariants on every trial, and exit non-zero on any \
          violation.")
    Term.(
      const run $ trials $ seed $ jobs_arg $ scenario $ shrink_flag $ replay
      $ verbose)

(* `shapeshift facility` ----------------------------------------------------- *)

let facility_cmd =
  let module Scenario = Mmt_facility.Scenario in
  let min_flows =
    Arg.(value & opt int 10 & info [ "min" ] ~docv:"N" ~doc:"Smallest flow count in the sweep.")
  in
  let max_flows =
    Arg.(value & opt int 1000 & info [ "max" ] ~docv:"N" ~doc:"Largest flow count in the sweep.")
  in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Simulation seed.") in
  let duration_ms =
    Arg.(
      value & opt float 3.
      & info [ "duration-ms" ] ~doc:"Workload emission window per point.")
  in
  let loss =
    Arg.(value & opt float 0.002 & info [ "loss" ] ~doc:"WAN drop probability.")
  in
  let plan =
    Arg.(
      value
      & opt (some int) None
      & info [ "plan" ] ~docv:"FLOWS"
          ~doc:
            "Print the static topology plan for $(docv) flows and exit \
             without simulating.")
  in
  let run min_flows max_flows jobs seed duration_ms loss plan =
    let base =
      {
        Scenario.default with
        Scenario.duration = Units.Time.ms duration_ms;
        wan_loss = loss;
        seed;
      }
    in
    match plan with
    | Some flows when flows < 1 ->
        Printf.eprintf "shapeshift facility: --plan needs at least 1 flow (got %d)\n"
          flows;
        2
    | Some flows ->
        print_string (Scenario.describe { base with Scenario.flows });
        0
    | None -> (
        if min_flows < 1 || max_flows < min_flows then begin
          Printf.eprintf
            "shapeshift facility: need 1 <= --min <= --max (got %d, %d)\n"
            min_flows max_flows;
          2
        end
        else
          match Mmt_experiments.Facility.log_points ~lo:min_flows ~hi:max_flows with
          | [] ->
              Printf.eprintf
                "shapeshift facility: no 1-3-10 point lies in [%d, %d]\n"
                min_flows max_flows;
              2
          | points ->
              let output, ok = Mmt_experiments.Facility.report ~jobs ~base ~points () in
              print_string output;
              print_newline ();
              if ok then 0 else 1)
  in
  Cmd.v
    (Cmd.info "facility"
       ~doc:
         "Sweep the facility-scale fan-in generator (E-F5): 10 to ~1000 \
          mixed-kind elephant flows through an aggregation tree and one \
          shared WAN bottleneck.")
    Term.(
      const run $ min_flows $ max_flows $ jobs_arg $ seed $ duration_ms $ loss
      $ plan)

(* `shapeshift trace` ----------------------------------------------------------- *)

let trace_cmd =
  let fragments =
    Arg.(value & opt int 40 & info [ "fragments" ] ~doc:"Fragments to stream.")
  in
  let limit =
    Arg.(value & opt int 60 & info [ "limit" ] ~doc:"Trace lines to print.")
  in
  let run fragments limit =
    (* A tiny traced pilot-like chain: the packet-level view of a mode
       change and a recovery. *)
    let engine = Mmt_sim.Engine.create () in
    let trace = Mmt_sim.Trace.create () in
    let topo = Mmt_sim.Topology.create ~engine ~trace () in
    let ring = Option.get (Mmt_sim.Topology.ring topo) in
    let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
    let rng = Rng.create ~seed:2L in
    let src = Mmt_sim.Topology.add_node topo ~name:"sensor" in
    let buf = Mmt_sim.Topology.add_node topo ~name:"dtn1" in
    let dst = Mmt_sim.Topology.add_node topo ~name:"dtn2" in
    let src_ip = Mmt_frame.Addr.Ip.of_octets 10 0 0 1 in
    let buf_ip = Mmt_frame.Addr.Ip.of_octets 10 0 0 2 in
    let dst_ip = Mmt_frame.Addr.Ip.of_octets 10 0 0 3 in
    let rate = Units.Rate.gbps 10. in
    let s_to_b =
      Mmt_sim.Topology.connect topo ~src ~dst:buf ~rate
        ~propagation:(Units.Time.us 50.) ()
    in
    let b_to_d =
      Mmt_sim.Topology.connect topo ~src:buf ~dst ~rate
        ~propagation:(Units.Time.ms 2.)
        ~loss:(Mmt_sim.Loss.bernoulli ~drop:0.05 ~corrupt:0. ~rng)
        ()
    in
    let d_to_b =
      Mmt_sim.Topology.connect topo ~src:dst ~dst:buf ~rate
        ~propagation:(Units.Time.ms 2.) ()
    in
    (* dtn1's table: frames addressed to it reach its buffer host, the
       rest go on to dtn2. *)
    let router_b = Mmt_innet.Router.create ~default:(Mmt_sim.Link.send b_to_d) ~ring 1 in
    let env_b = Mmt_innet.Router.env router_b ~engine ~fresh_id ~local_ip:buf_ip in
    let buffer = Mmt.Buffer_host.create ~env:env_b ~capacity:(Units.Size.mib 16) () in
    Mmt_innet.Router.add router_b buf_ip (Mmt.Buffer_host.on_packet buffer);
    let mode = Mmt.Mode.make ~name:"wan" ~reliable:buf_ip ~age_budget_us:50_000 () in
    let rewriter =
      Mmt_innet.Mode_rewriter.create ~mode
        ~re_encap:(Mmt.Encap.Over_ipv4 { src = buf_ip; dst = dst_ip; dscp = 0; ttl = 64 })
        ~pool:(Mmt_sim.Ring.pool ring)
        ~on_rewrite:(fun ~seq ~born:_ packet ->
          Option.iter (fun seq -> Mmt.Buffer_host.store_packet buffer ~seq packet) seq)
        ()
    in
    let _sw =
      Mmt_innet.Switch.attach ~engine ~node:buf ~profile:Mmt_innet.Switch.alveo_smartnic
        ~router:router_b ~elements:[ Mmt_innet.Mode_rewriter.element rewriter ] ()
    in
    let router_d = Mmt_innet.Router.create ~default:(Mmt_sim.Link.send d_to_b) ~ring 0 in
    let env_d = Mmt_innet.Router.env router_d ~engine ~fresh_id ~local_ip:dst_ip in
    let receiver =
      Mmt.Receiver.create ~env:env_d
        {
          Mmt.Receiver.experiment = Mmt.Experiment_id.make ~experiment:2 ~slice:0;
          nak_delay = Units.Time.ms 1.;
          nak_retry_timeout = Units.Time.ms 8.;
          max_nak_retries = 5;
          expected_total = Some fragments;
        }
        ~deliver:(fun _ _ -> ())
    in
    Mmt_sim.Node.set_handler dst (Mmt.Receiver.on_packet receiver);
    let router_s = Mmt_innet.Router.create ~default:(Mmt_sim.Link.send s_to_b) ~ring 0 in
    let env_s = Mmt_innet.Router.env router_s ~engine ~fresh_id ~local_ip:src_ip in
    let sender =
      Mmt.Sender.create ~env:env_s
        {
          Mmt.Sender.experiment = Mmt.Experiment_id.make ~experiment:2 ~slice:0;
          destination = dst_ip;
          encap = Mmt.Encap.Raw;
          deadline_budget = None;
        }
    in
    for i = 0 to fragments - 1 do
      ignore
        (Mmt_sim.Engine.schedule engine
           ~at:(Units.Time.scale (Units.Time.us 100.) (float_of_int i))
           (fun () -> Mmt.Sender.send sender (Bytes.make 512 'd')))
    done;
    Mmt_sim.Engine.run engine;
    print_string (Mmt_sim.Trace.render ~limit trace);
    let stats = Mmt.Receiver.stats receiver in
    Printf.printf
      "
%d fragments, %d delivered, %d recovered from dtn1, %d trace entries
"
      fragments stats.Mmt.Receiver.delivered stats.Mmt.Receiver.recovered
      (List.length (Mmt_sim.Trace.entries trace));
    0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Stream through a traced mini-pilot and dump the packet-event log.")
    Term.(const run $ fragments $ limit)

let main_cmd =
  let doc = "Multi-modal transport for DAQ workloads (HotNets '24 reproduction)" in
  Cmd.group
    (Cmd.info "shapeshift" ~version:"1.0.0" ~doc)
    [
      list_cmd;
      experiments_cmd;
      all_cmd;
      pilot_cmd;
      telemetry_cmd;
      catalog_cmd;
      failover_cmd;
      chaos_cmd;
      campaign_cmd;
      facility_cmd;
      trace_cmd;
    ]

let () =
  match Cmd.eval_value main_cmd with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit 0
  | Error _ -> exit 2
