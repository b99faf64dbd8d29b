open Mmt_util
module Engine = Mmt_sim.Engine

let time = Alcotest.testable Units.Time.pp Units.Time.equal

let test_runs_in_time_order () =
  let engine = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule engine ~at:(Units.Time.us 30.) (fun () -> order := 3 :: !order));
  ignore (Engine.schedule engine ~at:(Units.Time.us 10.) (fun () -> order := 1 :: !order));
  ignore (Engine.schedule engine ~at:(Units.Time.us 20.) (fun () -> order := 2 :: !order));
  Engine.run engine;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order)

let test_fifo_for_equal_times () =
  let engine = Engine.create () in
  let order = ref [] in
  for i = 1 to 50 do
    ignore (Engine.schedule engine ~at:(Units.Time.us 5.) (fun () -> order := i :: !order))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "insertion order" (List.init 50 (fun i -> i + 1))
    (List.rev !order)

let test_clock_advances () =
  let engine = Engine.create () in
  let seen = ref Units.Time.zero in
  ignore (Engine.schedule engine ~at:(Units.Time.ms 2.) (fun () -> seen := Engine.now engine));
  Engine.run engine;
  Alcotest.check time "clock at event time" (Units.Time.ms 2.) !seen;
  Alcotest.check time "clock stays" (Units.Time.ms 2.) (Engine.now engine)

let test_past_events_run_now () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:(Units.Time.ms 1.) (fun () -> ()));
  Engine.run engine;
  let fired_at = ref Units.Time.zero in
  ignore
    (Engine.schedule engine ~at:Units.Time.zero (fun () -> fired_at := Engine.now engine));
  Engine.run engine;
  Alcotest.check time "not in the past" (Units.Time.ms 1.) !fired_at

let test_reentrant_scheduling () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then begin
      incr count;
      ignore (Engine.schedule_after engine ~delay:(Units.Time.us 1.) (fun () -> chain (n - 1)))
    end
  in
  chain 100;
  Engine.run engine;
  Alcotest.(check int) "all chained events ran" 100 !count;
  Alcotest.check time "clock" (Units.Time.us 100.) (Engine.now engine)

let test_cancellation () =
  let engine = Engine.create () in
  let fired = ref false in
  let handle = Engine.schedule engine ~at:(Units.Time.ms 1.) (fun () -> fired := true) in
  Engine.cancel engine handle;
  Engine.cancel engine handle;
  Engine.run engine;
  Alcotest.(check bool) "cancelled event skipped" false !fired

let test_run_until () =
  let engine = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule engine ~at:(Units.Time.ms 1.) (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule engine ~at:(Units.Time.ms 5.) (fun () -> fired := 5 :: !fired));
  Engine.run ~until:(Units.Time.ms 2.) engine;
  Alcotest.(check (list int)) "only first fired" [ 1 ] !fired;
  Alcotest.check time "clock advanced to until" (Units.Time.ms 2.) (Engine.now engine);
  Engine.run engine;
  Alcotest.(check (list int)) "rest fired later" [ 5; 1 ] !fired

let test_pending_and_processed () =
  let engine = Engine.create () in
  let h1 = Engine.schedule engine ~at:(Units.Time.ms 1.) ignore in
  ignore (Engine.schedule engine ~at:(Units.Time.ms 2.) ignore);
  Alcotest.(check int) "pending" 2 (Engine.pending engine);
  Engine.cancel engine h1;
  Alcotest.(check int) "pending after cancel" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "processed" 1 (Engine.processed engine);
  Alcotest.(check int) "pending drained" 0 (Engine.pending engine)

let test_step () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:(Units.Time.us 1.) ignore);
  ignore (Engine.schedule engine ~at:(Units.Time.us 2.) ignore);
  Alcotest.(check bool) "step 1" true (Engine.step engine);
  Alcotest.(check bool) "step 2" true (Engine.step engine);
  Alcotest.(check bool) "step empty" false (Engine.step engine)

let test_heap_stress () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:77L in
  let last = ref Units.Time.zero in
  let monotone = ref true in
  for _ = 1 to 10_000 do
    let at = Units.Time.of_int_ns (Rng.int rng ~bound:1_000_000) in
    ignore
      (Engine.schedule engine ~at (fun () ->
           if Units.Time.(Engine.now engine < !last) then monotone := false;
           last := Engine.now engine))
  done;
  Engine.run engine;
  Alcotest.(check bool) "clock monotone over 10k random events" true !monotone;
  Alcotest.(check int) "all processed" 10_000 (Engine.processed engine)

let test_mass_cancellation () =
  let engine = Engine.create () in
  let fired = ref 0 in
  let handles =
    List.init 1000 (fun i ->
        Engine.schedule engine
          ~at:(Units.Time.of_int_ns (i + 1))
          (fun () -> incr fired))
  in
  (* Cancel 600 of 1000: every event except those with index mod 5 < 2. *)
  List.iteri (fun i h -> if i mod 5 >= 2 then Engine.cancel engine h) handles;
  Alcotest.(check int) "pending reflects cancellations exactly" 400
    (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "only live events ran" 400 !fired;
  Alcotest.(check int) "processed" 400 (Engine.processed engine);
  Alcotest.(check int) "drained" 0 (Engine.pending engine)

let test_cancel_after_run () =
  let engine = Engine.create () in
  let handle = Engine.schedule engine ~at:(Units.Time.us 1.) ignore in
  ignore (Engine.schedule engine ~at:(Units.Time.us 2.) ignore);
  Engine.run engine;
  (* Cancelling a handle whose event already ran must not corrupt the
     live/pending accounting. *)
  Engine.cancel engine handle;
  Engine.cancel engine handle;
  Alcotest.(check int) "pending unaffected" 0 (Engine.pending engine);
  ignore (Engine.schedule engine ~at:(Units.Time.us 3.) ignore);
  Alcotest.(check int) "new event counted" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "all three processed" 3 (Engine.processed engine)

let test_compaction_preserves_order () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:41L in
  let last = ref Units.Time.zero in
  let monotone = ref true in
  let fired = ref 0 in
  let handles = ref [] in
  for i = 1 to 2_000 do
    let at = Units.Time.of_int_ns (Rng.int rng ~bound:100_000) in
    let h =
      Engine.schedule engine ~at (fun () ->
          if Units.Time.(Engine.now engine < !last) then monotone := false;
          last := Engine.now engine;
          incr fired)
    in
    handles := (i, h) :: !handles
  done;
  (* Cancel two thirds to force several compactions mid-stream. *)
  List.iter (fun (i, h) -> if i mod 3 <> 0 then Engine.cancel engine h) !handles;
  let expected_live = List.length (List.filter (fun (i, _) -> i mod 3 = 0) !handles) in
  Alcotest.(check int) "pending after burst" expected_live (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check bool) "clock monotone through compactions" true !monotone;
  Alcotest.(check int) "survivors all ran" expected_live (Engine.processed engine);
  Alcotest.(check int) "survivor set fired" expected_live !fired

(* Differential fuzz: drive the SoA heap and a naive reference model
   (linear scan for the minimum (at, seq) live event) through the same
   random schedule/push/cancel/step/run_bounded stream and demand
   identical pop order, clocks, termination verdicts and pending counts
   — across array growth and the compactions the cancel bursts trigger.
   A delay-line push is, in the model, an ordinary event keyed with the
   sequence number current at push time; it counts towards pending only
   as its line's one heap entry. *)
type model_event = {
  m_at : int; (* effective fire time, clamped at schedule *)
  m_seq : int;
  m_id : int;
  m_line : int; (* -1 for a scheduled event *)
  mutable m_cancelled : bool;
  mutable m_popped : bool;
}

let model_next events =
  List.fold_left
      (fun acc e ->
        if e.m_cancelled || e.m_popped then acc
        else
          match acc with
          | None -> Some e
          | Some b ->
              if e.m_at < b.m_at || (e.m_at = b.m_at && e.m_seq < b.m_seq)
              then Some e
              else acc)
    None events

let model_pop events clock =
  match model_next events with
  | None -> None
  | Some e ->
      e.m_popped <- true;
      clock := e.m_at;
      Some e.m_id

let test_fuzz_matches_reference_model () =
  List.iter
    (fun (seed, at_bound) ->
      let rng = Rng.create ~seed in
      let engine = Engine.create () in
      let by_id : (int, Engine.handle * model_event) Hashtbl.t =
        Hashtbl.create 256
      in
      let events = ref [] in
      let model_clock = ref 0 in
      let next_id = ref 0 in
      let next_seq = ref 0 in
      let engine_pops = ref [] in
      let model_pops = ref [] in
      let lines =
        Array.map
          (fun delay ->
            ( delay,
              Engine.Line.create engine ~delay:(Units.Time.of_int_ns delay)
                ~filler:(-1) (fun id -> engine_pops := id :: !engine_pops) ))
          [| 0; 7; at_bound / 50; at_bound / 3 |]
      in
      let model_pending () =
        let live =
          List.filter (fun e -> not (e.m_cancelled || e.m_popped)) !events
        in
        let busy l = List.exists (fun e -> e.m_line = l) live in
        List.length (List.filter (fun e -> e.m_line < 0) live)
        + List.length (List.filter busy (List.init (Array.length lines) Fun.id))
      in
      let schedule () =
        let at_req = Rng.int rng ~bound:at_bound in
        let id = !next_id in
        incr next_id;
        let handle =
          Engine.schedule engine
            ~at:(Units.Time.of_int_ns at_req)
            (fun () -> engine_pops := id :: !engine_pops)
        in
        let event =
          {
            m_at = max at_req !model_clock;
            m_seq = !next_seq;
            m_id = id;
            m_line = -1;
            m_cancelled = false;
            m_popped = false;
          }
        in
        incr next_seq;
        events := event :: !events;
        Hashtbl.replace by_id id (handle, event)
      in
      let push () =
        let l = Rng.int rng ~bound:(Array.length lines) in
        let delay, line = lines.(l) in
        let id = !next_id in
        incr next_id;
        Engine.Line.push line id;
        events :=
          {
            m_at = !model_clock + delay;
            m_seq = !next_seq;
            m_id = id;
            m_line = l;
            m_cancelled = false;
            m_popped = false;
          }
          :: !events;
        incr next_seq
      in
      let cancel () =
        if !next_id > 0 then begin
          (* Any id ever issued: live, already-run and already-cancelled
             handles all get exercised. *)
          let victim = Rng.int rng ~bound:!next_id in
          match Hashtbl.find_opt by_id victim with
          | None -> () (* a line item: not cancellable *)
          | Some (handle, event) ->
              Engine.cancel engine handle;
              if not (event.m_popped || event.m_cancelled) then
                event.m_cancelled <- true
        end
      in
      let pop () =
        let stepped = Engine.step engine in
        let model = model_pop !events model_clock in
        Alcotest.(check bool)
          "step mirrors model emptiness" (model <> None) stepped;
        Option.iter (fun id -> model_pops := id :: !model_pops) model
      in
      (* Live events at or before [until] run in (at, seq) order, at
         most [budget] of them; cancelled roots are free.  The run
         terminated iff no live event is left inside the window, and
         only then does the clock clamp to [until]. *)
      let run_bounded () =
        let until = !model_clock + Rng.int rng ~bound:((at_bound / 20) + 2) in
        let budget = Rng.int rng ~bound:6 in
        let terminated =
          Engine.run_bounded engine ~until:(Units.Time.of_int_ns until) ~budget
        in
        let rec model_run budget =
          match model_next !events with
          | Some e when e.m_at <= until ->
              budget > 0
              && begin
                   ignore (model_pop !events model_clock);
                   model_pops := e.m_id :: !model_pops;
                   model_run (budget - 1)
                 end
          | Some _ | None ->
              if !model_clock < until then model_clock := until;
              true
        in
        Alcotest.(check bool)
          "run_bounded termination mirrors model" (model_run budget) terminated;
        Alcotest.(check int)
          "run_bounded clock" !model_clock
          (Units.Time.to_ns (Engine.now engine));
        Alcotest.(check int)
          "run_bounded pending" (model_pending ()) (Engine.pending engine)
      in
      for _ = 1 to 3_000 do
        let r = Rng.int rng ~bound:100 in
        if r < 40 then schedule ()
        else if r < 55 then push ()
        else if r < 80 then cancel ()
        else if r < 92 then pop ()
        else run_bounded ()
      done;
      (* Drain both completely. *)
      let continue = ref true in
      while !continue do
        let stepped = Engine.step engine in
        let model = model_pop !events model_clock in
        Alcotest.(check bool)
          "drain mirrors model emptiness" (model <> None) stepped;
        Option.iter (fun id -> model_pops := id :: !model_pops) model;
        continue := stepped
      done;
      Alcotest.(check (list int))
        (Printf.sprintf "pop order (seed %Ld)" seed)
        (List.rev !model_pops) (List.rev !engine_pops);
      Alcotest.(check int)
        "final clock" !model_clock
        (Units.Time.to_ns (Engine.now engine));
      Alcotest.(check int) "drained" 0 (Engine.pending engine))
    (* The last seed schedules inside an 8 ns window, so most events
       tie on [at] and order falls to [seq]. *)
    [ (3L, 50_000); (17L, 50_000); (99L, 50_000); (4242L, 50_000); (7L, 8) ]

let qcheck_event_order =
  QCheck.Test.make ~name:"events always fire in schedule order" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 1_000))
    (fun delays ->
      let engine = Engine.create () in
      let fired = ref [] in
      List.iteri
        (fun i d ->
          ignore
            (Engine.schedule engine ~at:(Units.Time.of_int_ns d) (fun () ->
                 fired := (d, i) :: !fired)))
        delays;
      Engine.run engine;
      let result = List.rev !fired in
      let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i d -> (d, i)) delays)
      in
      result = sorted)

let test_last_event_at_survives_clamp () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:(Units.Time.us 3.) (fun () -> ()));
  Engine.run ~until:(Units.Time.ms 1.) engine;
  Alcotest.check time "clock clamped to the horizon" (Units.Time.ms 1.)
    (Engine.now engine);
  Alcotest.check time "last event time preserved" (Units.Time.us 3.)
    (Engine.last_event_at engine)

let suite =
  [
    Alcotest.test_case "time order" `Quick test_runs_in_time_order;
    Alcotest.test_case "fifo for ties" `Quick test_fifo_for_equal_times;
    Alcotest.test_case "clock advances" `Quick test_clock_advances;
    Alcotest.test_case "past events run now" `Quick test_past_events_run_now;
    Alcotest.test_case "re-entrant scheduling" `Quick test_reentrant_scheduling;
    Alcotest.test_case "cancellation" `Quick test_cancellation;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "pending/processed" `Quick test_pending_and_processed;
    Alcotest.test_case "step" `Quick test_step;
    Alcotest.test_case "heap stress" `Quick test_heap_stress;
    Alcotest.test_case "mass cancellation" `Quick test_mass_cancellation;
    Alcotest.test_case "cancel after run" `Quick test_cancel_after_run;
    Alcotest.test_case "compaction preserves order" `Quick
      test_compaction_preserves_order;
    Alcotest.test_case "fuzz vs reference model" `Quick
      test_fuzz_matches_reference_model;
    Alcotest.test_case "last_event_at vs clock clamp" `Quick
      test_last_event_at_survives_clamp;
    QCheck_alcotest.to_alcotest qcheck_event_order;
  ]
