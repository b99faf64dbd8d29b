(* Whole-run benchmark: four workloads measured end to end, then split
   by layer.  See README.md for the workloads, the metrics and how to
   compare two commits.

   For each workload the parent process
   - checks that the bench's own harness reproduces the library's entry
     points (harness equivalence, at reduced scale);
   - runs repetitions, each in a fresh child process, for [--seconds]
     (at least three), and reports every end-to-end metric as the median
     over them;
   - with [--trace 1], runs one more, traced, repetition (excluded from
     the medians), times the layers' public functions on inputs shaped
     like the workload, and reports the per-layer metrics instead.

   The last line on stdout is one JSON object: correct, attempted,
   failed and metrics.  The exit code is non-zero when any check fails:
   repetitions disagreeing on their digest or counts, the traced run
   disagreeing with the untraced ones, or a harness mismatch. *)

let usage =
  "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--scale F] \
   [--record FILE] [--spans FILE]"

(* ------------------------------------------------------------------ *)
(* Metric catalogue: names and units, as BENCHMARK.json declares them. *)

let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("heap_peak_mb", "MiB");
  ]

let per_layer =
  [
    ("engine.events", "count");
    ("engine.events_per_delivered", "ratio");
    ("engine.pending_median", "count");
    ("engine.pending_hw", "count");
    ("engine.unit_ns", "ns");
    ("engine.time_share", "ratio");
    ("link.hops", "count");
    ("link.queue_drops", "count");
    ("link.loss_drops", "count");
    ("link.events_per_hop", "ratio");
    ("link.unit_ns", "ns");
    ("link.time_share", "ratio");
    ("ring.acquired", "count");
    ("ring.overflow", "count");
    ("ring.capacity", "count");
    ("ring.unit_ns", "ns");
    ("ring.time_share", "ratio");
    ("innet.processed", "count");
    ("innet.rewrites", "count");
    ("innet.stamps", "count");
    ("innet.unit_ns_rewrite", "ns");
    ("innet.unit_ns_stamp", "ns");
    ("innet.major_words_rewrite", "words");
    ("innet.time_share", "ratio");
    ("transport.sent", "count");
    ("transport.delivered", "count");
    ("transport.gaps", "count");
    ("transport.naks", "count");
    ("transport.resent", "count");
    ("transport.retx_stored", "count");
    ("transport.unit_ns_receive", "ns");
    ("transport.unit_ns_retx_store", "ns");
    ("transport.major_words_receive", "words");
    ("transport.major_words_retx_store", "words");
    ("transport.time_share", "ratio");
    ("daq.fragments", "count");
    ("daq.unit_ns_encode", "ns");
    ("daq.major_words_encode", "words");
    ("daq.time_share", "ratio");
    ("fault.trials", "count");
    ("fault.faults_applied", "count");
    ("fault.events_per_trial", "ratio");
    ("fault.trial_base_ms", "ms");
    ("setup.links", "count");
    ("setup.nodes", "count");
    ("setup.major_words", "words");
    ("gc.minor_words_per_op", "words");
    ("gc.major_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("recon.time_share", "ratio");
    ("recon.alloc_share", "ratio");
    ("trace.overhead", "ratio");
    ("trace.leaf_mean_ns", "ns");
  ]

(* ------------------------------------------------------------------ *)
(* Child: one repetition, reported as "key value" lines. *)

let child ~workload ~seed ~scale ~spawned_at ~traced =
  let w = Option.get (Workloads.find workload) in
  let build_start = Timing.now_ns () in
  let gc_build = Gc.quick_stat () in
  let instance = w.Workloads.build ~scale ~seed in
  let build_end = Timing.now_ns () in
  let gc_run = Gc.quick_stat () in
  let tracer = if traced then Some (Tracer.create ()) else None in
  instance.Workloads.run tracer;
  let run_end = Timing.now_ns () in
  let gc_end = Gc.quick_stat () in
  let o = instance.Workloads.readout () in
  let readout_end = Timing.now_ns () in
  let kv key value = Printf.printf "%s %s\n" key value in
  let int key v = kv key (string_of_int v) in
  let words key f = kv key (Printf.sprintf "%.0f" (f gc_end -. f gc_run)) in
  int "build_start" build_start;
  int "build_end" build_end;
  int "run_end" run_end;
  int "readout_end" readout_end;
  int "setup_ns" (build_end - spawned_at);
  int "attempted" o.Workloads.attempted;
  int "failed" o.Workloads.failed;
  int "delivered" o.Workloads.delivered;
  int "sim_ns" o.Workloads.sim_ns;
  int "fragment_bytes" o.Workloads.fragment_bytes;
  kv "digest" o.Workloads.digest;
  List.iter
    (fun (name, v) -> kv "count" (Printf.sprintf "%s %d" name v))
    o.Workloads.counts;
  words "gc.minor_words" (fun s -> s.Gc.minor_words);
  words "gc.promoted_words" (fun s -> s.Gc.promoted_words);
  words "gc.major_words" (fun s -> s.Gc.major_words);
  let collections key f = int key (f gc_end - f gc_run) in
  collections "gc.minor_collections" (fun s -> s.Gc.minor_collections);
  collections "gc.major_collections" (fun s -> s.Gc.major_collections);
  kv "setup.major_words"
    (Printf.sprintf "%.0f" (gc_run.Gc.major_words -. gc_build.Gc.major_words));
  int "heap_top_words" (Gc.quick_stat ()).Gc.top_heap_words;
  match tracer with
  | None -> ()
  | Some t ->
      let leaves = Tracer.sorted_leaves t in
      int "leaf_count" (Array.length leaves);
      let total = Array.fold_left ( + ) 0 leaves in
      kv "leaf_mean_ns"
        (Printf.sprintf "%.17g" (float_of_int total /. float_of_int (Array.length leaves)));
      List.iter
        (fun (key, p) -> int key (Timing.percentile_sorted leaves p))
        [ ("leaf_p50_ns", 0.5); ("leaf_p95_ns", 0.95); ("leaf_p999_ns", 0.999) ];
      int "pending_median" (Tracer.depth_median t);
      int "pending_hw" t.Tracer.depth_hw;
      List.iter
        (fun (name, start, stop) ->
          kv "span" (Printf.sprintf "%d %d %s" start stop name))
        (Tracer.spans t)

(* ------------------------------------------------------------------ *)
(* Parent side: a repetition as the parent process sees it. *)

type rep = {
  spawned_at : int;
  exited_at : int;
  fields : (string * string) list;
  counts : (string * int) list;
  spans : (int * int * string) list;
}

let field rep key =
  match List.assoc_opt key rep.fields with
  | Some v -> v
  | None -> failwith (Printf.sprintf "repetition output lacks %S" key)

let int_field rep key = int_of_string (field rep key)
let float_field rep key = float_of_string (field rep key)
let count rep name = Option.value ~default:0 (List.assoc_opt name rep.counts)
let run_ns rep = int_field rep "run_end" - int_field rep "build_end"

let split_first s =
  match String.index_opt s ' ' with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> (s, "")

let spawn ~workload ~seed ~scale ~traced =
  let spawned_at = Timing.now_ns () in
  let args =
    [
      Sys.executable_name; "--child"; "--workload"; workload;
      "--seed"; string_of_int seed; "--scale"; Printf.sprintf "%.17g" scale;
      "--spawned-at"; string_of_int spawned_at;
    ]
    @ if traced then [ "--traced" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let exited_at = Timing.now_ns () in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ ->
      failwith
        (Printf.sprintf "%s repetition (seed %d) did not exit cleanly" workload seed));
  let fields, counts, spans =
    List.fold_left
      (fun (fields, counts, spans) line ->
        match split_first line with
        | "", _ -> (fields, counts, spans)
        | "count", rest ->
            let name, v = split_first rest in
            (fields, (name, int_of_string v) :: counts, spans)
        | "span", rest ->
            let start, rest = split_first rest in
            let stop, name = split_first rest in
            (fields, counts, (int_of_string start, int_of_string stop, name) :: spans)
        | key, v -> ((key, v) :: fields, counts, spans))
      ([], [], [])
      (String.split_on_char '\n' lines)
  in
  { spawned_at; exited_at; fields; counts = List.rev counts; spans = List.rev spans }

(* End-to-end metrics of one repetition. *)
let e2e_of rep =
  let s ns = float_of_int ns /. 1e9 in
  [
    ("wall_s", s (rep.exited_at - rep.spawned_at));
    ("setup_s", s (int_field rep "setup_ns"));
    ("ops_per_s", float_of_int (int_field rep "attempted") /. s (run_ns rep));
    ( "heap_peak_mb",
      float_of_int (int_field rep "heap_top_words" * (Sys.word_size / 8)) /. 1048576. );
  ]

let median_of reps f = Timing.median (List.map f reps)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics: counts from the traced repetition, unit costs
   from the timed loops, and their reconciliation against the untraced
   median run-phase time. *)

let per_layer_values (w : Workloads.t) ~scale ~untraced ~traced =
  let c = count traced in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let pending_median = int_field traced "pending_median" in
  let shape =
    {
      Unit_costs.fragment_bytes = int_field traced "fragment_bytes";
      depth = pending_median;
      int_telemetry = c "innet.stamps" > 0;
      pilot_mode = w.Workloads.pilot_mode;
      scale;
    }
  in
  let units = Unit_costs.measure shape in
  let u name = List.assoc name units in
  let run_ns = median_of untraced (fun r -> float_of_int (run_ns r)) in
  let ops = float_of_int (int_field traced "attempted") in
  let gc key = median_of untraced (fun r -> float_field r key) in
  let hops = float_of_int (c "link.hops") in
  let share v = v /. run_ns in
  let f = float_of_int in
  let engine_t =
    Float.max 0. (f (c "engine.events") -. (hops *. u "link.events_per_hop"))
    *. u "engine.unit_ns"
  in
  let link_t = hops *. Float.max 0. (u "link.unit_ns" -. u "ring.unit_ns") in
  let ring_t = f (c "ring.acquired") *. u "ring.unit_ns" in
  let innet_t =
    (f (c "innet.rewrites") *. u "innet.unit_ns_rewrite")
    +. (f (c "innet.stamps") *. u "innet.unit_ns_stamp")
  in
  let transport_t =
    (f (c "transport.delivered") *. u "transport.unit_ns_receive")
    +. (f (c "transport.retx_stored") *. u "transport.unit_ns_retx_store")
  in
  let daq_t = f (c "daq.fragments") *. u "daq.unit_ns_encode" in
  let attributed_words =
    (f (c "innet.rewrites") *. u "innet.major_words_rewrite")
    +. (f (c "transport.delivered") *. u "transport.major_words_receive")
    +. (f (c "transport.retx_stored") *. u "transport.major_words_retx_store")
    +. (f (c "daq.fragments") *. u "daq.major_words_encode")
  in
  let major_words = gc "gc.major_words" in
  let traced_wall = f (traced.exited_at - traced.spawned_at) in
  let untraced_wall = median_of untraced (fun r -> f (r.exited_at - r.spawned_at)) in
  let values =
    List.map (fun (name, v) -> (name, f v)) traced.counts
    @ units
    @ [
      ( "engine.events_per_delivered",
        ratio (c "engine.events") (int_field traced "delivered") );
      ("engine.pending_median", f pending_median);
      ("engine.pending_hw", float_field traced "pending_hw");
      ("engine.time_share", share engine_t);
      ("link.time_share", share link_t);
      ("ring.time_share", share ring_t);
      ("innet.time_share", share innet_t);
      ("transport.time_share", share transport_t);
      ("daq.time_share", share daq_t);
      ("fault.events_per_trial", ratio (c "engine.events") (c "fault.trials"));
      ("setup.major_words", float_field traced "setup.major_words");
      ("gc.minor_words_per_op", gc "gc.minor_words" /. ops);
      ("gc.major_words_per_op", major_words /. ops);
      ("gc.promoted_words_per_op", gc "gc.promoted_words" /. ops);
      ("gc.minor_collections", gc "gc.minor_collections");
      ("gc.major_collections", gc "gc.major_collections");
      ( "recon.time_share",
        share (engine_t +. link_t +. ring_t +. innet_t +. transport_t +. daq_t) );
      ( "recon.alloc_share",
        if major_words > 0. then attributed_words /. major_words else 0. );
      ("trace.overhead", traced_wall /. untraced_wall);
      ("trace.leaf_mean_ns", float_field traced "leaf_mean_ns");
    ]
  in
  (* Every catalogue metric, in catalogue order; a count the workload
     cannot observe reads 0. *)
  List.map
    (fun (name, _) -> (name, Option.value ~default:0. (List.assoc_opt name values)))
    per_layer

(* ------------------------------------------------------------------ *)
(* Output. *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_list items = "[" ^ String.concat ", " items ^ "]"

let metric_json catalogue values =
  json_object
    (List.map
       (fun (name, unit) ->
         let value = json_number (List.assoc name values) in
         (name, json_object [ ("value", value); ("unit", json_string unit) ]))
       catalogue)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : string;  (** the result line's "metrics" object *)
  record : string;  (** the full record for [--record] *)
  spans : string list;  (** JSON lines for [--spans] *)
}

let summary_json samples =
  let q1, q3 = Timing.quartiles samples in
  json_object
    [
      ("median", json_number (Timing.median samples));
      ("q1", json_number q1);
      ("q3", json_number q3);
      ("n", string_of_int (List.length samples));
      ("samples", json_list (List.map json_number samples));
    ]

let print_report (w : Workloads.t) ~untraced ~per_layer_values ~traced ~checks =
  let pr fmt = Printf.eprintf fmt in
  let n = List.length untraced in
  pr "== %s: %d repetitions, median [q1 .. q3]\n" w.Workloads.name n;
  List.iter
    (fun (name, unit) ->
      let samples = List.map (fun r -> List.assoc name (e2e_of r)) untraced in
      let q1, q3 = Timing.quartiles samples in
      pr "  %-22s %14.6g %-5s [%.6g .. %.6g]\n" name (Timing.median samples) unit q1 q3)
    end_to_end;
  let first = List.hd untraced in
  let run_s = median_of untraced (fun r -> float_of_int (run_ns r) /. 1e9) in
  let delivered = int_field first "delivered" and sim_ns = int_field first "sim_ns" in
  if delivered > 0 then
    pr "  %-22s %14.6g ns (run-phase time / application deliveries)\n" "ns_per_delivered"
      (run_s *. 1e9 /. float_of_int delivered);
  if sim_ns > 0 then
    pr "  %-22s %14.6g (simulated span / run-phase time)\n" "sim_s_per_wall_s"
      (float_of_int sim_ns /. 1e9 /. run_s);
  pr "  attempted %d %s(s) per repetition, failed %d, sim_digest %s\n"
    (int_field first "attempted") w.Workloads.op (int_field first "failed")
    (field first "digest");
  (match (traced, per_layer_values) with
  | Some t, Some values ->
      let leaf key = int_field t key in
      pr "  traced: %d leaves, p50 %d ns, p95 %d ns, p99.9 %d ns\n" (leaf "leaf_count")
        (leaf "leaf_p50_ns") (leaf "leaf_p95_ns") (leaf "leaf_p999_ns");
      List.iter
        (fun (start, stop, name) ->
          if w.Workloads.op = "entry" then
            pr "  exp.%s_s %.4f\n" name (float_of_int (stop - start) /. 1e9))
        t.spans;
      List.iter
        (fun (name, unit) -> pr "  %-34s %14.6g %s\n" name (List.assoc name values) unit)
        per_layer
  | _ -> ());
  List.iter (fun c -> pr "  CHECK FAILED: %s\n" c) checks;
  flush stderr

let run_workload (w : Workloads.t) ~seed ~seconds ~trace ~scale =
  let started_unix = Unix.gettimeofday () in
  let workload_start = Timing.now_ns () in
  let harness = w.Workloads.harness ~scale:(Float.min scale 0.05) ~seed in
  let checks = ref (Option.to_list harness) in
  let fail fmt = Printf.ksprintf (fun s -> checks := !checks @ [ s ]) fmt in
  let deadline = workload_start + int_of_float (seconds *. 1e9) in
  let rec repeat acc =
    if List.length acc >= 3 && Timing.now_ns () >= deadline then List.rev acc
    else repeat (spawn ~workload:w.Workloads.name ~seed ~scale ~traced:false :: acc)
  in
  let untraced = repeat [] in
  let first = List.hd untraced in
  let same what f =
    if not (List.for_all (fun r -> f r = f first) untraced) then
      fail "repetitions disagree on %s" what
  in
  same "sim_digest" (fun r -> field r "digest");
  same "counts" (fun r -> r.counts);
  same "attempted/failed" (fun r -> (field r "attempted", field r "failed"));
  let traced =
    if trace then begin
      let t = spawn ~workload:w.Workloads.name ~seed ~scale ~traced:true in
      if field t "digest" <> field first "digest" then
        fail "traced run's sim_digest differs from the untraced runs'";
      if t.counts <> first.counts then
        fail "traced run's counts differ from the untraced runs'";
      Some t
    end
    else None
  in
  let per_layer_values =
    Option.map (fun traced -> per_layer_values w ~scale ~untraced ~traced) traced
  in
  let workload_end = Timing.now_ns () in
  print_report w ~untraced ~per_layer_values ~traced ~checks:!checks;
  let e2e_samples =
    List.map
      (fun (name, _) -> (name, List.map (fun r -> List.assoc name (e2e_of r)) untraced))
      end_to_end
  in
  let e2e_medians = List.map (fun (name, s) -> (name, Timing.median s)) e2e_samples in
  let attempted = List.fold_left (fun acc r -> acc + int_field r "attempted") 0 untraced in
  let failed = List.fold_left (fun acc r -> acc + int_field r "failed") 0 untraced in
  let correct = !checks = [] in
  let metrics =
    match per_layer_values with
    | Some values -> metric_json per_layer values
    | None -> metric_json end_to_end e2e_medians
  in
  let record =
    json_object
      ([
         ("workload", json_string w.Workloads.name);
         ("seed", string_of_int seed);
         ("scale", json_number scale);
         ("seconds", json_number seconds);
         ("trace", if trace then "1" else "0");
         ("started_unix", json_number started_unix);
         ("nproc", string_of_int (Domain.recommended_domain_count ()));
         ("ocaml", json_string Sys.ocaml_version);
         ("correct", string_of_bool correct);
         ("checks", json_list (List.map json_string !checks));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("sim_digest", json_string (field first "digest"));
         ( "end_to_end",
           json_object
             (List.map
                (fun (name, samples) ->
                  ( name,
                    json_object
                      [
                        ("unit", json_string (List.assoc name end_to_end));
                        ("summary", summary_json samples);
                      ] ))
                e2e_samples) );
       ]
      @
      match per_layer_values with
      | Some _ -> [ ("per_layer", metrics) ]
      | None -> [])
  in
  (* Spans: workload -> repetition -> phase (build, run, readout) ->
     trial or entry (traced repetition only). *)
  let spans =
    let next = ref 0 and out = ref [] in
    let span ~parent name start stop =
      incr next;
      out :=
        json_object
          [
            ("id", string_of_int !next);
            ("parent", string_of_int parent);
            ("name", json_string name);
            ("start_ns", string_of_int start);
            ("end_ns", string_of_int stop);
          ]
        :: !out;
      !next
    in
    let root = span ~parent:0 w.Workloads.name workload_start workload_end in
    List.iteri
      (fun i r ->
        let label =
          if i < List.length untraced then Printf.sprintf "repetition %d" (i + 1)
          else "traced repetition"
        in
        let rep = span ~parent:root label r.spawned_at r.exited_at in
        let at key = int_field r key in
        ignore (span ~parent:rep "build" (at "build_start") (at "build_end"));
        let run = span ~parent:rep "run" (at "build_end") (at "run_end") in
        ignore (span ~parent:rep "readout" (at "run_end") (at "readout_end"));
        List.iter
          (fun (start, stop, name) -> ignore (span ~parent:run name start stop))
          r.spans)
      (untraced @ Option.to_list traced);
    List.rev !out
  in
  { correct; attempted; failed; metrics; record; spans }

let result_line r =
  json_object
    [
      ("correct", string_of_bool r.correct);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("metrics", r.metrics);
    ]

let append_lines file lines =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 20. and trace = ref 1 in
  let scale = ref 1.0 and record = ref "" and spans = ref "" in
  let is_child = ref false and spawned_at = ref 0 and traced = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one workload (default: all four)");
      ("--seed", Arg.Set_int seed, "N seed the workloads' inputs derive from (default 42)");
      ("--seconds", Arg.Set_float seconds, "S seconds per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics (default 1)");
      ("--scale", Arg.Set_float scale, "F workload size multiplier (default 1.0)");
      ("--record", Arg.Set_string record, "FILE append a full JSON record per workload");
      ("--spans", Arg.Set_string spans, "FILE write the spans as JSON lines");
      ("--child", Arg.Set is_child, " (internal) run one repetition");
      ("--spawned-at", Arg.Set_int spawned_at, " (internal)");
      ("--traced", Arg.Set traced, " (internal)");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    usage;
  if !is_child then
    child ~workload:!workload ~seed:!seed ~scale:!scale ~spawned_at:!spawned_at
      ~traced:!traced
  else begin
    let workloads =
      if !workload = "" then Workloads.all
      else
        match Workloads.find !workload with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "unknown workload %S (known: %s)\n" !workload
              (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
            exit 2
    in
    if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
    let results =
      List.map
        (fun w ->
          let r =
            run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~scale:!scale
          in
          print_endline (result_line r);
          r)
        workloads
    in
    if !record <> "" then append_lines !record (List.map (fun r -> r.record) results);
    if !spans <> "" then begin
      if Sys.file_exists !spans then Sys.remove !spans;
      append_lines !spans (List.concat_map (fun r -> r.spans) results)
    end;
    if not (List.for_all (fun r -> r.correct) results) then exit 1
  end
