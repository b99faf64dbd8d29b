open Mmt_util

let horizon = Units.Time.seconds 0.5

(* Pick each experiment's scale so ~400 fragments fit in the horizon:
   quantization error stays below 1% for every catalog rate. *)
let scale_for experiment =
  let fragment_bits =
    8
    * (Mmt_daq.Fragment.header_size + Mmt_daq.Fragment.subheader_size
      + Units.Size.to_bytes experiment.Mmt_daq.Experiment.message_size)
  in
  400. *. float_of_int fragment_bits
  /. (Units.Time.to_float_s horizon
     *. Units.Rate.to_bps experiment.Mmt_daq.Experiment.daq_rate)

let offered_for experiment =
  let engine = Mmt_sim.Engine.create () in
  let rng = Rng.create ~seed:101L in
  let scale = scale_for experiment in
  let config =
    {
      Mmt_daq.Workload.experiment;
      scale;
      profile = Mmt_daq.Workload.Steady;
      payload = Mmt_daq.Workload.Synthetic experiment.Mmt_daq.Experiment.message_size;
      run = 1;
      slice = 0;
    }
  in
  let workload =
    Mmt_daq.Workload.start ~engine ~rng config
      ~emit:(fun ~padding:_ _ -> ())
      ~until:horizon
  in
  Mmt_sim.Engine.run engine;
  ( Mmt_daq.Workload.offered_rate workload ~over:horizon,
    (Mmt_daq.Workload.stats workload).Mmt_daq.Workload.fragments_emitted )

let run () =
  let rows =
    List.map
      (fun experiment ->
        let scale = scale_for experiment in
        let offered, fragments = offered_for experiment in
        let target = Mmt_daq.Experiment.scaled_rate experiment ~scale in
        let ratio = Units.Rate.to_bps offered /. Units.Rate.to_bps target in
        let ok = Float.abs (ratio -. 1.) < 0.03 in
        Mmt_telemetry.Report.check
          ~metric:experiment.Mmt_daq.Experiment.name
          ~expected:
            (Printf.sprintf "%s (Table 1)"
               (Units.Rate.to_string experiment.Mmt_daq.Experiment.daq_rate))
          ~measured:
            (Printf.sprintf "%s offered at scale %g (%d fragments, ratio %.3f)"
               (Units.Rate.to_string offered) scale fragments ratio)
          ok)
      Mmt_daq.Experiment.all
  in
  let report =
    {
      Mmt_telemetry.Report.id = "E-T1";
      title = "Table 1: DAQ rates drive the workload generators";
      note =
        Some
          "rates scaled per experiment to ~400 fragments per half second of \
           simulation; fragment sizes and shapes preserved";
      rows;
    }
  in
  (Mmt_telemetry.Report.render report, Mmt_telemetry.Report.all_ok report)
