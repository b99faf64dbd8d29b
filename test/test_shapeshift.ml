let () =
  Alcotest.run "shapeshift"
    [
      ("rng", Suite_rng.suite);
      ("stats", Suite_stats.suite);
      ("units", Suite_units.suite);
      ("table", Suite_table.suite);
      ("cursor", Suite_cursor.suite);
      ("frame", Suite_frame.suite);
      ("engine", Suite_engine.suite);
      ("sim-net", Suite_sim_net.suite);
      ("pool", Suite_pool.suite);
      ("ring", Suite_ring.suite);
      ("header", Suite_header.suite);
      ("view", Suite_view.suite);
      ("control", Suite_control.suite);
      ("mode", Suite_mode.suite);
      ("endpoint", Suite_endpoint.suite);
      ("innet", Suite_innet.suite);
      ("int", Suite_int.suite);
      ("telemetry", Suite_telemetry.suite);
      ("daq", Suite_daq.suite);
      ("tcp", Suite_tcp.suite);
      ("pilot", Suite_pilot.suite);
      ("extensions", Suite_extensions.suite);
      ("robustness", Suite_robustness.suite);
      ("fault", Suite_fault.suite);
      ("campaign", Suite_campaign.suite);
      ("fuzz", Suite_fuzz.suite);
      ("header-path", Suite_hpath.suite);
      ("experiments", Suite_experiments.suite);
      ("facility", Suite_facility.suite);
    ]
