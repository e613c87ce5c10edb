let () =
  Alcotest.run "ssync"
    [
      ("platform", Test_platform.suite);
      ("coherence", Test_coherence.suite);
      ("interconnect", Test_interconnect.suite);
      ("engine", Test_engine.suite);
      ("eventq", Test_eventq.suite);
      ("parking", Test_parking.suite);
      ("simlocks", Test_simlocks.suite);
      ("simmp", Test_simmp.suite);
      ("ccbench", Test_ccbench.suite);
      ("workload", Test_workload.suite);
      ("report", Test_report.suite);
      ("locks-native", Test_locks.suite);
      ("mp-native", Test_mp.suite);
      ("ssht", Test_ssht.suite);
      ("tm", Test_tm.suite);
      ("kvs", Test_kvs.suite);
      ("extras", Test_extras.suite);
      ("pool", Test_pool.suite);
      ("robust", Test_robust.suite);
      ("trace", Test_trace.suite);
      ("shards", Test_shards.suite);
      ("speculation", Test_speculation.suite);
      ("metrics", Test_metrics.suite);
      ("alloc", Test_alloc.suite);
    ]
