let () =
  Alcotest.run "genie-repro"
    [
      ("simcore", Test_simcore.suite);
      ("machine", Test_machine.suite);
      ("memory", Test_memory.suite);
      ("vm", Test_vm.suite);
      ("net", Test_net.suite);
      ("proto", Test_proto.suite);
      ("smoke", Test_smoke.suite);
      ("genie-paths", Test_genie_paths.suite);
      ("integrity", Test_integrity.suite);
      ("optimizations", Test_optimizations.suite);
      ("stats", Test_stats.suite);
      ("claims", Test_claims.suite);
      ("workload", Test_workload.suite);
      ("fabric", Test_fabric.suite);
      ("flow-control", Test_flow_control.suite);
      ("msg-channel", Test_msg_channel.suite);
      ("failures", Test_failures.suite);
      ("interop", Test_interop.suite);
      ("pressure", Test_pressure.suite);
      ("store", Test_store.suite);
      ("trace", Test_trace.suite);
      ("rel-channel", Test_rel_channel.suite);
      ("endpoint", Test_endpoint.suite);
      ("ring", Test_ring.suite);
      ("properties", Test_properties.suite);
      ("adapt", Test_adapt.suite);
      ("check", Test_check.suite);
      ("bench", Test_bench.suite);
    ]
