let () =
  Alcotest.run "aprof-drms"
    [
      ("util", Test_util.suite);
      ("shadow", Test_shadow.suite);
      ("trace", Test_trace.suite);
      ("stream", Test_stream.suite);
      ("codec", Test_codec.suite);
      ("codec-v3", Test_codec_v3.suite);
      ("decoders", Test_decoders.suite);
      ("fault-inject", Fault_inject.suite);
      ("batch", Test_batch.suite);
      ("paper-examples", Test_paper_examples.suite);
      ("differential", Test_differential.suite);
      ("vm-differential", Test_vm_differential.suite);
      ("golden", Test_golden.suite);
      ("workloads", Test_workloads.suite);
      ("vm", Test_vm.suite);
      ("tools", Test_tools.suite);
      ("replay-driver", Test_replay_driver.suite);
      ("lockset", Test_lockset.suite);
      ("helgrind-diff", Test_helgrind_diff.suite);
      ("core-units", Test_core_units.suite);
      ("comm", Test_comm.suite);
      ("reuse", Test_reuse.suite);
      ("merge", Test_merge.suite);
      ("work-stealing", Test_work_stealing.suite);
      ("parallel-differential", Test_parallel_differential.suite);
      ("profile-io", Test_profile_io.suite);
      ("analysis", Test_analysis.suite);
      ("input-fuzz", Test_fuzz.suite);
      ("round-trip", Test_roundtrip.suite);
      ("modes", Test_modes.suite);
      ("cct", Test_cct.suite);
      ("plot", Test_plot.suite);
      ("workload-suite", Test_workload_suite.suite);
      ("serve", Test_serve.suite);
    ]
