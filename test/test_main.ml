(* Test aggregator: one alcotest binary covering every library. *)

let () =
  Alcotest.run "metaopt"
    [
      ("gp", Test_gp.suite);
      ("telemetry", Test_telemetry.suite);
      ("parmap", Test_parmap.suite);
      ("shardstore", Test_shardstore.suite);
      ("faults", Test_faults.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("ir", Test_ir.suite);
      ("frontend", Test_frontend.suite);
      ("opt", Test_opt.suite);
      ("profile", Test_profile.suite);
      ("predication", Test_predication.suite);
      ("machine", Test_machine.suite);
      ("sched", Test_sched.suite);
      ("passes", Test_passes.suite);
      ("driver", Test_driver.suite);
      ("properties", Test_properties.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("regalloc-unit", Test_regalloc_unit.suite);
      ("prefetch-unit", Test_prefetch_unit.suite);
      ("misc", Test_misc.suite);
      ("fastpath", Test_fastpath.suite);
      ("fuzz", Test_fuzz.suite);
      ("serve", Test_serve.suite);
      ("chaos", Test_chaos.suite);
    ]
