(* Tests for the study driver: fitness definition, baseline identity,
   correctness guard and end-to-end miniature evolutions. *)

let test_baseline_speedup_is_one () =
  let ctx =
    Driver.Study.create_with Driver.Study.default_config
      Driver.Study.Hyperblock_study [ "codrle4" ]
  in
  let s =
    Driver.Study.speedup ctx Hyperblock.Baseline.genome ~case:0
      ~dataset:Benchmarks.Bench.Train
  in
  Alcotest.(check (float 1e-9)) "baseline vs itself" 1.0 s

let test_speedup_definition () =
  (* "Merge nothing" on codrle4 must give speedup = baseline_cycles /
     candidate_cycles, computed independently here. *)
  let bench = Benchmarks.Registry.find "codrle4" in
  let machine = Machine.Config.table3 in
  let prepared = Driver.Compiler.prepare bench in
  let cycles_of heuristics =
    let c = Driver.Compiler.compile ~machine ~heuristics prepared in
    (Driver.Compiler.simulate ~machine ~dataset:Benchmarks.Bench.Train prepared
       c).Machine.Simulate.cycles
  in
  let neg =
    Gp.Sexp.parse_real Hyperblock.Features.feature_set "(sub 0.0 1.0)"
  in
  let base_cycles = cycles_of (Driver.Compiler.baseline ()) in
  let cand_cycles =
    cycles_of
      { (Driver.Compiler.baseline ()) with Driver.Compiler.hb_priority = neg }
  in
  let ctx =
    Driver.Study.create_with Driver.Study.default_config
      Driver.Study.Hyperblock_study [ "codrle4" ]
  in
  let s =
    Driver.Study.speedup ctx (Gp.Expr.Real neg) ~case:0
      ~dataset:Benchmarks.Bench.Train
  in
  Alcotest.(check (float 1e-6)) "speedup = base/cand"
    (base_cycles /. cand_cycles) s

(* Only hyperblock formation reads the training profile, so preparing a
   bench runs no profile and its first compile does. *)
let test_profile_deferred_to_first_compile () =
  let prepared = Driver.Compiler.prepare (Benchmarks.Registry.find "codrle4") in
  Alcotest.(check bool) "not profiled after prepare" false
    (Lazy.is_val prepared.Driver.Compiler.prof);
  ignore
    (Driver.Compiler.compile ~machine:Machine.Config.table3
       ~heuristics:(Driver.Compiler.baseline ()) prepared);
  Alcotest.(check bool) "profiled after one compile" true
    (Lazy.is_val prepared.Driver.Compiler.prof)

let test_sort_mismatch_rejected () =
  let bool_genome = Gp.Expr.Bool (Gp.Expr.Bconst true) in
  Alcotest.check_raises "bool genome in hyperblock study"
    (Invalid_argument "Study.heuristics_with: genome sort mismatch")
    (fun () ->
      ignore (Driver.Study.heuristics_with Driver.Study.Hyperblock_study bool_genome))

let test_prefetch_noise_is_deterministic_per_genome () =
  let ctx =
    Driver.Study.create_with Driver.Study.default_config
      Driver.Study.Prefetch_study [ "015.doduc" ]
  in
  let g = Prefetch.Features.baseline_genome in
  let s1 = Driver.Study.speedup ctx g ~case:0 ~dataset:Benchmarks.Bench.Train in
  let s2 = Driver.Study.speedup ctx g ~case:0 ~dataset:Benchmarks.Bench.Train in
  Alcotest.(check (float 1e-12)) "same genome, same noise draw" s1 s2;
  (* The noisy fitness of the baseline against itself is near, but not
     exactly, 1. *)
  Alcotest.(check bool) "noise is bounded" true (Float.abs (s1 -. 1.0) < 0.05)

let test_sched_study () =
  let ctx =
    Driver.Study.create_with Driver.Study.default_config
      Driver.Study.Sched_study [ "codrle4" ]
  in
  let s =
    Driver.Study.speedup ctx Sched.Priority.baseline_genome ~case:0
      ~dataset:Benchmarks.Bench.Train
  in
  Alcotest.(check (float 1e-9)) "sched baseline vs itself" 1.0 s;
  (* An inverted ranking must not be faster than the baseline. *)
  let inverse =
    Gp.Expr.Real
      (Gp.Sexp.parse_real Sched.Priority.feature_set "(sub 0.0 lwd)")
  in
  let s' =
    Driver.Study.speedup ctx inverse ~case:0 ~dataset:Benchmarks.Bench.Train
  in
  Alcotest.(check bool)
    (Printf.sprintf "inverse ranking not faster (%.4f)" s')
    true (s' <= 1.0 +. 1e-9)

let test_study_machines () =
  Alcotest.(check int) "regalloc study uses 32 registers" 32
    (Driver.Study.machine_of Driver.Study.Regalloc_study).Machine.Config.gpr;
  Alcotest.(check string) "prefetch study targets itanium" "itanium1"
    (Driver.Study.machine_of Driver.Study.Prefetch_study).Machine.Config.name

let test_tiny_specialization () =
  (* A miniature end-to-end run of the paper's Figure 4 protocol on one
     benchmark: the evolved heuristic must never lose to the baseline on
     the training input (the baseline is in the initial population). *)
  let params =
    { Gp.Params.tiny with Gp.Params.population_size = 10; generations = 3 }
  in
  let r =
    Driver.Study.specialize_with
      { Driver.Study.default_config with Driver.Study.params }
      Driver.Study.Hyperblock_study "codrle4"
  in
  Alcotest.(check bool)
    (Printf.sprintf "train speedup %.3f >= 1" r.Driver.Study.train_speedup)
    true
    (r.Driver.Study.train_speedup >= 0.999);
  Alcotest.(check int) "history recorded" 3
    (List.length r.Driver.Study.history);
  Alcotest.(check bool) "expression printable" true
    (String.length r.Driver.Study.best_expr > 0)

let test_tiny_general_purpose () =
  let params =
    { Gp.Params.tiny with Gp.Params.population_size = 8; generations = 2 }
  in
  let g =
    Driver.Study.evolve_general_with
      { Driver.Study.default_config with Driver.Study.params }
      Driver.Study.Regalloc_study [ "huff_enc"; "129.compress" ]
  in
  Alcotest.(check int) "row per training benchmark" 2
    (List.length g.Driver.Study.train_rows);
  List.iter
    (fun (_, train, novel) ->
      Alcotest.(check bool) "speedups positive" true
        (train > 0.0 && novel > 0.0))
    g.Driver.Study.train_rows

let test_cross_validation () =
  let g = Hyperblock.Baseline.genome in
  let rows =
    Driver.Study.cross_validate_with Driver.Study.default_config
      Driver.Study.Hyperblock_study g [ "codrle4"; "decodrle4" ]
  in
  Alcotest.(check int) "row per test benchmark" 2 (List.length rows);
  List.iter
    (fun (_, train, _) ->
      Alcotest.(check (float 1e-9)) "baseline cross-validates to 1.0" 1.0 train)
    rows

let test_heuristics_file_roundtrip () =
  let h =
    {
      Driver.Compiler.hb_priority =
        Gp.Sexp.parse_real Hyperblock.Features.feature_set
          "(mul exec_ratio predict_product)";
      ra_savings =
        Gp.Sexp.parse_real Regalloc.Features.feature_set "(add uses defs)";
      pf_confidence =
        Some (Gp.Sexp.parse_bool Prefetch.Features.feature_set
                "(gt abs_stride 4.0)");
      sched_priority =
        Gp.Sexp.parse_real Sched.Priority.feature_set "(add lwd n_succs)";
    }
  in
  let path = Filename.temp_file "metaopt" ".heur" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Driver.Heuristics_file.save path h;
      let h' = Driver.Heuristics_file.load path in
      Alcotest.(check bool) "hyperblock slot" true
        (h'.Driver.Compiler.hb_priority = h.Driver.Compiler.hb_priority);
      Alcotest.(check bool) "regalloc slot" true
        (h'.Driver.Compiler.ra_savings = h.Driver.Compiler.ra_savings);
      Alcotest.(check bool) "prefetch slot" true
        (h'.Driver.Compiler.pf_confidence = h.Driver.Compiler.pf_confidence);
      Alcotest.(check bool) "sched slot" true
        (h'.Driver.Compiler.sched_priority = h.Driver.Compiler.sched_priority))

let test_heuristics_file_partial_and_off () =
  let path = Filename.temp_file "metaopt" ".heur" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# only override one slot\nhyperblock: exec_ratio\nprefetch: off\n";
      close_out oc;
      let h = Driver.Heuristics_file.load path in
      Alcotest.(check bool) "hyperblock overridden" true
        (h.Driver.Compiler.hb_priority
        = Gp.Sexp.parse_real Hyperblock.Features.feature_set "exec_ratio");
      Alcotest.(check bool) "regalloc keeps baseline" true
        (h.Driver.Compiler.ra_savings = Regalloc.Features.baseline_expr);
      Alcotest.(check bool) "prefetch off" true
        (h.Driver.Compiler.pf_confidence = None))

let test_heuristics_file_rejects_garbage () =
  let path = Filename.temp_file "metaopt" ".heur" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "hyperblock: (frobnicate x)\n";
      close_out oc;
      match Driver.Heuristics_file.load path with
      | _ -> Alcotest.fail "expected Bad_file"
      | exception Driver.Heuristics_file.Bad_file _ -> ())

let suite =
  [
    Alcotest.test_case "baseline speedup is 1.0" `Quick
      test_baseline_speedup_is_one;
    Alcotest.test_case "speedup definition" `Quick test_speedup_definition;
    Alcotest.test_case "profile deferred to first compile" `Quick
      test_profile_deferred_to_first_compile;
    Alcotest.test_case "genome sort mismatch rejected" `Quick
      test_sort_mismatch_rejected;
    Alcotest.test_case "prefetch noise determinism" `Quick
      test_prefetch_noise_is_deterministic_per_genome;
    Alcotest.test_case "study machine models" `Quick test_study_machines;
    Alcotest.test_case "scheduling study (extension)" `Quick test_sched_study;
    Alcotest.test_case "miniature specialization" `Slow
      test_tiny_specialization;
    Alcotest.test_case "miniature DSS evolution" `Slow
      test_tiny_general_purpose;
    Alcotest.test_case "cross validation" `Slow test_cross_validation;
    Alcotest.test_case "heuristics file round-trip" `Quick
      test_heuristics_file_roundtrip;
    Alcotest.test_case "heuristics file partial/off" `Quick
      test_heuristics_file_partial_and_off;
    Alcotest.test_case "heuristics file rejects garbage" `Quick
      test_heuristics_file_rejects_garbage;
  ]
