(* The metaopt command-line tool.

     metaopt list                       list benchmarks
     metaopt run BENCH                  compile + simulate with baselines
     metaopt ir BENCH                   dump optimized IR
     metaopt profile BENCH              show profile statistics
     metaopt specialize STUDY BENCH     evolve a specialized heuristic
     metaopt evolve STUDY               evolve a general-purpose heuristic
     metaopt serve SOCK                 run the shared evaluation daemon
*)

open Cmdliner

let setup_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning)

let study_conv =
  let parse = function
    | "hyperblock" -> Ok Driver.Study.Hyperblock_study
    | "regalloc" -> Ok Driver.Study.Regalloc_study
    | "prefetch" -> Ok Driver.Study.Prefetch_study
    | "sched" -> Ok Driver.Study.Sched_study
    | s ->
      Error (`Msg ("unknown study " ^ s ^ " (hyperblock|regalloc|prefetch|sched)"))
  in
  let print ppf k = Fmt.string ppf (Driver.Study.kind_name k) in
  Arg.conv (parse, print)

(* A benchmark name, checked against the registry at parse time so an
   unknown one is a usage error, not an uncaught lookup failure. *)
let bench_conv =
  let parse s =
    if List.mem s Benchmarks.Registry.names then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown benchmark %s (metaopt list shows all)" s))
  in
  Arg.conv (parse, Fmt.string)

let bench_at i =
  Arg.(required & pos i (some bench_conv) None & info [] ~docv:"BENCH")

let study_arg =
  Arg.(required & pos 0 (some study_conv) None & info [] ~docv:"STUDY")

(* An integer in [lo..hi], checked at parse time: a count the run
   cannot use is a usage error rather than a failure deep inside it —
   an empty population, a negative retry count, or a worker count of
   zero (silent clamping to sequential hid misconfigured runs) or above
   [Gp.Parmap.max_jobs] (a typo such as -j 40000 would fork that many
   workers). *)
let int_conv ?(hi = max_int) lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when lo <= n && n <= hi -> Ok n
    | Some n when hi = max_int ->
      Error (`Msg (Printf.sprintf "must be at least %d (got %d)" lo n))
    | Some n ->
      Error (`Msg (Printf.sprintf "must be in %d..%d (got %d)" lo hi n))
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Arg.conv (parse, Fmt.int)

(* A positive, finite number of seconds, checked at parse time. *)
let seconds_conv =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0.0 -> Ok x
    | _ ->
      Error
        (`Msg (Printf.sprintf "expected a positive number of seconds (got %s)" s))
  in
  Arg.conv (parse, Fmt.float)

let pop =
  Arg.(value & opt (int_conv 1) Gp.Params.scaled.Gp.Params.population_size
       & info [ "population" ] ~doc:"GP population size (at least 1)")

let gens =
  Arg.(value & opt (int_conv 0) Gp.Params.scaled.Gp.Params.generations
       & info [ "generations" ] ~doc:"GP generations")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"GP random seed")

let jobs =
  Arg.(value & opt (int_conv 1 ~hi:Gp.Parmap.max_jobs) 1
       & info [ "j"; "jobs" ]
           ~doc:
             (Printf.sprintf
                "Evaluate candidates on $(docv) parallel workers \
                 (1 = sequential); must be in 1..%d"
                Gp.Parmap.max_jobs)
           ~docv:"N")

(* Pool backend, checked against this platform's capabilities at parse
   time so an unusable choice fails loudly instead of degrading. *)
let backend_conv =
  let parse s =
    match Gp.Parmap.backend_of_name s with
    | Some b ->
      if List.mem b (Gp.Parmap.capabilities ()) then Ok b
      else
        Error
          (`Msg
            (Printf.sprintf
               "backend %s is not available on this platform (available: %s)"
               s
               (String.concat ", "
                  (List.map Gp.Parmap.backend_name (Gp.Parmap.capabilities ())))))
    | None -> Error (`Msg ("unknown backend " ^ s ^ " (seq|fork)"))
  in
  Arg.conv (parse, fun ppf b -> Fmt.string ppf (Gp.Parmap.backend_name b))

let backend =
  Arg.(value & opt backend_conv `Fork
       & info [ "backend" ]
           ~doc:"Worker-pool backend: $(b,fork) (processes; fault isolation \
                 and kill-based timeouts) or $(b,seq) (sequential \
                 in-process reference; deadlines inert).  Fitness is \
                 bit-identical across both"
           ~docv:"BACKEND")

let cache_dir =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ]
           ~doc:"Persist the fitness cache and each study's baselines in \
                 $(docv), creating it and its parents, so identical \
                 (heuristic, benchmark, dataset) evaluations are reused \
                 across runs"
           ~docv:"DIR")

let checkpoint_dir =
  Arg.(value & opt (some string) None
       & info [ "checkpoint-dir" ]
           ~doc:"Write a checkpoint to $(docv), creating it and its \
                 parents, after every generation and \
                 resume from the newest valid one, so an interrupted run \
                 loses at most one generation"
           ~docv:"DIR")

let eval_timeout =
  Arg.(value & opt (some seconds_conv) None
       & info [ "eval-timeout" ]
           ~doc:"Kill any single candidate evaluation after $(docv) \
                 seconds of wall clock (it is retried, then scored 0)"
           ~docv:"SECONDS")

let eval_retries =
  Arg.(value & opt (int_conv 0) 1
       & info [ "eval-retries" ]
           ~doc:"Retry a crashed or hung candidate evaluation $(docv) \
                 times on a fresh worker before giving it fitness 0")

let no_fast_sim =
  Arg.(value & flag
       & info [ "no-fast-sim" ]
           ~doc:"Disable the compile and simulation fast paths (prefix \
                 reuse, the recorded hyperblock steps and the decision \
                 tier, artifact-keyed result sharing, cycle summaries, \
                 closure-compiled interpreter): compile every candidate \
                 from scratch and measure it with a fresh \
                 reference-engine simulation.  Results are \
                 bit-identical either way; this flag only trades speed for \
                 the golden slow path")

let no_compiled_eval =
  Arg.(value & flag
       & info [ "no-compiled-eval" ]
           ~doc:"Evaluate heuristic expressions with the reference tree \
                 walker instead of the compiled-bytecode evaluator.  \
                 Results are bit-identical either way; this flag only \
                 trades speed for the golden slow path")

let connect =
  Arg.(value & opt (some string) None
       & info [ "connect" ]
           ~doc:"Evaluate candidates against the shared $(b,metaopt serve) \
                 daemon listening on Unix-domain socket $(docv) instead of \
                 a local worker pool.  Fitness is bit-identical to local \
                 evaluation; the daemon owns the store and the pool, so \
                 --cache-dir, --backend and --jobs describe the daemon's \
                 configuration, not this process's"
           ~docv:"SOCK")

let metrics_out =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ]
           ~doc:"Append one JSONL telemetry record per line to $(docv): \
                 per-generation fitness/size statistics, worker-pool \
                 latency and utilization, cache hit rates, and a run \
                 summary"
           ~docv:"FILE")

let trace =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"With --metrics-out, also emit one span record per timed \
                 section (compile, simulate), for fine-grained traces")

(* Install the sink for the rest of the process; [at_exit] writes a last
   [kind = "registry"] record — every counter and histogram as the run
   leaves them, pool shutdowns included — and closes the sink so it is
   flushed even on an exception path. *)
let setup_metrics study (cfg : Driver.Study.config) metrics_out trace =
  match metrics_out with
  | None -> ()
  | Some path ->
    Gp.Telemetry.set_sink (Some (Gp.Telemetry.jsonl_sink path));
    Gp.Telemetry.set_trace trace;
    at_exit (fun () ->
        Gp.Telemetry.emit ~kind:"registry"
          [ ("registry", Gp.Telemetry.registry_json ()) ];
        Gp.Telemetry.set_sink None);
    Gp.Telemetry.emit ~kind:"run_start"
      [
        ("study", Gp.Telemetry.String (Driver.Study.kind_name study));
        ( "population",
          Gp.Telemetry.Int cfg.Driver.Study.params.Gp.Params.population_size );
        ( "generations",
          Gp.Telemetry.Int cfg.Driver.Study.params.Gp.Params.generations );
        ("seed", Gp.Telemetry.Int cfg.Driver.Study.params.Gp.Params.rng_seed);
        ( "backend",
          Gp.Telemetry.String
            (Gp.Parmap.backend_name cfg.Driver.Study.backend) );
        ("jobs", Gp.Telemetry.Int cfg.Driver.Study.jobs);
      ]

let print_faults (f : Driver.Evaluator.fault_stats) =
  Fmt.pr "faults         : %d crashed, %d timed out, %d gave up, %d retried@."
    f.Driver.Evaluator.crashed f.Driver.Evaluator.timed_out
    f.Driver.Evaluator.gave_up f.Driver.Evaluator.retried

(* The single place a run's Study.config is assembled: every experiment
   command composes [config_term] and hands the record to the [_with]
   drivers. *)
let config_of pop gens seed backend jobs cache_dir checkpoint_dir
    eval_timeout eval_retries no_fast_sim no_compiled_eval connect :
    Driver.Study.config =
  {
    Driver.Study.default_config with
    Driver.Study.params =
      {
        Gp.Params.scaled with
        Gp.Params.population_size = pop;
        generations = gens;
        rng_seed = seed;
      };
    backend;
    jobs;
    cache_dir;
    checkpoint_dir;
    timeout_s = eval_timeout;
    retries = eval_retries;
    fast_sim = not no_fast_sim;
    compiled_eval = not no_compiled_eval;
    remote = connect;
  }

let config_term =
  Term.(
    const config_of $ pop $ gens $ seed $ backend $ jobs $ cache_dir
    $ checkpoint_dir $ eval_timeout $ eval_retries $ no_fast_sim
    $ no_compiled_eval $ connect)

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (b : Benchmarks.Bench.t) ->
        Fmt.pr "%-14s %-10s %-5s %s@." b.Benchmarks.Bench.name
          (Benchmarks.Bench.string_of_suite b.Benchmarks.Bench.suite)
          (if b.Benchmarks.Bench.fp then "fp" else "int")
          b.Benchmarks.Bench.description)
      Benchmarks.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List all benchmarks")
    Term.(const run $ const ())

(* --- run ----------------------------------------------------------------- *)

(* One bench compiled outside a study, as [run], [ir] and [compare] do: an
   fp bench targets the Itanium model with prefetching on and compiles
   without unrolling, as the prefetch study does (unrolled loops defeat
   the induction-variable analysis); any other targets Table 3.
   Returns the bench, its machine, the prepared bench and the baseline
   heuristics. *)
let prepare_bench name =
  let b = Benchmarks.Registry.find name in
  let fp = b.Benchmarks.Bench.fp in
  let machine, opt_config =
    if fp then (Machine.Config.itanium1, Opt.Pipeline.no_unroll)
    else (Machine.Config.table3, Opt.Pipeline.default)
  in
  ( b,
    machine,
    Driver.Compiler.prepare ~opt_config b,
    Driver.Compiler.baseline ~prefetch:fp () )

let run_bench name heuristics_file =
  setup_logs ();
  let b, machine, prepared, base = prepare_bench name in
  let heuristics =
    match heuristics_file with
    | Some path -> Driver.Heuristics_file.load ~base path
    | None -> base
  in
  let compiled = Driver.Compiler.compile ~machine ~heuristics prepared in
  let res =
    Driver.Compiler.simulate ~machine ~dataset:Benchmarks.Bench.Train prepared
      compiled
  in
  Fmt.pr "benchmark       : %s (%s)@." name b.Benchmarks.Bench.description;
  Fmt.pr "machine         : %s@." machine.Machine.Config.name;
  Fmt.pr "dynamic instrs  : %d@." res.Machine.Simulate.dynamic_instrs;
  Fmt.pr "cycles          : %.0f@." res.Machine.Simulate.cycles;
  Fmt.pr "branches        : %d (%d mispredicted)@." res.Machine.Simulate.branches
    res.Machine.Simulate.mispredicts;
  Fmt.pr "hyperblocks     : %d regions, %d blocks merged@."
    compiled.Driver.Compiler.hb_stats.Hyperblock.Form.regions_formed
    compiled.Driver.Compiler.hb_stats.Hyperblock.Form.blocks_merged;
  Fmt.pr "spills          : %d@." compiled.Driver.Compiler.spills;
  Fmt.pr "prefetches      : %d of %d candidates@."
    compiled.Driver.Compiler.prefetches.Prefetch.Insert.inserted
    compiled.Driver.Compiler.prefetches.Prefetch.Insert.candidates;
  let c = res.Machine.Simulate.cache in
  Fmt.pr "cache           : %d loads, %d/%d/%d L1/L2/L3 hits, %d mem, %d stall cycles@."
    c.Machine.Cache.loads c.Machine.Cache.l1_hits c.Machine.Cache.l2_hits
    c.Machine.Cache.l3_hits c.Machine.Cache.memory_accesses
    c.Machine.Cache.stall_cycles

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Compile and simulate one benchmark")
    Term.(
      const run_bench
      $ bench_at 0
      $ Arg.(value & opt (some string) None
             & info [ "heuristics" ]
                 ~doc:"Apply heuristics from a saved file"))

(* --- ir ------------------------------------------------------------------ *)

let ir_bench name =
  let _, _, prepared, _ = prepare_bench name in
  Fmt.pr "%a@." Ir.Func.pp_program prepared.Driver.Compiler.optimized

let ir_cmd =
  Cmd.v (Cmd.info "ir" ~doc:"Dump a benchmark's optimized IR")
    Term.(
      const ir_bench $ bench_at 0)

(* --- profile ---------------------------------------------------------------- *)

let profile_bench name =
  let _, _, prepared, _ = prepare_bench name in
  let prof = Lazy.force prepared.Driver.Compiler.prof in
  Fmt.pr "profile of %s on its training dataset (%d dynamic instructions)@.@."
    name prof.Profile.Prof.total_steps;
  List.iter
    (fun (f : Ir.Func.t) ->
      Fmt.pr "function %s:@." f.Ir.Func.fname;
      List.iter
        (fun (blk : Ir.Func.block) ->
          let count =
            Profile.Prof.block_count prof ~fname:f.Ir.Func.fname
              ~label:blk.Ir.Func.blabel
          in
          let branch =
            match
              Profile.Prof.term_branch_stats prof ~fname:f.Ir.Func.fname
                ~label:blk.Ir.Func.blabel
            with
            | Some bs ->
              Fmt.str "  branch: %.0f%% taken, %.0f%% predictable"
                (100.0 *. Profile.Prof.taken_bias bs)
                (100.0 *. Profile.Prof.predictability bs)
            | None -> ""
          in
          Fmt.pr "  %-12s %9d executions  %2d instrs%s@." blk.Ir.Func.blabel
            count
            (List.length blk.Ir.Func.instrs)
            branch)
        f.Ir.Func.blocks)
    prepared.Driver.Compiler.optimized.Ir.Func.funcs

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Show block execution counts and branch statistics")
    Term.(
      const profile_bench $ bench_at 0)

(* --- specialize ----------------------------------------------------------- *)

let specialize study bench cfg metrics_out trace save =
  setup_logs ();
  setup_metrics study cfg metrics_out trace;
  let r = Driver.Study.specialize_with cfg study bench in
  (match save with
  | Some path ->
    let fs = Driver.Study.feature_set_of study in
    let g =
      Gp.Sexp.parse_genome fs ~sort:(Driver.Study.sort_of study)
        r.Driver.Study.best_expr
    in
    Driver.Heuristics_file.save path (Driver.Study.heuristics_with study g);
    Fmt.pr "saved heuristics to %s@." path
  | None -> ());
  Fmt.pr "benchmark      : %s@." r.Driver.Study.bench;
  Fmt.pr "train speedup  : %.3f@." r.Driver.Study.train_speedup;
  Fmt.pr "novel speedup  : %.3f@." r.Driver.Study.novel_speedup;
  Fmt.pr "best heuristic : %s@." r.Driver.Study.best_expr;
  print_faults r.Driver.Study.faults;
  Fmt.pr "evolution      :@.";
  List.iter
    (fun (s : Gp.Evolve.generation_stats) ->
      Fmt.pr "  gen %2d  best %.3f  mean %.3f  size %d@." s.Gp.Evolve.gen
        s.Gp.Evolve.best_fitness s.Gp.Evolve.mean_fitness s.Gp.Evolve.best_size)
    r.Driver.Study.history

let specialize_cmd =
  Cmd.v
    (Cmd.info "specialize"
       ~doc:"Evolve an application-specific priority function")
    Term.(
      const specialize $ study_arg $ bench_at 1 $ config_term $ metrics_out
      $ trace
      $ Arg.(value & opt (some string) None
             & info [ "save" ] ~doc:"Write the evolved heuristics to a file"))

(* --- evolve (general-purpose) ---------------------------------------------- *)

let evolve study cfg metrics_out trace =
  setup_logs ();
  setup_metrics study cfg metrics_out trace;
  let benches =
    match study with
    | Driver.Study.Hyperblock_study -> Benchmarks.Registry.hyperblock_train
    | Driver.Study.Regalloc_study -> Benchmarks.Registry.regalloc_train
    | Driver.Study.Prefetch_study -> Benchmarks.Registry.prefetch_train
    | Driver.Study.Sched_study -> Benchmarks.Registry.hyperblock_train
  in
  let g = Driver.Study.evolve_general_with cfg study benches in
  Fmt.pr "best heuristic: %s@.@." g.Driver.Study.best_expr;
  print_faults g.Driver.Study.faults;
  Fmt.pr "%-16s %8s %8s@." "benchmark" "train" "novel";
  let avg sel rows =
    List.fold_left (fun a r -> a +. sel r) 0.0 rows
    /. float_of_int (List.length rows)
  in
  List.iter
    (fun (n, t, v) -> Fmt.pr "%-16s %8.3f %8.3f@." n t v)
    g.Driver.Study.train_rows;
  Fmt.pr "%-16s %8.3f %8.3f@." "average"
    (avg (fun (_, t, _) -> t) g.Driver.Study.train_rows)
    (avg (fun (_, _, v) -> v) g.Driver.Study.train_rows)

let evolve_cmd =
  Cmd.v
    (Cmd.info "evolve" ~doc:"Evolve a general-purpose priority function (DSS)")
    Term.(const evolve $ study_arg $ config_term $ metrics_out $ trace)

(* --- compare: one benchmark under explicit heuristic expressions ----------- *)

(* A heuristic expression parsed at option-parse time over its
   option's feature set, so a malformed one is a usage error. *)
let expr_conv parse print fs =
  let parse s =
    match parse fs s with
    | e -> Ok e
    | exception Gp.Sexp.Parse_error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf e -> Fmt.string ppf (print fs e))

let real_expr = expr_conv Gp.Sexp.parse_real Gp.Sexp.real_to_string
let bool_expr = expr_conv Gp.Sexp.parse_bool Gp.Sexp.bool_to_string

let compare_cmd =
  let run bench hb ra pf sp =
    setup_logs ();
    let _, machine, prepared, base = prepare_bench bench in
    let heuristics =
      {
        Driver.Compiler.hb_priority =
          Option.value hb ~default:base.Driver.Compiler.hb_priority;
        ra_savings = Option.value ra ~default:base.Driver.Compiler.ra_savings;
        pf_confidence =
          (match pf with
          | Some _ -> pf
          | None -> base.Driver.Compiler.pf_confidence);
        sched_priority =
          Option.value sp ~default:base.Driver.Compiler.sched_priority;
      }
    in
    let measure h =
      let c = Driver.Compiler.compile ~machine ~heuristics:h prepared in
      (Driver.Compiler.simulate ~machine ~dataset:Benchmarks.Bench.Train
         prepared c).Machine.Simulate.cycles
    in
    let base_cycles = measure base in
    let cand_cycles = measure heuristics in
    Fmt.pr "baseline  : %.0f cycles@." base_cycles;
    Fmt.pr "candidate : %.0f cycles@." cand_cycles;
    Fmt.pr "speedup   : %.4f@." (base_cycles /. cand_cycles)
  in
  let opt expr name doc =
    Arg.(value & opt (some expr) None & info [ name ] ~doc)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare explicit heuristic expressions against the baselines on           one benchmark")
    Term.(
      const run $ bench_at 0
      $ opt (real_expr Hyperblock.Features.feature_set) "hyperblock"
          "hyperblock priority expression"
      $ opt (real_expr Regalloc.Features.feature_set) "regalloc"
          "register-allocation savings expression"
      $ opt (bool_expr Prefetch.Features.feature_set) "prefetch"
          "prefetch confidence expression (Boolean)"
      $ opt (real_expr Sched.Priority.feature_set) "sched"
          "list-scheduling priority expression")

(* --- features: print a study's feature vocabulary --------------------------- *)

let features_cmd =
  let run study =
    let fs = Driver.Study.feature_set_of study in
    Fmt.pr "real-valued features:@.";
    for i = 0 to Gp.Feature_set.n_reals fs - 1 do
      Fmt.pr "  %s@." (Gp.Feature_set.real_name fs i)
    done;
    Fmt.pr "Boolean features:@.";
    for i = 0 to Gp.Feature_set.n_bools fs - 1 do
      Fmt.pr "  %s@." (Gp.Feature_set.bool_name fs i)
    done;
    Fmt.pr "baseline: %s@."
      (Gp.Sexp.to_string fs (Driver.Study.baseline_genome_of study))
  in
  Cmd.v
    (Cmd.info "features" ~doc:"Show a study's feature set and baseline")
    Term.(const run $ study_arg)

(* --- simplify: clean an expression for presentation ------------------------- *)

(* The expression parses against the STUDY argument's feature set, so
   it is checked here rather than by a converter; a malformed one is
   still a usage error. *)
let simplify_cmd =
  let run study expr =
    let fs = Driver.Study.feature_set_of study in
    match Gp.Sexp.parse_genome fs ~sort:(Driver.Study.sort_of study) expr with
    | g ->
      Fmt.pr "%s@." (Gp.Sexp.to_string fs (Gp.Simplify.genome g));
      `Ok ()
    | exception Gp.Sexp.Parse_error m -> `Error (true, "EXPR argument: " ^ m)
  in
  Cmd.v
    (Cmd.info "simplify"
       ~doc:"Algebraically simplify a priority-function expression")
    Term.(
      ret
        (const run $ study_arg
        $ Arg.(required & pos 1 (some string) None & info [] ~docv:"EXPR")))

(* --- fuzz: differential oracle campaigns ------------------------------------ *)

let fuzz_cmd =
  let run seed count oracle out =
    let oracles =
      match oracle with
      | None -> Fuzz.Oracle.all
      | Some name -> (
        match Fuzz.Oracle.find name with
        | Some o -> [ o ]
        | None ->
          Fmt.epr "unknown oracle %S (available: %s)@." name
            (String.concat ", " Fuzz.Oracle.names);
          exit 2)
    in
    let summary =
      Fuzz.run ~oracles ~progress:(fun m -> Fmt.epr "%s@." m) ~seed ~count ()
    in
    Fmt.pr "%a" Fuzz.pp_summary summary;
    let n = Fuzz.divergences summary in
    (match out with
    | Some path when n > 0 ->
      let oc = open_out path in
      output_string oc (Fuzz.to_string summary);
      close_out oc;
      Fmt.pr "counterexamples written to %s@." path
    | _ -> ());
    if n > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random programs and genomes through the \
          nine redundancy oracles (engine, replay, cache, simplify, \
          checkpoint, parmap, compiled_vs_walk, chaos_vs_clean, \
          served_vs_local)")
    Term.(
      const run
      $ Arg.(value & opt int 0 & info [ "seed" ] ~doc:"campaign base seed")
      $ Arg.(
          value & opt int 100
          & info [ "count" ] ~doc:"trial budget per unit-weight oracle")
      $ Arg.(
          value & opt (some string) None
          & info [ "oracle" ] ~doc:"run a single named oracle")
      $ Arg.(
          value & opt (some string) None
          & info [ "out" ]
              ~doc:"write counterexample reports to this file on failure"))

(* --- chaos: deterministic fault-injection trials ---------------------------- *)

let chaos_cmd =
  let run seed count plan =
    let plan =
      match plan with
      | None -> None
      | Some spec -> (
        match Gp.Chaos.plan_of_string spec with
        | Ok p -> Some p
        | Error msg ->
          Fmt.epr "bad --plan: %s@." msg;
          exit 2)
    in
    let failures = ref 0 in
    for i = 0 to count - 1 do
      let s = seed + i in
      let p =
        match plan with Some p -> p | None -> Gp.Chaos.seeded ~seed:s
      in
      Fmt.epr "chaos seed %d: %s@." s (Gp.Chaos.plan_to_string p);
      match Fuzz.Oracle.chaos_trial ?plan s with
      | None -> Fmt.pr "seed %d: ok@." s
      | Some why ->
        incr failures;
        Fmt.pr "seed %d: DIVERGED — %s@." s why;
        Fmt.pr "  replay: metaopt chaos --seed %d --count 1%s@." s
          (match plan with
          | None -> ""
          | Some p ->
            Printf.sprintf " --plan %S" (Gp.Chaos.plan_to_string p))
    done;
    Fmt.pr "%d/%d trials diverged@." !failures count;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Deterministic fault injection: evolve a tiny study on the \
          supervised fork pool while a seeded plan injects hangs, \
          crashes, torn cache lines and truncated checkpoints, then \
          check the result is bit-identical to a fault-free sequential \
          run (including a resume over the damaged artifacts)")
    Term.(
      const run
      $ Arg.(value & opt int 0 & info [ "seed" ] ~doc:"base trial seed")
      $ Arg.(value & opt int 5 & info [ "count" ] ~doc:"number of trials")
      $ Arg.(
          value & opt (some string) None
          & info [ "plan" ]
              ~doc:
                "explicit fault plan \
                 ($(i,SITE)[:$(i,KEY)][@$(i,ATTEMPT)]=$(i,FAULT), \
                 comma-separated) instead of the seed-derived one"))

(* --- serve: the shared evaluation daemon ------------------------------------ *)

let serve_cmd =
  let run socket backend jobs eval_timeout eval_retries cache_dir queue_cap
      inflight_cap idle_timeout metrics_out chaos_plan =
    setup_logs ();
    (match chaos_plan with
    | None -> ()
    | Some spec -> (
      match Gp.Chaos.plan_of_string spec with
      | Ok p -> Gp.Chaos.arm p
      | Error msg ->
        Fmt.epr "bad --chaos-plan: %s@." msg;
        exit 2));
    let pool =
      Gp.Parmap.pool ~backend ~jobs ?timeout_s:eval_timeout
        ~retries:eval_retries ()
    in
    let cfg =
      {
        Serve.Server.socket;
        pool;
        cache_dir;
        queue_cap;
        inflight_cap;
        idle_timeout_s = idle_timeout;
        metrics_out;
      }
    in
    Fmt.epr "metaopt serve: listening on %s (%s backend, %d jobs)@." socket
      (Gp.Parmap.backend_name backend) jobs;
    Serve.Server.run cfg;
    Fmt.epr "metaopt serve: drained and stopped@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the shared evaluation daemon: studies started with \
          $(b,--connect) $(i,SOCK) evaluate candidates here, sharing one \
          persistent fitness store and one warm worker pool.  Misses from \
          all clients coalesce into single pool dispatches; identical \
          work is evaluated once.  SIGTERM drains queued work, flushes \
          the store and exits")
    Term.(
      const run
      $ Arg.(required & pos 0 (some string) None
             & info [] ~docv:"SOCK"
                 ~doc:"Unix-domain socket path to listen on")
      $ backend $ jobs $ eval_timeout $ eval_retries $ cache_dir
      $ Arg.(value & opt (int_conv 1) 4096
             & info [ "queue-cap" ]
                 ~doc:"Reject evaluation batches that would push the \
                       pending-work queue past $(docv) tasks"
                 ~docv:"N")
      $ Arg.(value & opt (int_conv 1) 8
             & info [ "inflight-cap" ]
                 ~doc:"Reject a client's batch while it already has \
                       $(docv) unanswered requests"
                 ~docv:"N")
      $ Arg.(value & opt (some seconds_conv) None
             & info [ "idle-timeout" ]
                 ~doc:"Disconnect a client quiet for $(docv) seconds \
                       with nothing in flight"
                 ~docv:"SECONDS")
      $ Arg.(value & opt (some string) None
             & info [ "metrics-out" ]
                 ~doc:"Write a one-line JSON counter summary (requests, \
                       batched, rejected, store hits, coalesced, \
                       evaluated) to $(docv) on shutdown"
                 ~docv:"FILE")
      $ Arg.(value & opt (some string) None
             & info [ "chaos-plan" ]
                 ~doc:"Arm a deterministic fault plan in the daemon \
                       (same syntax as $(b,metaopt chaos --plan)), for \
                       testing served evaluation under injected faults"
                 ~docv:"PLAN"))

(* --------------------------------------------------------------------------- *)

let main =
  Cmd.group
    (Cmd.info "metaopt" ~version:"1.0.0"
       ~doc:"Meta Optimization: improving compiler heuristics with GP")
    [ list_cmd; run_cmd; ir_cmd; profile_cmd; specialize_cmd; evolve_cmd;
      compare_cmd; features_cmd; simplify_cmd; fuzz_cmd; chaos_cmd;
      serve_cmd ]

let () =
  (* Make --connect work: install the serve client as the study layer's
     remote dialer (the driver library cannot depend on serve). *)
  Serve.Client.register ();
  exit (Cmd.eval main)
