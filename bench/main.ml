(* The benchmark harness: one entry per figure of the paper's evaluation
   (Figures 4-16), plus the ablations DESIGN.md calls out and Bechamel
   micro-benchmarks of the system's hot paths.

   Every figure prints the same rows/series the paper reports, with the
   paper's own headline numbers alongside for comparison.  The GP scale is
   controlled by environment variables so the shipped default finishes on
   one machine in minutes (the paper used 15-20 machines for a day):

     METAOPT_POP    population size   (default 40; paper 400)
     METAOPT_GENS   generations       (default 10; paper 50)
     METAOPT_SEED   GP random seed    (default 42)
     METAOPT_JOBS   evaluation workers (default 1; the paper's cluster)

   Usage:
     dune exec bench/main.exe                 # figures + ext-sched + ablations
     dune exec bench/main.exe -- fig4 fig5    # specific figures
     dune exec bench/main.exe -- sim          # simulation fast paths
     dune exec bench/main.exe -- evalc        # compiled eval + pool backends
     dune exec bench/main.exe -- report       # BENCH_metaopt.json report
     dune exec bench/main.exe -- micro        # Bechamel micro-benches
*)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string s with _ -> default)
  | None -> default

let params =
  {
    Gp.Params.scaled with
    Gp.Params.population_size = env_int "METAOPT_POP" 40;
    generations = env_int "METAOPT_GENS" 10;
    rng_seed = env_int "METAOPT_SEED" 42;
  }

let jobs = env_int "METAOPT_JOBS" 1

(* The run configuration the figures share: GP scale and worker count
   from the environment, everything else at the study defaults. *)
let config = { Driver.Study.default_config with Driver.Study.params; jobs }

let hr title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

let mean sel rows =
  match rows with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun a r -> a +. sel r) 0.0 rows
    /. float_of_int (List.length rows)

let print_rows ~paper_train ~paper_novel rows =
  Fmt.pr "%-16s %10s %10s@." "benchmark" "train" "novel";
  List.iter
    (fun (name, train, novel) -> Fmt.pr "%-16s %10.3f %10.3f@." name train novel)
    rows;
  Fmt.pr "%-16s %10.3f %10.3f    (paper: %.2f / %.2f)@." "average"
    (mean (fun (_, t, _) -> t) rows)
    (mean (fun (_, _, n) -> n) rows)
    paper_train paper_novel

let print_history title history =
  Fmt.pr "%s@." title;
  List.iter
    (fun (s : Gp.Evolve.generation_stats) ->
      Fmt.pr "  gen %2d   best %.4f   mean %.4f   size %d@." s.Gp.Evolve.gen
        s.Gp.Evolve.best_fitness s.Gp.Evolve.mean_fitness s.Gp.Evolve.best_size)
    history

(* Specialization figures (4, 9, 13): one GP run per benchmark; report
   train-data and novel-data speedups of the evolved heuristic. *)
let specialization_figure kind benches =
  List.map
    (fun bench ->
      let r = Driver.Study.specialize_with config kind bench in
      Fmt.pr "%-16s %10.3f %10.3f   %s@." bench r.Driver.Study.train_speedup
        r.Driver.Study.novel_speedup
        (if String.length r.Driver.Study.best_expr > 48 then
           String.sub r.Driver.Study.best_expr 0 48 ^ "..."
         else r.Driver.Study.best_expr);
      (bench, r.Driver.Study.train_speedup, r.Driver.Study.novel_speedup))
    benches

(* Shared general-purpose runs: Figures 6-8, 11-12, 15-16 reuse the DSS
   evolutions. *)
let general_hb = lazy
  (Driver.Study.evolve_general_with config Driver.Study.Hyperblock_study
     Benchmarks.Registry.hyperblock_train)

let general_ra = lazy
  (Driver.Study.evolve_general_with config Driver.Study.Regalloc_study
     Benchmarks.Registry.regalloc_train)

let general_pf = lazy
  (Driver.Study.evolve_general_with config Driver.Study.Prefetch_study
     Benchmarks.Registry.prefetch_train)

(* ------------------------------------------------------------------ *)

let fig4 () =
  hr "Figure 4: hyperblock specialization (per-benchmark evolution)";
  Fmt.pr "paper: avg 1.54 on training data, 1.23 on novel data@.@.";
  let rows =
    specialization_figure Driver.Study.Hyperblock_study
      Benchmarks.Registry.hyperblock_specialize
  in
  print_rows ~paper_train:1.54 ~paper_novel:1.23 rows

let fig5 () =
  hr "Figure 5: hyperblock evolution (best fitness over generations)";
  Fmt.pr
    "paper shape: a big early jump, then a plateau; random initial@.\
     expressions already beat the baseline@.@.";
  let r =
    Driver.Study.specialize_with config Driver.Study.Hyperblock_study
      "rawcaudio"
  in
  print_history "rawcaudio:" r.Driver.Study.history

let fig6 () =
  hr "Figure 6: general-purpose hyperblock heuristic (DSS training set)";
  Fmt.pr "paper: avg 1.44 on training data, 1.25 on novel data@.@.";
  let g = Lazy.force general_hb in
  print_rows ~paper_train:1.44 ~paper_novel:1.25 g.Driver.Study.train_rows

let fig7 () =
  hr "Figure 7: hyperblock cross-validation (unrelated test set)";
  Fmt.pr "paper: avg 1.09; a few benchmarks slightly below 1.0@.@.";
  let g = Lazy.force general_hb in
  let rows =
    Driver.Study.cross_validate_with config Driver.Study.Hyperblock_study
      g.Driver.Study.best Benchmarks.Registry.hyperblock_test
  in
  print_rows ~paper_train:1.09 ~paper_novel:1.09 rows

let fig8 () =
  hr "Figure 8: the best general-purpose hyperblock priority function";
  Fmt.pr
    "paper shape: a readable expression that penalizes pointer@.\
     dereferences and unsafe calls@.@.";
  let g = Lazy.force general_hb in
  Fmt.pr "evolved : %s@." g.Driver.Study.best_expr;
  Fmt.pr "baseline: %s@." Hyperblock.Baseline.source

let fig9 () =
  hr "Figure 9: register allocation specialization";
  Fmt.pr "paper: improvements up to 1.11; train and novel data close@.@.";
  let rows =
    specialization_figure Driver.Study.Regalloc_study
      Benchmarks.Registry.regalloc_specialize
  in
  print_rows ~paper_train:1.08 ~paper_novel:1.06 rows

let fig10 () =
  hr "Figure 10: register allocation evolution";
  Fmt.pr
    "paper shape: gradual improvement; the baseline heuristic survives@.\
     in the population for several generations@.@.";
  let r =
    Driver.Study.specialize_with config Driver.Study.Regalloc_study "djpeg"
  in
  print_history "djpeg:" r.Driver.Study.history

let fig11 () =
  hr "Figure 11: general-purpose register allocation heuristic (DSS)";
  Fmt.pr "paper: avg 1.03 on both training and novel data@.@.";
  let g = Lazy.force general_ra in
  print_rows ~paper_train:1.03 ~paper_novel:1.03 g.Driver.Study.train_rows

let fig12 () =
  hr "Figure 12: register allocation cross-validation (two machines)";
  Fmt.pr "paper: avg 1.03; a couple of benchmarks below 1.0@.@.";
  let g = Lazy.force general_ra in
  Fmt.pr "--- 32-register machine@.";
  let rows32 =
    Driver.Study.cross_validate_with config Driver.Study.Regalloc_study
      g.Driver.Study.best Benchmarks.Registry.regalloc_test
  in
  print_rows ~paper_train:1.03 ~paper_novel:1.03 rows32;
  Fmt.pr "--- 48-register machine@.";
  let machine48 =
    { Machine.Config.table3 with Machine.Config.gpr = 48;
      name = "table3-48reg" }
  in
  let rows48 =
    Driver.Study.cross_validate_with
      { config with Driver.Study.machine = Some machine48 }
      Driver.Study.Regalloc_study g.Driver.Study.best
      Benchmarks.Registry.regalloc_test
  in
  print_rows ~paper_train:1.03 ~paper_novel:1.03 rows48

let fig13 () =
  hr "Figure 13: prefetching specialization (Itanium-like, noisy fitness)";
  Fmt.pr
    "paper: avg 1.35 train / 1.40 novel; GP solutions rarely prefetch;@.\
     no-prefetch lands within ~7%% of the specialized functions@.@.";
  let rows =
    specialization_figure Driver.Study.Prefetch_study
      Benchmarks.Registry.prefetch_specialize
  in
  print_rows ~paper_train:1.35 ~paper_novel:1.40 rows;
  (* The paper's "shutting off prefetching altogether" comparison. *)
  let off =
    Gp.Expr.Bool (Gp.Sexp.parse_bool Prefetch.Features.feature_set "false")
  in
  let off_rows =
    Driver.Study.cross_validate_with config Driver.Study.Prefetch_study off
      Benchmarks.Registry.prefetch_specialize
  in
  Fmt.pr "@.no-prefetch-at-all speedups over the ORC baseline:@.";
  print_rows ~paper_train:1.25 ~paper_novel:1.25 off_rows

let fig14 () =
  hr "Figure 14: prefetching evolution";
  Fmt.pr "paper shape: baseline quickly weeded out; early plateau@.@.";
  let r =
    Driver.Study.specialize_with config Driver.Study.Prefetch_study
      "103.su2cor"
  in
  print_history "103.su2cor:" r.Driver.Study.history

let fig15 () =
  hr "Figure 15: general-purpose prefetching heuristic (DSS)";
  Fmt.pr "paper: avg 1.31 train data / 1.36 novel data@.@.";
  let g = Lazy.force general_pf in
  print_rows ~paper_train:1.31 ~paper_novel:1.36 g.Driver.Study.train_rows;
  Fmt.pr "@.evolved confidence function: %s@." g.Driver.Study.best_expr

let fig16 () =
  hr "Figure 16: prefetching cross-validation on SPEC2000 (two machines)";
  Fmt.pr
    "paper: mostly above 1.0, but a couple of SPEC2000 benchmarks want@.\
     aggressive prefetching and fall below — the training-coverage caveat@.@.";
  let g = Lazy.force general_pf in
  Fmt.pr "--- itanium1@.";
  let rows =
    Driver.Study.cross_validate_with config Driver.Study.Prefetch_study
      g.Driver.Study.best Benchmarks.Registry.prefetch_test
  in
  print_rows ~paper_train:1.1 ~paper_novel:1.1 rows;
  Fmt.pr "--- itanium with a small L2@.";
  let rows2 =
    Driver.Study.cross_validate_with
      { config with Driver.Study.machine = Some Machine.Config.itanium_small_l2 }
      Driver.Study.Prefetch_study g.Driver.Study.best
      Benchmarks.Registry.prefetch_test
  in
  print_rows ~paper_train:1.1 ~paper_novel:1.1 rows2

(* ------------------------------------------------------------------ *)

(* Extension beyond the paper's three case studies: the list scheduler's
   ranking function, the canonical priority-function example of the
   paper's Section 2. *)
let ext_sched () =
  hr "Extension: evolving the list-scheduling priority (paper Section 2)";
  Fmt.pr
    "no paper reference — Section 2 motivates scheduling priorities but@.     the paper's case studies stop at three; expected shape: small,@.     benchmark-dependent wins over latency-weighted depth@.@.";
  let rows =
    specialization_figure Driver.Study.Sched_study
      [ "rawcaudio"; "huff_enc"; "djpeg"; "129.compress"; "023.eqntott";
        "mpeg2dec" ]
  in
  print_rows ~paper_train:1.0 ~paper_novel:1.0 rows

let ablations () =
  hr "Ablations: GP design choices (hyperblock study on rawcaudio)";
  let run name p =
    let r =
      Driver.Study.specialize_with
        { config with Driver.Study.params = p }
        Driver.Study.Hyperblock_study "rawcaudio"
    in
    let last_size =
      match List.rev r.Driver.Study.history with
      | s :: _ -> s.Gp.Evolve.best_size
      | [] -> 0
    in
    Fmt.pr "  %-28s train %.3f   novel %.3f   best size %d@." name
      r.Driver.Study.train_speedup r.Driver.Study.novel_speedup last_size
  in
  run "defaults" params;
  run "no parsimony pressure" { params with Gp.Params.parsimony_eps = 0.0 };
  run "no elitism" { params with Gp.Params.elitism = false };
  run "tournament size 2" { params with Gp.Params.tournament_size = 2 };
  run "no baseline seed" { params with Gp.Params.seed_baseline = false };
  run "high mutation (25%)" { params with Gp.Params.mutation_rate = 0.25 }

(* ------------------------------------------------------------------ *)

let detected_cores () =
  try
    let ic = Unix.open_process_in "getconf _NPROCESSORS_ONLN" in
    let n = int_of_string (String.trim (input_line ic)) in
    ignore (Unix.close_process_in ic);
    max 1 n
  with _ -> 1

(* Wall clock of bringing up a warm pool: spawn [jobs] resident fork
   workers through a persistent handle (spawn happens lazily, inside the
   first batch) and run one trivial task per worker. *)
let pool_startup_s jobs =
  if not (List.mem `Fork (Gp.Parmap.capabilities ())) then 0.0
  else begin
    let pool = Gp.Parmap.pool ~backend:`Fork ~jobs () in
    let h = Gp.Parmap.create pool ~f:Fun.id in
    let t = Unix.gettimeofday () in
    ignore (Gp.Parmap.run_batch h (Array.init jobs Fun.id));
    let dt = Unix.gettimeofday () -. t in
    Gp.Parmap.shutdown h;
    dt
  end

(* Mean steady-state seconds per generation from a run's generation
   completion stamps: the first generation — which pays the one-time
   pool spawn and the initial population's compiles — is excluded, so
   the figure reflects the warm-pool regime a long campaign lives in. *)
let steady_gen_s stamps =
  let a = Array.of_list (List.rev stamps) in
  let n = Array.length a in
  if n >= 2 then (a.(n - 1) -. a.(0)) /. float_of_int (n - 1) else 0.0

(* Simulation fast paths (DESIGN.md §10): simulation throughput of the
   reference vs the closure engine, the speedup of answering from a
   stored cycle summary over a full simulation, the end-to-end effect of
   the fast paths on a sched-study smoke evolution (identical evolved
   results required), and the artifact-cache and decision-tier hit rates
   of a hyperblock smoke run.
   Returns the telemetry JSON embedded in the report target. *)
let sim_measurements p =
  let best_of n f =
    let rec go best i =
      if i >= n then best
      else begin
        let t = Unix.gettimeofday () in
        f ();
        go (min best (Unix.gettimeofday () -. t)) (i + 1)
      end
    in
    go infinity 0
  in
  (* Interpreter throughput on the largest dynamic footprint in the
     suite. *)
  let tp_bench = "023.eqntott" in
  let prep = Driver.Compiler.prepare (Benchmarks.Registry.find tp_bench) in
  let machine = Driver.Study.machine_of Driver.Study.Sched_study in
  let heuristics =
    Driver.Study.heuristics_with Driver.Study.Sched_study
      (Driver.Study.baseline_genome_of Driver.Study.Sched_study)
  in
  let c = Driver.Compiler.compile ~machine ~heuristics prep in
  let overrides =
    Benchmarks.Bench.overrides prep.Driver.Compiler.bench
      Benchmarks.Bench.Train
  in
  let run engine () =
    ignore
      (Machine.Simulate.run ~engine ~config:machine
         ~schedule_cycles:c.Driver.Compiler.schedule_cycles ~overrides
         c.Driver.Compiler.layout)
  in
  let summary =
    Machine.Simulate.summarize ~config:machine ~overrides
      c.Driver.Compiler.layout
  in
  let dyn =
    float_of_int
      summary.Machine.Simulate.remainder.Machine.Simulate.dynamic_instrs
  in
  let t_ref = best_of 3 (run `Reference) in
  let t_fast = best_of 3 (run `Fast) in
  (* One summary answer is a dot product, shorter than a clock tick:
     time a batch. *)
  let answers = 10_000 in
  let t_replay =
    best_of 5 (fun () ->
        for _ = 1 to answers do
          ignore
            (Sys.opaque_identity
               (Machine.Simulate.retime
                  ~schedule_cycles:c.Driver.Compiler.schedule_cycles summary))
        done)
    /. float_of_int answers
  in
  (* End-to-end: the sched-study smoke evolution with the fast paths on
     vs off must produce identical results, faster. *)
  let evo_bench = "129.compress" in
  let timed f =
    let t = Unix.gettimeofday () in
    let v = f () in
    (Unix.gettimeofday () -. t, v)
  in
  let t_on, r_on =
    timed (fun () ->
        Driver.Study.specialize_with
          { config with Driver.Study.params = p; fast_sim = true }
          Driver.Study.Sched_study evo_bench)
  in
  let t_off, r_off =
    timed (fun () ->
        Driver.Study.specialize_with
          { config with Driver.Study.params = p; fast_sim = false }
          Driver.Study.Sched_study evo_bench)
  in
  let identical =
    r_on.Driver.Study.train_speedup = r_off.Driver.Study.train_speedup
    && r_on.Driver.Study.novel_speedup = r_off.Driver.Study.novel_speedup
    && r_on.Driver.Study.best_expr = r_off.Driver.Study.best_expr
  in
  (* Artifact-cache behaviour of a hyperblock smoke evolution. *)
  let ctx =
    Driver.Study.create_with Driver.Study.default_config
      Driver.Study.Hyperblock_study [ "codrle4" ]
  in
  ignore (Gp.Evolve.run ~params:p (Driver.Study.problem_of ctx));
  let st = Driver.Simcache.stats ctx.Driver.Study.sim in
  let lookups =
    st.Driver.Simcache.artifact_hits + st.Driver.Simcache.replays
    + st.Driver.Simcache.simulations
  in
  let rate n = float_of_int n /. float_of_int (max 1 lookups) in
  let hit_rate = rate st.Driver.Simcache.artifact_hits in
  let decision_hit_rate = rate st.Driver.Simcache.decision_hits in
  Fmt.pr "  interpreter  : reference %.1f Minstr/s, closure engine %.1f (%.2fx)@."
    (dyn /. t_ref /. 1e6) (dyn /. t_fast /. 1e6) (t_ref /. t_fast);
  Fmt.pr "  summary answer: %.0fx over a full fast-engine simulation@."
    (t_fast /. t_replay);
  Fmt.pr "  sched smoke  : fast %.2fs, slow %.2fs (%.2fx), identical: %s@."
    t_on t_off (t_off /. t_on) (if identical then "yes" else "NO!");
  Fmt.pr
    "  artifact cache: %d hits / %d replays / %d simulations (hit rate %.2f)@."
    st.Driver.Simcache.artifact_hits st.Driver.Simcache.replays
    st.Driver.Simcache.simulations hit_rate;
  Fmt.pr "  decision tier : %d of those hits (hit rate %.2f)@."
    st.Driver.Simcache.decision_hits decision_hit_rate;
  Gp.Telemetry.Obj
    [
      ("throughput_bench", Gp.Telemetry.String tp_bench);
      ("reference_minstr_s", Gp.Telemetry.Float (dyn /. t_ref /. 1e6));
      ("fast_minstr_s", Gp.Telemetry.Float (dyn /. t_fast /. 1e6));
      ("engine_speedup", Gp.Telemetry.Float (t_ref /. t_fast));
      ("replay_speedup", Gp.Telemetry.Float (t_fast /. t_replay));
      ("evolution_bench", Gp.Telemetry.String evo_bench);
      ("evolution_fast_s", Gp.Telemetry.Float t_on);
      ("evolution_slow_s", Gp.Telemetry.Float t_off);
      ("evolution_speedup", Gp.Telemetry.Float (t_off /. t_on));
      ("evolution_identical", Gp.Telemetry.Bool identical);
      ("artifact_hits", Gp.Telemetry.Int st.Driver.Simcache.artifact_hits);
      ("replays", Gp.Telemetry.Int st.Driver.Simcache.replays);
      ("simulations", Gp.Telemetry.Int st.Driver.Simcache.simulations);
      ("artifact_hit_rate", Gp.Telemetry.Float hit_rate);
      ("decision_hits", Gp.Telemetry.Int st.Driver.Simcache.decision_hits);
      ("decision_hit_rate", Gp.Telemetry.Float decision_hit_rate);
    ]

(* Compiled genome evaluation (DESIGN.md §12): batch throughput of the
   Evalc bytecode against the Eval tree-walker on a deep expression, and
   a warm fork pool against the sequential reference on a heavy pure
   workload.  Returns the telemetry JSON embedded in the report
   target. *)
let evalc_measurements () =
  let best_of n f =
    let rec go best i =
      if i >= n then best
      else begin
        let t = Unix.gettimeofday () in
        f ();
        go (min best (Unix.gettimeofday () -. t)) (i + 1)
      end
    in
    go infinity 0
  in
  let fs = Fuzz.Genome_gen.fs in
  let rng = Random.State.make [| 0xeca1c; 7 |] in
  (* Main workload: a deep arithmetic priority function over the feature
     set — the shape evolved heuristics actually take (Table 1 of the
     paper: add/sub/mul/div/sqrt over features with a handful of
     constants).  Both evaluators visit every node, so this measures the
     engines head to head.  A random tree full of conditionals is the
     adversarial case for the strict batch engine (the walker skips
     untaken arms, the batch engine computes them), recorded separately
     as [branchy_speedup] — it is a stress figure, not the gated one. *)
  let n_real =
    Array.length (Gp.Feature_set.empty_env fs).Gp.Feature_set.real_values
  in
  let rec mk depth i =
    if depth = 0 then
      if i mod 3 = 2 then Gp.Expr.Rconst (float_of_int (i mod 5) +. 0.5)
      else Gp.Expr.Rarg (i mod n_real)
    else
      let l = mk (depth - 1) (2 * i) and r = mk (depth - 1) ((2 * i) + 1) in
      match i mod 4 with
      | 0 -> Gp.Expr.Radd (l, r)
      | 1 -> Gp.Expr.Rsub (l, r)
      | 2 -> Gp.Expr.Rmul (l, r)
      | _ -> Gp.Expr.Rdiv (l, r)
  in
  let expr = mk 8 0 in
  let branchy = Gp.Gen.gen_real (Gp.Gen.default_config fs) rng ~full:true 8 in
  let envs = Array.of_list (Fuzz.Genome_gen.envs rng ~n:1024) in
  let n_env = Array.length envs in
  let prog = Gp.Evalc.compile_real expr in
  let branchy_prog = Gp.Evalc.compile_real branchy in
  (* identical bits first: throughput numbers mean nothing otherwise *)
  let identical e p =
    let batch = Gp.Evalc.run_batch p envs in
    let walk =
      Array.map (fun env -> Int64.bits_of_float (Gp.Eval.real env e)) envs
    in
    Array.map Int64.bits_of_float batch = walk
  in
  let bit_identical = identical expr prog && identical branchy branchy_prog in
  let reps = 20 in
  let throughput e p =
    let t_walk =
      best_of 5 (fun () ->
          for _ = 1 to reps do
            Array.iter (fun env -> ignore (Gp.Eval.real env e)) envs
          done)
    in
    let t_compiled =
      best_of 5 (fun () ->
          for _ = 1 to reps do
            ignore (Gp.Evalc.run_batch p envs)
          done)
    in
    (t_walk, t_compiled)
  in
  let t_walk, t_compiled = throughput expr prog in
  let tb_walk, tb_compiled = throughput branchy branchy_prog in
  let evals = float_of_int (n_env * reps) in
  let compiled_speedup = t_walk /. t_compiled in
  let branchy_speedup = tb_walk /. tb_compiled in
  (* pool timing, in the regime evolution actually runs in: one batch
     per generation against a long-lived warm pool.  The fork pool gets
     a persistent handle, pays its spawn once in an untimed warm-up
     batch, then times steady-state batches of 512 small pure tasks —
     small enough that per-task dispatch cost (pipe syscalls and Marshal
     framing) is visible next to the work. *)
  let tasks = Array.init 512 Fun.id in
  let pool_envs = Array.sub envs 0 32 in
  let task i =
    let acc = ref (float_of_int i) in
    Array.iter
      (fun v -> acc := !acc +. v)
      (Gp.Evalc.run_batch prog pool_envs);
    !acc
  in
  let seq_bits = Array.map (fun i -> Int64.bits_of_float (task i)) tasks in
  (* without fork, [fork_s] is 0 and nothing is compared *)
  let t_fork, fork_bits =
    if not Gp.Parmap.available then (0.0, seq_bits)
    else begin
      let h =
        Gp.Parmap.create (Gp.Parmap.pool ~backend:`Fork ~jobs:4 ()) ~f:task
      in
      let bits = ref [||] in
      let batch () =
        let outcomes, _ = Gp.Parmap.run_batch h tasks in
        bits :=
          Array.map
            (function
              | Gp.Parmap.Ok v -> Int64.bits_of_float v
              | _ -> Int64.bits_of_float Float.nan)
            outcomes
      in
      batch () (* untimed warm-up: spawns the resident workers *);
      let t = best_of 3 batch in
      Gp.Parmap.shutdown h;
      (t, !bits)
    end
  in
  let pools_identical = fork_bits = seq_bits in
  Fmt.pr "  bytecode     : walker %.2f Meval/s, compiled %.2f (%.2fx)@."
    (evals /. t_walk /. 1e6)
    (evals /. t_compiled /. 1e6)
    compiled_speedup;
  Fmt.pr "  branchy      : walker %.2f Meval/s, compiled %.2f (%.2fx)@."
    (evals /. tb_walk /. 1e6)
    (evals /. tb_compiled /. 1e6)
    branchy_speedup;
  Fmt.pr "  bit-identical: %s@." (if bit_identical then "yes" else "NO!");
  if t_fork > 0.0 then Fmt.pr "  pool (warm)  : fork %.3fs/batch@." t_fork
  else Fmt.pr "  pool (warm)  : fork unavailable@.";
  Fmt.pr "  pool results : %s@."
    (if pools_identical then "identical to seq" else "DIVERGENT!");
  Gp.Telemetry.Obj
    [
      ("envs", Gp.Telemetry.Int n_env);
      ("walk_meval_s", Gp.Telemetry.Float (evals /. t_walk /. 1e6));
      ("compiled_meval_s", Gp.Telemetry.Float (evals /. t_compiled /. 1e6));
      ("compiled_speedup", Gp.Telemetry.Float compiled_speedup);
      ("branchy_speedup", Gp.Telemetry.Float branchy_speedup);
      ("bit_identical", Gp.Telemetry.Bool bit_identical);
      ("fork_s", Gp.Telemetry.Float t_fork);
      ("pools_identical", Gp.Telemetry.Bool pools_identical);
    ]

let evalc () =
  hr "Compiled genome evaluation: Evalc bytecode + warm fork pool";
  ignore (evalc_measurements ())

let sim () =
  hr "Simulation fast paths: closure engine, cycle summaries, artifact cache";
  let p =
    { params with
      Gp.Params.population_size = min 16 params.Gp.Params.population_size;
      generations = min 4 params.Gp.Params.generations }
  in
  ignore (sim_measurements p)

(* The observability report: run a small evolve twice (cold and warm
   cache) at -j 1 and once at -j 4 with telemetry capturing every record,
   then write BENCH_metaopt.json — per-phase wall-clock timings,
   end-to-end speedups (steady-state parallel over sequential, warm cache
   over cold), the one-time pool startup cost, the full metric registry,
   and record counts.  The parallel figure is steady-state on purpose:
   generations against the resident warm pool, excluding the first
   generation's pool spawn, which is reported separately as
   pool_startup_s.  The file is re-read and schema-validated — including
   core-count-aware speedup gates — before the target reports success,
   so CI can fail on a malformed or regressed report rather than
   archiving garbage. *)
let report () =
  hr "Observability report: phase timings + speedups -> BENCH_metaopt.json";
  let out =
    Option.value ~default:"BENCH_metaopt.json"
      (Sys.getenv_opt "METAOPT_BENCH_OUT")
  in
  let p =
    { params with
      Gp.Params.population_size = min 16 params.Gp.Params.population_size;
      generations = min 4 params.Gp.Params.generations }
  in
  let benches = [ "codrle4"; "decodrle4" ] in
  let sink, records = Gp.Telemetry.memory_sink () in
  Gp.Telemetry.set_sink (Some sink);
  let phase name f =
    let t = Unix.gettimeofday () in
    let v = f () in
    let dt = Unix.gettimeofday () -. t in
    Fmt.pr "  %-24s %8.2fs@." name dt;
    ((name, dt), v)
  in
  let run_on ctx =
    let stamps = ref [] in
    let r =
      Gp.Evolve.run ~params:p
        ~on_generation:(fun _ -> stamps := Unix.gettimeofday () :: !stamps)
        (Driver.Study.problem_of ctx)
    in
    (r, steady_gen_s !stamps)
  in
  let at_jobs jobs =
    Driver.Study.create_with
      { Driver.Study.default_config with Driver.Study.jobs }
      Driver.Study.Hyperblock_study benches
  in
  let ctx1 = at_jobs 1 in
  let ph_cold, (r_cold, steady_j1) =
    phase "evolve -j1 (cold)" (fun () -> run_on ctx1)
  in
  (* Same engine, same params: every request is a memo hit. *)
  let ph_warm, (r_warm, _) =
    phase "evolve -j1 (warm cache)" (fun () -> run_on ctx1)
  in
  let ctx4 = at_jobs 4 in
  let ph_par, (r_par, steady_j4) =
    phase "evolve -j4 (cold)" (fun () -> run_on ctx4)
  in
  Driver.Study.close ctx1;
  Driver.Study.close ctx4;
  let startup_s = pool_startup_s 4 in
  Fmt.pr "  %-24s %8.3fs@." "pool startup (4 workers)" startup_s;
  Fmt.pr "  simulation fast paths:@.";
  let ph_sim, sim_doc =
    phase "sim fast paths" (fun () -> sim_measurements p)
  in
  Fmt.pr "  compiled evaluation:@.";
  let ph_evalc, evalc_doc =
    phase "compiled eval" (fun () -> evalc_measurements ())
  in
  let registry = Gp.Telemetry.registry_json () in
  let recs = records () in
  Gp.Telemetry.set_sink None;
  let identical =
    r_cold.Gp.Evolve.best_fitness = r_warm.Gp.Evolve.best_fitness
    && r_cold.Gp.Evolve.best_fitness = r_par.Gp.Evolve.best_fitness
  in
  let count kind =
    List.length
      (List.filter
         (fun r ->
           Gp.Telemetry.member "kind" r = Some (Gp.Telemetry.String kind))
         recs)
  in
  let seconds (_, s) = s in
  let speedup num den = if den > 0.0 then num /. den else 0.0 in
  let cores = detected_cores () in
  let doc =
    Gp.Telemetry.Obj
      [
        ("schema_version", Gp.Telemetry.Int 1);
        ( "config",
          Gp.Telemetry.Obj
            [
              ("population", Gp.Telemetry.Int p.Gp.Params.population_size);
              ("generations", Gp.Telemetry.Int p.Gp.Params.generations);
              ("seed", Gp.Telemetry.Int p.Gp.Params.rng_seed);
              ("detected_cores", Gp.Telemetry.Int cores);
              ( "benches",
                Gp.Telemetry.List
                  (List.map (fun b -> Gp.Telemetry.String b) benches) );
            ] );
        ( "phases",
          Gp.Telemetry.List
            (List.map
               (fun (name, s) ->
                 Gp.Telemetry.Obj
                   [
                     ("name", Gp.Telemetry.String name);
                     ("seconds", Gp.Telemetry.Float s);
                   ])
               [ ph_cold; ph_warm; ph_par; ph_sim; ph_evalc ]) );
        ( "speedups",
          Gp.Telemetry.Obj
            [
              (* steady-state per-generation ratio on the resident warm
                 pool; the first generation's one-time spawn cost is
                 pool_startup_s, not folded into the speedup.  On a
                 machine with fewer than two cores the ratio measures
                 nothing but scheduling noise, so it is reported as the
                 honest string "insufficient_cores" instead of a
                 number. *)
              ( "parallel_j4_over_j1",
                if cores < 2 then Gp.Telemetry.String "insufficient_cores"
                else Gp.Telemetry.Float (speedup steady_j1 steady_j4) );
              ( "warm_cache_over_cold",
                Gp.Telemetry.Float (speedup (seconds ph_cold) (seconds ph_warm))
              );
              ("pool_startup_s", Gp.Telemetry.Float startup_s);
            ] );
        ("identical_results", Gp.Telemetry.Bool identical);
        ("sim", sim_doc);
        ("evalc", evalc_doc);
        ( "records",
          Gp.Telemetry.Obj
            [
              ("generation", Gp.Telemetry.Int (count "generation"));
              ("pool", Gp.Telemetry.Int (count "pool"));
              ("cache", Gp.Telemetry.Int (count "cache"));
            ] );
        ("telemetry", registry);
      ]
  in
  let oc = open_out out in
  output_string oc (Gp.Telemetry.json_to_string doc);
  output_char oc '\n';
  close_out oc;
  (* Validate what actually landed on disk. *)
  let ic = open_in out in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  let fail msg = failwith ("BENCH_metaopt.json schema invalid: " ^ msg) in
  (match Gp.Telemetry.json_of_string (String.trim body) with
  | Error e -> fail e
  | Ok j ->
    let require k =
      match Gp.Telemetry.member k j with
      | Some v -> v
      | None -> fail ("missing key " ^ k)
    in
    (match require "schema_version" with
    | Gp.Telemetry.Int 1 -> ()
    | _ -> fail "schema_version <> 1");
    (match require "phases" with
    | Gp.Telemetry.List (_ :: _ as ps) ->
      List.iter
        (fun ph ->
          match
            (Gp.Telemetry.member "name" ph, Gp.Telemetry.member "seconds" ph)
          with
          | Some (Gp.Telemetry.String _), Some (Gp.Telemetry.Float _) -> ()
          | _ -> fail "phase entry without name/seconds")
        ps
    | _ -> fail "phases missing or empty");
    (match require "speedups" with
    | Gp.Telemetry.Obj _ as s ->
      let fnum k =
        match Gp.Telemetry.member k s with
        | Some (Gp.Telemetry.Float f) -> f
        | _ -> fail ("speedups." ^ k ^ " missing or not a float")
      in
      let par =
        match Gp.Telemetry.member "parallel_j4_over_j1" s with
        | Some (Gp.Telemetry.Float f) when cores >= 2 -> Some f
        | Some (Gp.Telemetry.String "insufficient_cores") when cores < 2 ->
          None
        | _ ->
          fail
            "speedups.parallel_j4_over_j1 must be a float (>= 2 cores) or \
             \"insufficient_cores\" (< 2 cores)"
      in
      ignore (fnum "warm_cache_over_cold");
      ignore (fnum "pool_startup_s");
      (* Speedup gates, scaled to the cores this container actually has:
         the full 1.5x CI gate applies from 4 cores up (the hosted CI
         runners); between 2 and 3 cores the gate is 0.4x per core.  On
         fewer than 2 cores there is no parallel figure at all — the
         field is the "insufficient_cores" marker, checked above —
         because a single-core ratio would only report scheduling
         noise. *)
      (match par with
      | None -> ()
      | Some par ->
        let par_gate =
          if cores >= 4 then 1.5 else Float.min 1.5 (0.4 *. float_of_int cores)
        in
        if par < par_gate then
          fail
            (Printf.sprintf
               "parallel_j4_over_j1 %.2f below gate %.2f (%d cores)" par
               par_gate cores))
    | _ -> fail "speedups not an object");
    (match require "config" with
    | Gp.Telemetry.Obj _ as c ->
      (match Gp.Telemetry.member "detected_cores" c with
      | Some (Gp.Telemetry.Int n) when n >= 1 -> ()
      | _ -> fail "config.detected_cores missing or < 1")
    | _ -> fail "config not an object");
    ignore (require "records");
    (* The pool instrumentation must have registered: per-batch
       dispatch spans and queue waits as histograms. *)
    (match require "telemetry" with
    | Gp.Telemetry.Obj _ as t ->
      (match Gp.Telemetry.member "histograms" t with
      | Some (Gp.Telemetry.Obj _ as h) ->
        List.iter
          (fun k ->
            if Gp.Telemetry.member k h = None then
              fail ("telemetry.histograms missing " ^ k))
          [ "parmap.dispatch_s"; "parmap.queue_wait_s" ]
      | _ -> fail "telemetry.histograms missing");
      (match Gp.Telemetry.member "counters" t with
      | Some (Gp.Telemetry.Obj _) -> ()
      | _ -> fail "telemetry.counters missing")
    | _ -> fail "telemetry not an object");
    (match require "sim" with
    | Gp.Telemetry.Obj _ as s ->
      List.iter
        (fun k ->
          match Gp.Telemetry.member k s with
          | Some _ -> ()
          | None -> fail ("sim section missing key " ^ k))
        [
          "engine_speedup"; "replay_speedup"; "evolution_speedup";
          "evolution_identical"; "artifact_hit_rate"; "decision_hits";
          "decision_hit_rate";
        ]
    | _ -> fail "sim not an object");
    (match require "evalc" with
    | Gp.Telemetry.Obj _ as e ->
      List.iter
        (fun k ->
          match Gp.Telemetry.member k e with
          | Some _ -> ()
          | None -> fail ("evalc section missing key " ^ k))
        [
          "compiled_speedup"; "branchy_speedup"; "bit_identical"; "fork_s";
          "pools_identical";
        ]
    | _ -> fail "evalc not an object"));
  Fmt.pr
    "@.speedups: parallel %s steady (%d cores), warm cache %.2fx, pool \
     startup %.3fs@."
    (if cores < 2 then "n/a (insufficient cores)"
     else Printf.sprintf "%.2fx" (speedup steady_j1 steady_j4))
    cores
    (speedup (seconds ph_cold) (seconds ph_warm))
    startup_s;
  Fmt.pr "identical evolved results across engines: %s@."
    (if identical then "yes" else "NO!");
  Fmt.pr "records: %d generation, %d pool, %d cache@." (count "generation")
    (count "pool") (count "cache");
  Fmt.pr "wrote %s (schema ok)@." out

(* Bechamel micro-benchmarks of the hot paths: expression evaluation,
   genetic operators, dependence-graph construction and scheduling, cache
   simulation and whole-program interpretation. *)
let micro () =
  hr "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let fs = Hyperblock.Features.feature_set in
  let env = Gp.Feature_set.empty_env fs in
  let expr = Hyperblock.Baseline.expr in
  let rng0 = Random.State.make [| 9 |] in
  let big_expr = Gp.Gen.gen_real (Gp.Gen.default_config fs) rng0 ~full:true 8 in
  let rng = Random.State.make [| 17 |] in
  let genome_a =
    Gp.Gen.genome (Gp.Gen.default_config fs) rng ~sort:`Real ~full:false 6
  in
  let genome_b =
    Gp.Gen.genome (Gp.Gen.default_config fs) rng ~sort:`Real ~full:false 6
  in
  let bench_block =
    let b = Benchmarks.Registry.find "rawcaudio" in
    let prog = Frontend.Minic.compile b.Benchmarks.Bench.source in
    Opt.Pipeline.run prog;
    let f = Ir.Func.find_func prog "main" in
    let biggest =
      List.fold_left
        (fun (acc : Ir.Func.block) (blk : Ir.Func.block) ->
          if List.length blk.Ir.Func.instrs > List.length acc.Ir.Func.instrs
          then blk
          else acc)
        (List.hd f.Ir.Func.blocks) f.Ir.Func.blocks
    in
    Array.of_list biggest.Ir.Func.instrs
  in
  let quick_prog =
    let b = Benchmarks.Registry.find "codrle4" in
    let prog = Frontend.Minic.compile b.Benchmarks.Bench.source in
    Opt.Pipeline.run prog;
    let layout = Profile.Layout.prepare prog in
    (layout, b.Benchmarks.Bench.train)
  in
  let cache = Machine.Cache.create Machine.Config.table3 in
  let counter = ref 0 in
  let tests =
    [
      Test.make ~name:"eval-eq1-priority"
        (Staged.stage (fun () -> ignore (Gp.Eval.real env expr)));
      Test.make ~name:"eval-depth8-expr"
        (Staged.stage (fun () -> ignore (Gp.Eval.real env big_expr)));
      Test.make ~name:"depth-fair-crossover"
        (Staged.stage (fun () ->
             ignore (Gp.Genetic_ops.crossover rng genome_a genome_b)));
      Test.make ~name:"depgraph-hot-block"
        (Staged.stage (fun () -> ignore (Sched.Depgraph.build bench_block)));
      Test.make ~name:"list-schedule-hot-block"
        (Staged.stage (fun () ->
             ignore
               (Sched.List_sched.schedule_instrs
                  ~config:Machine.Config.table3 bench_block)));
      Test.make ~name:"cache-load-stream"
        (Staged.stage (fun () ->
             incr counter;
             ignore (Machine.Cache.load cache (!counter * 3 land 0xFFFF))));
      Test.make ~name:"interp-codrle4-run"
        (Staged.stage (fun () ->
             let layout, overrides = quick_prog in
             ignore (Profile.Interp.run ~overrides layout)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Fmt.pr "  %-36s %12.1f ns/run@." name est
          | _ -> Fmt.pr "  %-36s (no estimate)@." name)
        ols)
    tests

(* ------------------------------------------------------------------ *)

(* What runs with no target named.  [report] rewrites the committed
   BENCH_metaopt.json, so it and the other timing targets run only when
   named. *)
let all_figures =
  [
    ("fig4", fig4); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
    ("fig12", fig12); ("fig13", fig13); ("fig14", fig14); ("fig15", fig15);
    ("fig16", fig16); ("ext-sched", ext_sched); ("ablations", ablations);
  ]

let all_targets =
  all_figures
  @ [ ("sim", sim); ("evalc", evalc); ("report", report); ("micro", micro) ]

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Error);
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all_figures
  in
  Fmt.pr "Meta Optimization benchmark harness@.";
  Fmt.pr
    "GP scale: population %d, generations %d, %d evaluation worker(s)@.\
     (env METAOPT_POP/GENS/JOBS)@."
    params.Gp.Params.population_size params.Gp.Params.generations jobs;
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name all_targets with
      | Some f ->
        let t = Unix.gettimeofday () in
        f ();
        Fmt.pr "@.[%s took %.1fs]@." name (Unix.gettimeofday () -. t)
      | None ->
        Fmt.pr "unknown target %s (try fig4..fig16, ext-sched, ablations, sim, \
                evalc, report, micro)@." name)
    requested;
  Fmt.pr "@.total: %.1fs@." (Unix.gettimeofday () -. t0)
