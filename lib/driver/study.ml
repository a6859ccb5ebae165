(* The three case studies, wired to the evolution driver.

   A study picks which heuristic slot the genome occupies, the machine
   model, and whether simulated measurement noise is injected (the
   prefetching study ran on a real Itanium in the paper, so its fitness
   signal is noisy).  Fitness of a candidate on a benchmark is the paper's
   definition: execution-time speedup over the compiler's baseline
   heuristic on the training dataset.

   All candidate evaluation is routed through the batch Evaluator engine:
   one engine per (context, dataset), sharing the context's pool and
   store handle, so evolution, the final measurements and
   cross-validation all benefit from the same canonicalization, caching
   and process pool. *)

type kind = Hyperblock_study | Regalloc_study | Prefetch_study | Sched_study

let kind_name = function
  | Hyperblock_study -> "hyperblock"
  | Regalloc_study -> "regalloc"
  | Prefetch_study -> "prefetch"
  | Sched_study -> "sched"

let machine_of = function
  | Hyperblock_study -> Machine.Config.table3
  | Sched_study -> Machine.Config.table3_narrow
  | Regalloc_study -> Machine.Config.table3_regalloc
  | Prefetch_study -> Machine.Config.itanium1

let feature_set_of = function
  | Hyperblock_study -> Hyperblock.Features.feature_set
  | Regalloc_study -> Regalloc.Features.feature_set
  | Prefetch_study -> Prefetch.Features.feature_set
  | Sched_study -> Sched.Priority.feature_set

let sort_of = function
  | Hyperblock_study | Regalloc_study | Sched_study -> `Real
  | Prefetch_study -> `Bool

let baseline_genome_of = function
  | Hyperblock_study -> Hyperblock.Baseline.genome
  | Regalloc_study -> Regalloc.Features.baseline_genome
  | Prefetch_study -> Prefetch.Features.baseline_genome
  | Sched_study -> Sched.Priority.baseline_genome

(* Noise amplitude for the prefetch study: +/-1.5% multiplicative, well
   below attainable speedups, as the paper requires of a usable fitness
   signal. *)
let noise_of = function
  | Hyperblock_study | Regalloc_study | Sched_study -> None
  | Prefetch_study -> Some 0.015

let heuristics_with (kind : kind) (g : Gp.Expr.genome) : Compiler.heuristics =
  let base = Compiler.baseline ~prefetch:(kind = Prefetch_study) () in
  match (kind, g) with
  | (Hyperblock_study | Regalloc_study | Sched_study), Gp.Expr.Bool _
  | Prefetch_study, Gp.Expr.Real _ ->
    invalid_arg "Study.heuristics_with: genome sort mismatch"
  | Hyperblock_study, Gp.Expr.Real e -> { base with Compiler.hb_priority = e }
  | Regalloc_study, Gp.Expr.Real e -> { base with Compiler.ra_savings = e }
  | Sched_study, Gp.Expr.Real e -> { base with Compiler.sched_priority = e }
  | Prefetch_study, Gp.Expr.Bool e ->
    { base with Compiler.pf_confidence = Some e }

(* --- Run configuration ---------------------------------------------------- *)

(* One record for everything an experiment run shares: GP scale, machine
   override, pool shape, caches, supervision, and the two
   reference-vs-fast switches.  Built in one place by the CLI. *)
type config = {
  params : Gp.Params.t;
  machine : Machine.Config.t option;
  backend : Gp.Parmap.backend;
  jobs : int;
  cache_dir : string option;
  checkpoint_dir : string option;
  timeout_s : float option;
  retries : int;
  fast_sim : bool;
  compiled_eval : bool;
  remote : string option;  (* serve daemon socket path (--connect) *)
}

let default_config =
  {
    params = Gp.Params.scaled;
    machine = None;
    backend = `Fork;
    jobs = 1;
    cache_dir = None;
    checkpoint_dir = None;
    timeout_s = None;
    retries = 1;
    fast_sim = true;
    compiled_eval = true;
    remote = None;
  }

(* --- Served evaluation (metaopt serve) ------------------------------------ *)

(* The study shape a client ships to the evaluation daemon: enough for
   the far side to rebuild the identical evaluation closure.  The
   resolved machine rides along whole (it is pure data) so a --machine
   override on the client is honored by the daemon's workers. *)
type remote_desc = {
  rd_kind : kind;
  rd_benches : string list;
  rd_machine : Machine.Config.t;
  rd_fast_sim : bool;
  rd_compiled_eval : bool;
}

type remote_handle = {
  rh_eval : Benchmarks.Bench.dataset -> Evaluator.remote;
  rh_close : unit -> unit;
}

(* The serve client lives above this library (it needs studies to
   describe itself); it injects its dialer here at startup.  [Study]
   itself never dials — with no dialer registered, [remote] configs
   fail loudly. *)
let remote_dialer : (socket:string -> remote_desc -> remote_handle) option ref
    =
  ref None

let set_remote_dialer d = remote_dialer := Some d

let dial_remote ~socket desc =
  match !remote_dialer with
  | Some d -> d ~socket desc
  | None ->
    failwith
      "Study: config.remote is set but no serve client is registered \
       (Serve.Client.register () installs the dialer)"

(* --- Evaluation context -------------------------------------------------- *)

type context = {
  kind : kind;
  machine : Machine.Config.t;
  compiled_eval : bool;
  prepared : Compiler.prepared array;
  (* Baseline results per (case, dataset): cycles and output checksum. *)
  baseline_train : (float * int) array;
  baseline_novel : (float * int) array;
  (* Of the 2n baselines, how many the store answered and how many were
     compiled and simulated. *)
  baselines_loaded : int;
  baselines_measured : int;
  eval_train : Evaluator.t;
  eval_novel : Evaluator.t;
  sim : Simcache.t;
  remote : remote_handle option;
}

let noise_rng_of kind genome case =
  match noise_of kind with
  | None -> None
  | Some amp ->
    (* Deterministic per (genome, case) so memoized fitnesses are stable,
       but different candidates see different noise draws.  The Evaluator
       always passes the canonical genome here, which keeps the draw
       independent of evaluation order and worker count. *)
    let seed = Hashtbl.hash (genome, case) in
    Some (Random.State.make [| seed |], amp)

(* The profile, compile, simulate and summary-answer spans land in the
   [study.profile_s] / [study.compile_s] / [study.simulate_s] /
   [study.replay_s] histograms.  In a supervised
   (forked) pool they are recorded in the worker and die with it — the
   parent-side per-task latency from [Gp.Parmap] covers that path
   instead; the sequential path (tests, [-j 1], bench report) gets the
   full split.

   Compilation and simulation go through the [Simcache] fast paths: the
   passes before the genome's slot run once per bench, a candidate
   making already-seen decisions skips the passes after it,
   artifact-identical compilations share one noise-free measurement, and
   schedule-only variations retime the first run's cycle summary.  The noise
   jitter is layered on top here, per (genome, case), with the exact
   float operations the direct simulation would perform — so sharing is
   sound under noise and a candidate whose artifact equals the
   baseline's scores speedup exactly 1.0 in the noise-free studies. *)
let run_entry ?(compiled_eval = true) ~kind ~machine
    ~(prepared : Compiler.prepared array) ~(sim : Simcache.t)
    (g : Gp.Expr.genome) ~case ~(dataset : Benchmarks.Bench.dataset) :
    (float * int) * Simcache.entry option =
  let res, entry =
    Simcache.measure sim ~compiled_eval ~machine
      ~heuristics:(heuristics_with kind g) ~dataset prepared.(case)
  in
  let noise = noise_rng_of kind g case in
  ( ( Machine.Simulate.jittered ?noise res.Machine.Simulate.cycles,
      res.Machine.Simulate.checksum ),
    entry )

let run_raw ?compiled_eval ~kind ~machine ~prepared ~sim g ~case ~dataset =
  fst (run_entry ?compiled_eval ~kind ~machine ~prepared ~sim g ~case ~dataset)

(* Speedup over a precomputed baseline.  A candidate whose compiled
   program produces different output than the baseline is a
   compiler-correctness bug; it receives fitness 0 so evolution discards
   it (the paper: "Our system can also be used to uncover bugs!"). *)
let speedup_against ?compiled_eval ~kind ~machine ~prepared ~sim ~baselines g
    ~case ~dataset =
  let base_cycles, base_sum = baselines.(case) in
  let cycles, sum =
    run_raw ?compiled_eval ~kind ~machine ~prepared ~sim g ~case ~dataset
  in
  if sum <> base_sum then begin
    Logs.warn (fun m ->
        m "candidate heuristic broke %s (checksum mismatch)"
          prepared.(case).Compiler.bench.Benchmarks.Bench.name);
    0.0
  end
  else if cycles <= 0.0 then 0.0
  else base_cycles /. cycles

(* --- Daemon-side evaluation service --------------------------------------- *)

type service = {
  svc_n_cases : int;
  svc_case_name : int -> string;
  svc_eval : Benchmarks.Bench.dataset -> Gp.Expr.genome -> int -> float;
}

(* The named benches, prepared for [kind].  The prefetching study
   compiles without unrolling (ORC's prefetch phase runs on clean loop
   nests; unrolled loops defeat the induction-variable analysis exactly
   as they would ORC's). *)
let prepare_benches kind bench_names =
  let opt_config =
    match kind with
    | Prefetch_study -> Opt.Pipeline.no_unroll
    | Hyperblock_study | Regalloc_study | Sched_study -> Opt.Pipeline.default
  in
  Array.of_list
    (List.map
       (fun n -> Compiler.prepare ~opt_config (Benchmarks.Registry.find n))
       bench_names)

(* The evaluators' store namespace: everything a fitness depends on
   besides the genome and the case. *)
let scope_of kind (machine : Machine.Config.t) dataset =
  Printf.sprintf "%s/%s/%s" (kind_name kind) machine.Machine.Config.name
    (Benchmarks.Bench.dataset_name dataset)

(* A case's name in store keys: its bench name, and in a study with
   noise its index too, since [noise_rng_of] draws the jitter per
   (genome, index).  Noise-free values depend on the bench alone, so
   their stores stay shared across bench lists. *)
let store_case_name kind (prepared : Compiler.prepared array) i =
  let name = prepared.(i).Compiler.bench.Benchmarks.Bench.name in
  if noise_of kind = None then name else Printf.sprintf "%s#%d" name i

(* A context's baselines live in its store beside fitness: under the
   evaluators' scope and case name ([Evaluator.store_key]), with
   three reserved keys.  [Gp.Sexp.to_string] prints either one atom,
   which holds no space, or a list, which starts with '(', so these keys
   are never a canonical genome key and a baseline digest never equals
   a fitness digest.  The values are exact: the cycles as the store's
   hex float (prefetch baselines carry their noise jitter) and the
   63-bit checksum as two 32-bit halves, each exact in a float. *)
let baseline_keys =
  [ "baseline cycles"; "baseline checksum-hi"; "baseline checksum-lo" ]

let baseline_entries ~scope ~case_name (cycles, sum) =
  List.map2
    (fun key v -> (Evaluator.store_key ~scope ~case_name key, v))
    baseline_keys
    [ cycles; float_of_int (sum asr 32); float_of_int (sum land 0xffff_ffff) ]

(* A stored baseline, or [None] when any part is missing or is not a
   value [baseline_entries] writes: a miss, to be measured and appended
   again. *)
let find_baseline store ~scope ~case_name =
  let part key =
    Shardstore.find store (Evaluator.store_key ~scope ~case_name key)
  in
  let int_in lo hi v = Float.is_integer v && lo <= v && v < hi in
  match List.map part baseline_keys with
  | [ Some cycles; Some hi; Some lo ]
    when int_in (-0x1p30) 0x1p30 hi && int_in 0.0 0x1p32 lo ->
    Some (cycles, (int_of_float hi lsl 32) lor int_of_float lo)
  | _ -> None

(* What every evaluation of one study shape shares, built in one place
   for a local context and a daemon's service alike over its prepared
   benches: the baseline (cycles, checksum) per case on both datasets,
   and the [speedup_against] closure over them.

   With a [store], each baseline is first looked up there, and only the
   misses are measured; they are appended in one [Shardstore.append],
   so a context over a store that holds its baselines compiles and
   simulates nothing here.  The misses (cheap, one genome) run across
   [pool] like any other batch when one is given and more than one case
   of a dataset misses; a failed cell is then recomputed in-process
   because baselines must exist.  Otherwise they run in-process.  A
   forked child's simulation table dies with it, so each cell carries
   its run's entry back for this table, which a context's persistent
   evaluation workers then inherit. *)
let build ?pool ?store ~machine ~fast_sim ~compiled_eval kind prepared =
  let sim = Simcache.create ~enabled:fast_sim () in
  let base = baseline_genome_of kind in
  let case_name = store_case_name kind prepared in
  let fresh = ref [] in
  let baseline_for dataset =
    let scope = scope_of kind machine dataset in
    let stored =
      Array.init (Array.length prepared) (fun case ->
          Option.bind store (fun s ->
              find_baseline s ~scope ~case_name:(case_name case)))
    in
    let measure case =
      run_entry ~compiled_eval ~kind ~machine ~prepared ~sim base ~case
        ~dataset
    in
    let misses =
      Array.of_list
        (List.filter
           (fun case -> stored.(case) = None)
           (List.init (Array.length prepared) Fun.id))
    in
    let cells =
      match pool with
      | Some pool when Array.length misses > 1 ->
        Array.map2
          (fun case -> function
            | Gp.Parmap.Ok cell -> cell
            | Gp.Parmap.Crashed _ | Gp.Parmap.Timed_out | Gp.Parmap.Gave_up ->
              measure case)
          misses
          (fst (Gp.Parmap.run_supervised pool measure misses))
      | _ -> Array.map measure misses
    in
    Array.iter2
      (fun case (cell, entry) ->
        Option.iter (Simcache.adopt sim) entry;
        stored.(case) <- Some cell;
        fresh := (scope, case_name case, cell) :: !fresh)
      misses cells;
    Array.map Option.get stored
  in
  let baseline_train = baseline_for Benchmarks.Bench.Train in
  let baseline_novel = baseline_for Benchmarks.Bench.Novel in
  let measured = List.length !fresh in
  Option.iter
    (fun s ->
      Shardstore.append s
        (List.concat_map
           (fun (scope, case_name, cell) ->
             baseline_entries ~scope ~case_name cell)
           (List.rev !fresh)))
    store;
  Gp.Telemetry.incr ~by:measured "study.baselines_measured";
  Gp.Telemetry.incr ~by:((2 * Array.length prepared) - measured)
    "study.baselines_loaded";
  let speedup dataset g case =
    let baselines =
      match dataset with
      | Benchmarks.Bench.Train -> baseline_train
      | Benchmarks.Bench.Novel -> baseline_novel
    in
    speedup_against ~compiled_eval ~kind ~machine ~prepared ~sim ~baselines g
      ~case ~dataset
  in
  (sim, baseline_train, baseline_novel, measured, speedup)

(* The evaluation closure a daemon worker runs for one study shape —
   called with the client's canonical genome, never re-canonicalized, so
   a served result is bit-identical to the local one.  Baselines here
   run in-process: the caller IS a pool worker (or lazily building in
   the daemon parent) and must not nest pools. *)
let service_of ?machine:machine_override ?(fast_sim = true)
    ?(compiled_eval = true) (kind : kind) (bench_names : string list) :
    service =
  let machine = Option.value ~default:(machine_of kind) machine_override in
  let prepared = prepare_benches kind bench_names in
  let _, _, _, _, speedup =
    build ~machine ~fast_sim ~compiled_eval kind prepared
  in
  {
    svc_n_cases = Array.length prepared;
    svc_case_name =
      (fun i -> prepared.(i).Compiler.bench.Benchmarks.Bench.name);
    svc_eval = speedup;
  }

let service_of_desc (d : remote_desc) =
  service_of ~machine:d.rd_machine ~fast_sim:d.rd_fast_sim
    ~compiled_eval:d.rd_compiled_eval d.rd_kind d.rd_benches

let create_with (cfg : config) (kind : kind) (bench_names : string list) :
    context =
  let machine = Option.value ~default:(machine_of kind) cfg.machine in
  let compiled_eval = cfg.compiled_eval in
  let remote_h =
    Option.map
      (fun socket ->
        dial_remote ~socket
          {
            rd_kind = kind;
            rd_benches = bench_names;
            rd_machine = machine;
            rd_fast_sim = cfg.fast_sim;
            rd_compiled_eval = compiled_eval;
          })
      cfg.remote
  in
  (* One pool shape for the whole context: the baselines and both
     dataset evaluators.  With one job, and in served mode, where this
     process does no candidate evaluation, the baselines run in-process
     rather than spinning up workers just for them. *)
  let pool =
    Gp.Parmap.pool ~backend:cfg.backend ~jobs:cfg.jobs ?timeout_s:cfg.timeout_s
      ~retries:cfg.retries ()
  in
  (* One store handle for the whole context too: the baselines and both
     dataset evaluators read and append through it, so its shards load
     once.  Served, the daemon owns the store. *)
  let store =
    if remote_h = None then Option.map Shardstore.open_store cfg.cache_dir
    else None
  in
  (* A profile forced in a forked worker dies with the worker.  So a
     context that can fork profiles every bench here, before its
     baselines or either evaluator fork, and the workers inherit the
     profiles.  A context that runs in-process profiles a bench on its
     first compile, and one whose store answers everything never does. *)
  let prepared = prepare_benches kind bench_names in
  if remote_h = None && Evaluator.supervises pool then
    Array.iter Simcache.profile prepared;
  let sim, baseline_train, baseline_novel, measured, speedup =
    build
      ?pool:(if remote_h = None && cfg.jobs > 1 then Some pool else None)
      ?store ~machine ~fast_sim:cfg.fast_sim ~compiled_eval kind prepared
  in
  let evaluator_for dataset =
    Evaluator.create ~pool ?store
      ?remote:(Option.map (fun h -> h.rh_eval dataset) remote_h)
      ~fs:(feature_set_of kind)
      ~scope:(scope_of kind machine dataset)
      ~case_name:(store_case_name kind prepared)
      ~eval:(speedup dataset) ()
  in
  {
    kind;
    machine;
    compiled_eval;
    prepared;
    baseline_train;
    baseline_novel;
    baselines_loaded = (2 * Array.length prepared) - measured;
    baselines_measured = measured;
    eval_train = evaluator_for Benchmarks.Bench.Train;
    eval_novel = evaluator_for Benchmarks.Bench.Novel;
    sim;
    remote = remote_h;
  }

let faults (ctx : context) =
  Evaluator.merge_faults
    (Evaluator.faults ctx.eval_train)
    (Evaluator.faults ctx.eval_novel)

(* Shut down the persistent worker pools behind both dataset engines.
   The experiment drivers below call this on every exit path; contexts
   handed out by [create_with] directly are the caller's to close.  Safe
   to call twice, and a context remains usable afterwards (the next
   supervised batch spawns a fresh pool). *)
let close (ctx : context) =
  Evaluator.shutdown ctx.eval_train;
  Evaluator.shutdown ctx.eval_novel;
  (* Closing the served connection is equally non-final: the client
     handle redials on the next batch. *)
  Option.iter (fun h -> h.rh_close ()) ctx.remote

(* A raw, uncached single measurement (diagnostics and tests).  Note the
   noise draw is keyed on the genome exactly as given; the cached engines
   canonicalize first. *)
let speedup (ctx : context) (g : Gp.Expr.genome) ~case
    ~(dataset : Benchmarks.Bench.dataset) : float =
  let baselines =
    match dataset with
    | Benchmarks.Bench.Train -> ctx.baseline_train
    | Benchmarks.Bench.Novel -> ctx.baseline_novel
  in
  speedup_against ~compiled_eval:ctx.compiled_eval ~kind:ctx.kind
    ~machine:ctx.machine ~prepared:ctx.prepared ~sim:ctx.sim ~baselines g
    ~case ~dataset

let problem_of (ctx : context) : Gp.Evolve.problem =
  {
    Gp.Evolve.fs = feature_set_of ctx.kind;
    sort = sort_of ctx.kind;
    baseline = Some (baseline_genome_of ctx.kind);
    n_cases = Array.length ctx.prepared;
    case_name =
      (fun i -> ctx.prepared.(i).Compiler.bench.Benchmarks.Bench.name);
    evaluator = Evaluator.evolve_evaluator ctx.eval_train;
  }

(* --- Experiment drivers --------------------------------------------------- *)

(* Measure one fixed genome on every case of both datasets, through the
   cached engines (the train row is usually a cache hit from evolution's
   final scoring). *)
let measure_rows (ctx : context) (g : Gp.Expr.genome) :
    (string * float * float) list =
  let cases = List.init (Array.length ctx.prepared) Fun.id in
  let train = (Evaluator.evaluate_batch ctx.eval_train [| g |] ~cases).(0) in
  let novel = (Evaluator.evaluate_batch ctx.eval_novel [| g |] ~cases).(0) in
  List.map
    (fun i ->
      ( ctx.prepared.(i).Compiler.bench.Benchmarks.Bench.name,
        train.(i),
        novel.(i) ))
    cases

type specialization = {
  bench : string;
  train_speedup : float;
  novel_speedup : float;
  best_expr : string;
  history : Gp.Evolve.generation_stats list;
  faults : Evaluator.fault_stats;
}

(* One [kind = "run_summary"] record per experiment driver call: the
   aggregate a run's JSONL stream is read backwards from. *)
let emit_run_summary ~driver ~kind ~benches ~ctx ~elapsed_s ~evaluations
    ~best_expr ~best_fitness =
  if Gp.Telemetry.enabled () then begin
    let f = faults ctx in
    let merge_cache (a : Evaluator.cache_stats) (b : Evaluator.cache_stats) =
      Evaluator.
        {
          memo_hits = a.memo_hits + b.memo_hits;
          disk_hits = a.disk_hits + b.disk_hits;
          misses = a.misses + b.misses;
        }
    in
    let cs =
      merge_cache
        (Evaluator.cache_stats ctx.eval_train)
        (Evaluator.cache_stats ctx.eval_novel)
    in
    Gp.Telemetry.emit ~kind:"run_summary"
      [
        ("driver", Gp.Telemetry.String driver);
        ("study", Gp.Telemetry.String (kind_name kind));
        ( "benches",
          Gp.Telemetry.List
            (List.map (fun b -> Gp.Telemetry.String b) benches) );
        ("elapsed_s", Gp.Telemetry.Float elapsed_s);
        ("evaluations", Gp.Telemetry.Int evaluations);
        ("baselines_loaded", Gp.Telemetry.Int ctx.baselines_loaded);
        ("baselines_measured", Gp.Telemetry.Int ctx.baselines_measured);
        ("memo_hits", Gp.Telemetry.Int cs.Evaluator.memo_hits);
        ("disk_hits", Gp.Telemetry.Int cs.Evaluator.disk_hits);
        ("misses", Gp.Telemetry.Int cs.Evaluator.misses);
        ("faults_crashed", Gp.Telemetry.Int f.crashed);
        ("faults_timed_out", Gp.Telemetry.Int f.timed_out);
        ("faults_gave_up", Gp.Telemetry.Int f.gave_up);
        ("faults_retried", Gp.Telemetry.Int f.retried);
        (* Where the sequential-path time went: training profiles vs
           heuristic-dependent compilation vs full simulation vs summary
           answers, plus the simulation-sharing counters.
           [benches_profiled] counts the benches whose profile ran in
           this process. *)
        ( "profile_s",
          Gp.Telemetry.Float
            (Gp.Telemetry.Histogram.sum (Gp.Telemetry.histogram "study.profile_s")) );
        ( "benches_profiled",
          Gp.Telemetry.Int
            (Array.fold_left
               (fun n (p : Compiler.prepared) ->
                 if Lazy.is_val p.Compiler.prof then n + 1 else n)
               0 ctx.prepared) );
        ( "compile_s",
          Gp.Telemetry.Float
            (Gp.Telemetry.Histogram.sum (Gp.Telemetry.histogram "study.compile_s")) );
        ( "simulate_s",
          Gp.Telemetry.Float
            (Gp.Telemetry.Histogram.sum (Gp.Telemetry.histogram "study.simulate_s")) );
        ( "replay_s",
          Gp.Telemetry.Float
            (Gp.Telemetry.Histogram.sum (Gp.Telemetry.histogram "study.replay_s")) );
        ( "artifact_hits",
          Gp.Telemetry.Int (Simcache.stats ctx.sim).Simcache.artifact_hits );
        ( "decision_hits",
          Gp.Telemetry.Int (Simcache.stats ctx.sim).Simcache.decision_hits );
        ( "step_hits",
          Gp.Telemetry.Int (Simcache.stats ctx.sim).Simcache.step_hits );
        ("replayed", Gp.Telemetry.Int (Simcache.stats ctx.sim).Simcache.replays);
        ( "simulations",
          Gp.Telemetry.Int (Simcache.stats ctx.sim).Simcache.simulations );
        ("best_fitness", Gp.Telemetry.Float best_fitness);
        ("best_expr", Gp.Telemetry.String best_expr);
      ]
  end

(* Figure 4 / 9 / 13: evolve a priority function for one benchmark, then
   measure on the training and the novel datasets. *)
let specialize_with ?on_generation (cfg : config) (kind : kind)
    (bench : string) : specialization =
  let t0 = if Gp.Telemetry.enabled () then Gp.Telemetry.now_s () else 0.0 in
  let ctx = create_with cfg kind [ bench ] in
  Fun.protect
    ~finally:(fun () -> close ctx)
    (fun () ->
      let result =
        Gp.Evolve.run ~params:cfg.params ?on_generation
          ?checkpoint_dir:cfg.checkpoint_dir (problem_of ctx)
      in
      let train_speedup =
        Evaluator.evaluate ctx.eval_train result.Gp.Evolve.best 0
      in
      let novel_speedup =
        Evaluator.evaluate ctx.eval_novel result.Gp.Evolve.best 0
      in
      let best_expr =
        Gp.Sexp.to_string (feature_set_of kind)
          (Gp.Simplify.genome result.Gp.Evolve.best)
      in
      emit_run_summary ~driver:"specialize" ~kind ~benches:[ bench ] ~ctx
        ~elapsed_s:
          (if Gp.Telemetry.enabled () then Gp.Telemetry.now_s () -. t0 else 0.0)
        ~evaluations:result.Gp.Evolve.evaluations ~best_expr
        ~best_fitness:result.Gp.Evolve.best_fitness;
      {
        bench;
        train_speedup;
        novel_speedup;
        best_expr;
        history = result.Gp.Evolve.history;
        faults = faults ctx;
      })

type general = {
  best : Gp.Expr.genome;
  best_expr : string;
  train_rows : (string * float * float) list;  (* bench, train, novel *)
  history : Gp.Evolve.generation_stats list;
  faults : Evaluator.fault_stats;
}

(* Figure 6 / 11 / 15: evolve one priority function over a training suite
   with DSS, then measure every training benchmark on both datasets. *)
let evolve_general_with ?on_generation (cfg : config) (kind : kind)
    (benches : string list) : general =
  let t0 = if Gp.Telemetry.enabled () then Gp.Telemetry.now_s () else 0.0 in
  let ctx = create_with cfg kind benches in
  Fun.protect
    ~finally:(fun () -> close ctx)
    (fun () ->
      let result =
        Gp.Evolve.run ~params:cfg.params ?on_generation
          ?checkpoint_dir:cfg.checkpoint_dir (problem_of ctx)
      in
      let best_expr =
        Gp.Sexp.to_string (feature_set_of kind)
          (Gp.Simplify.genome result.Gp.Evolve.best)
      in
      let train_rows = measure_rows ctx result.Gp.Evolve.best in
      emit_run_summary ~driver:"evolve_general" ~kind ~benches ~ctx
        ~elapsed_s:
          (if Gp.Telemetry.enabled () then Gp.Telemetry.now_s () -. t0 else 0.0)
        ~evaluations:result.Gp.Evolve.evaluations ~best_expr
        ~best_fitness:result.Gp.Evolve.best_fitness;
      {
        best = result.Gp.Evolve.best;
        best_expr;
        train_rows;
        history = result.Gp.Evolve.history;
        faults = faults ctx;
      })

(* Figure 7 / 12 / 16: apply a fixed evolved priority function to a suite
   it was not trained on.  [cfg.params] and [cfg.checkpoint_dir] are
   ignored; no evolution happens here. *)
let cross_validate_with (cfg : config) (kind : kind) (g : Gp.Expr.genome)
    (benches : string list) : (string * float * float) list =
  let ctx = create_with cfg kind benches in
  Fun.protect ~finally:(fun () -> close ctx) (fun () -> measure_rows ctx g)
