(** The three case studies, wired to the evolution driver.

    A study fixes the heuristic slot the genome occupies, the machine
    model (Table 3 / 32-register Table 3 / Itanium-like), and whether
    simulated measurement noise is injected (the paper's prefetching
    study ran on a real machine).  Fitness is the paper's definition:
    execution-time speedup over the compiler's baseline heuristic.  A
    candidate whose compiled program produces wrong output gets fitness 0
    — "our system can also be used to uncover bugs!".

    All candidate evaluation goes through the batch {!Evaluator} engine.
    Every experiment driver below takes one {!config} record — GP scale,
    pool shape, caches, supervision — built once, typically as
    [{ Study.default_config with ... }]. *)

type kind =
  | Hyperblock_study
  | Regalloc_study
  | Prefetch_study
  | Sched_study
      (** extension: the list scheduler's ranking, motivated by the
          paper's Section 2 *)

val kind_name : kind -> string
(** ["hyperblock" | "regalloc" | "prefetch" | "sched"]. *)

val machine_of : kind -> Machine.Config.t
val feature_set_of : kind -> Gp.Feature_set.t
val sort_of : kind -> [ `Real | `Bool ]
val baseline_genome_of : kind -> Gp.Expr.genome
val noise_of : kind -> float option

val heuristics_with : kind -> Gp.Expr.genome -> Compiler.heuristics
(** @raise Invalid_argument on a genome of the wrong sort. *)

(** One record for everything an experiment run shares: GP scale, machine
    override, {!Gp.Parmap} pool shape, caches, supervision, and the two
    reference-vs-fast switches.  Build it in one place (the CLI does) and
    hand it to the [_with] drivers. *)
type config = {
  params : Gp.Params.t;          (** GP scale (population, generations) *)
  machine : Machine.Config.t option;  (** [None] = the study's default *)
  backend : Gp.Parmap.backend;   (** pool flavor, default [`Fork] *)
  jobs : int;                    (** pool width, default 1 *)
  cache_dir : string option;
      (** persistent store of fitness and baselines, opened once per
          context *)
  checkpoint_dir : string option;  (** per-generation checkpointing *)
  timeout_s : float option;
      (** per-evaluation deadline: a kill on [`Fork], inert on
          [`Seq] *)
  retries : int;                 (** re-runs of a crashed/hung task *)
  fast_sim : bool;
      (** {!Simcache} fast paths, default on; off, every candidate is
          compiled from scratch and simulated by the reference engine *)
  compiled_eval : bool;
      (** evaluate heuristic expressions through the {!Gp.Evalc} bytecode
          compiler (default) rather than the {!Gp.Eval} tree-walker;
          fitness is bit-identical either way *)
  remote : string option;
      (** socket path of a [metaopt serve] daemon ([--connect]): cache
          misses are shipped there instead of any local pool, and
          [backend]/[jobs]/[cache_dir] stop applying to candidate
          evaluation (the daemon owns the pool and the store).  Requires
          the serve client's dialer to be registered (see
          {!set_remote_dialer}); results are bit-identical to a local
          run of the same study. *)
}

val default_config : config
(** Sequential [`Fork]-backed run at {!Gp.Params.scaled}, no caches, no
    deadline, 1 retry, fast-sim and compiled-eval on, not remote. *)

(** {1 Served evaluation}

    [lib/serve] sits above this library, so the client is injected: the
    daemon client registers a dialer once at startup and a [config] with
    [remote = Some socket] dials through it. *)

(** What a client ships to the daemon to identify a study shape: the
    resolved machine travels whole (pure data), so client-side [--machine]
    overrides are honored by the daemon's workers. *)
type remote_desc = {
  rd_kind : kind;
  rd_benches : string list;
  rd_machine : Machine.Config.t;
  rd_fast_sim : bool;
  rd_compiled_eval : bool;
}

type remote_handle = {
  rh_eval : Benchmarks.Bench.dataset -> Evaluator.remote;
      (** per-dataset miss dispatcher, plugged into the evaluators *)
  rh_close : unit -> unit;
      (** drop the connection; a later [rh_eval] redials *)
}

val set_remote_dialer : (socket:string -> remote_desc -> remote_handle) -> unit

(** The daemon-side evaluation closure for one study shape. *)
type service = {
  svc_n_cases : int;
  svc_case_name : int -> string;
  svc_eval : Benchmarks.Bench.dataset -> Gp.Expr.genome -> int -> float;
}

val service_of :
  ?machine:Machine.Config.t -> ?fast_sim:bool -> ?compiled_eval:bool ->
  kind -> string list -> service
(** Prepare the benchmarks, compute in-process baselines on both
    datasets, and return the exact evaluation pipeline a local context's
    engines would dispatch — {!create_with} builds its own through the
    same code.  Genomes passed to [svc_eval] must already be
    canonical (the client canonicalized before digesting); they are
    evaluated as given.  Safe to call lazily inside a pool worker — it
    spawns no pools of its own. *)

val service_of_desc : remote_desc -> service
(** {!service_of} over a wire-received description. *)

type context = {
  kind : kind;
  machine : Machine.Config.t;
  compiled_eval : bool;  (** how heuristic expressions are evaluated *)
  prepared : Compiler.prepared array;
  baseline_train : (float * int) array;  (** cycles, checksum per case *)
  baseline_novel : (float * int) array;
  baselines_loaded : int;
      (** baselines (of 2 per bench) the context's store answered *)
  baselines_measured : int;  (** baselines compiled and simulated *)
  eval_train : Evaluator.t;  (** cached batch engine, training dataset *)
  eval_novel : Evaluator.t;  (** cached batch engine, novel dataset *)
  sim : Simcache.t;  (** shared simulation cache: steps, tier, runs *)
  remote : remote_handle option;  (** the served connection, if any *)
}

val create_with : config -> kind -> string list -> context
(** Prepare the named benchmarks, find or measure the baseline on both
    datasets, and build one cached batch evaluator per dataset.  With
    [cache_dir], the store's one file is loaded once
    ({!Shardstore.open_store}) and that one handle serves the baselines
    and both evaluators: each
    baseline (cycles and output checksum, per dataset and bench) is
    looked up in the store first — fitness and baselines are keyed by
    bench name, and in the prefetch study, whose noise is drawn per
    case index, by the index too — only the misses are compiled and
    simulated, and they are appended in one write — so a context over a
    store that holds its baselines simulates nothing here
    ([baselines_loaded], [baselines_measured]).  Served contexts open no
    store.  Each bench's training profile ({!Compiler.prepared}) runs on
    its first compile, so a context whose store answers everything never
    profiles; the one exception is a context that can fork, which is
    one with no [remote] whose pool {!Evaluator.supervises}: it forces
    every profile here, before its baselines or either evaluator fork,
    so that no worker profiles again.  One {!Gp.Parmap.pool} is built from [backend], [jobs],
    [timeout_s] and [retries] and shared by the baselines and both
    evaluators: at [-jN] the baselines a dataset misses run as one
    supervised batch (a failed cell is recomputed in-process); with one
    job or one miss, and in served mode, they run in-process.  Each
    evaluator keeps a persistent worker pool alive
    across its batches (spawned lazily on first use); callers that
    build a context directly own its lifetime and should {!close} it —
    the [_with] experiment drivers below do so on every exit path.
    [timeout_s] and [retries] configure the evaluators' supervision
    (see {!Evaluator.create}): a candidate compile that hangs or crashes
    its worker is killed, retried, and ultimately scored 0 without
    poisoning the persistent cache.
    [fast_sim] (default true) enables the {!Simcache} fast paths —
    prefix reuse, the recorded hyperblock steps and the decision tier in
    compilation, the table of measured runs (shared results and retimed
    cycle summaries), and the closure-compiled interpreter;
    disabling it compiles every candidate from scratch and routes every
    measurement through a fresh reference-engine simulation.
    [compiled_eval] selects {!Gp.Evalc} bytecode (default) versus the
    {!Gp.Eval} tree-walker for heuristic expressions.  Results are
    bit-identical across all of these switches. *)

val faults : context -> Evaluator.fault_stats
(** Combined fault counters of both dataset evaluators. *)

val close : context -> unit
(** Shut down the persistent worker pools behind both dataset engines
    (see {!Evaluator.shutdown}).  Idempotent, and the context stays
    usable — a later supervised batch spawns a fresh pool.  The [_with]
    drivers call this themselves; only direct {!create_with} callers
    need to. *)

val speedup :
  context -> Gp.Expr.genome -> case:int ->
  dataset:Benchmarks.Bench.dataset -> float
(** A raw, uncached single measurement (diagnostics and tests); prefer
    the context's evaluators for anything repeated. *)

val problem_of : context -> Gp.Evolve.problem
(** The evolution problem over the context's training-dataset engine; no
    caller builds a raw per-(genome, case) closure anymore. *)

type specialization = {
  bench : string;
  train_speedup : float;
  novel_speedup : float;
  best_expr : string;
  history : Gp.Evolve.generation_stats list;
  faults : Evaluator.fault_stats;  (** infra failures during the run *)
}

val specialize_with :
  ?on_generation:(Gp.Evolve.generation_stats -> unit) ->
  config -> kind -> string -> specialization
(** Figures 4 / 9 / 13: evolve for a single benchmark, measure on both
    datasets.  [config.checkpoint_dir] enables per-generation
    checkpointing and resume, and [on_generation] is forwarded to the
    evolution loop (see {!Gp.Evolve.run}).  With {!Gp.Telemetry} enabled,
    emits one [kind = "run_summary"] record (evaluations, cache hit
    counts, fault counters, elapsed seconds, best expression) at the end
    of the run, as does {!evolve_general_with}; it also carries the
    context's [baselines_loaded] and [baselines_measured], the seconds
    spent in training profiles ([profile_s]) and how many of the
    context's benches were profiled in this process
    ([benches_profiled]). *)

type general = {
  best : Gp.Expr.genome;
  best_expr : string;
  train_rows : (string * float * float) list;  (** bench, train, novel *)
  history : Gp.Evolve.generation_stats list;
  faults : Evaluator.fault_stats;  (** infra failures during the run *)
}

val evolve_general_with :
  ?on_generation:(Gp.Evolve.generation_stats -> unit) ->
  config -> kind -> string list -> general
(** Figures 6 / 11 / 15: one priority function over a training suite with
    dynamic subset selection.  [config.checkpoint_dir] enables
    per-generation checkpointing and resume, and [on_generation] is
    forwarded to the evolution loop (see {!Gp.Evolve.run}). *)

val cross_validate_with :
  config -> kind -> Gp.Expr.genome -> string list ->
  (string * float * float) list
(** Figures 7 / 12 / 16: a fixed evolved function applied to benchmarks
    it was not trained on.  [config.params] and [config.checkpoint_dir]
    are ignored — no evolution happens here. *)
