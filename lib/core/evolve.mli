(** The evolutionary search driver (Figure 2 of the paper).

    Generic over the fitness evaluator: a {!problem} provides the feature
    set, the genome sort, an optional baseline seed, and a batch
    {!evaluator} returning the speedup of each candidate over the
    compiler's baseline heuristic on each requested case.  Fitness is the
    average speedup over the cases considered in a generation, the
    paper's Table 2 definition.

    The driver evaluates each population as one batch, so an evaluator
    backed by a process pool (see [Driver.Evaluator]) parallelizes a whole
    generation at once — the single-machine analogue of the paper's
    15-20 machine cluster. *)

(** A batch fitness engine.  Implementations are expected to memoize per
    (canonical genome, case) — each evaluation costs a compile-and-simulate
    cycle — and to return values through {!sanitize}: finite,
    non-negative, with any failure scoring 0 (the paper's "wrong output
    gets fitness 0" rule). *)
type evaluator = {
  evaluate_batch : Expr.genome array -> cases:int list -> float array array;
      (** [evaluate_batch pop ~cases] returns one row per genome, one
          column per case, in the order given. *)
  evaluations : unit -> int;
      (** Cumulative count of non-memoized evaluations performed. *)
}

val sanitize : float -> float
(** The result policy every evaluator applies: non-finite or
    non-positive fitness scores 0. *)

val evaluator_of_fn : (Expr.genome -> int -> float) -> evaluator
(** A sequential, memoizing evaluator over a per-(genome, case) fitness
    function, for tests and synthetic problems.  Memoization is keyed on
    the {!Simplify.genome}-canonical form, so semantically identical
    candidates share one evaluation; [f] is invoked on the canonical
    genome and must be a function of the genome's value.  Non-finite and
    negative results are clamped to 0. *)

type problem = {
  fs : Feature_set.t;
  sort : [ `Real | `Bool ];
  baseline : Expr.genome option;
  n_cases : int;                          (** training benchmarks *)
  case_name : int -> string;
  evaluator : evaluator;                  (** batch fitness engine *)
}

type individual = {
  genome : Expr.genome;
  mutable fitness : float;
  mutable size : int;
}

type generation_stats = {
  gen : int;
  best_fitness : float;
  mean_fitness : float;
  best_size : int;
  subset : int list;     (** cases evaluated this generation (DSS) *)
  best_expr : string;
}

type result = {
  best : Expr.genome;
  best_fitness : float;  (** mean speedup over all cases *)
  per_case : (string * float) array;
  history : generation_stats list;
  evaluations : int;     (** non-memoized fitness evaluations this run *)
}

val better : eps:float -> individual -> individual -> bool
(** Strictly-better ordering with parsimony pressure: higher fitness wins;
    ties within [eps] break towards the smaller expression. *)

val sample_distinct : Random.State.t -> n:int -> k:int -> int array
(** [k] distinct indices in [0, n) by rejection sampling — the sampler
    behind tournament selection, exported for testability.  The first
    draw of each position matches the with-replacement sampler's draw, so
    collision-free paths consume the RNG identically; requires
    [0 <= k <= n].

    @raise Invalid_argument when [k > n] or [k < 0]. *)

val run :
  ?params:Params.t -> ?on_generation:(generation_stats -> unit) ->
  ?checkpoint_dir:string -> problem -> result
(** Runs the evolution of Figure 2: seeded + ramped initial population,
    per-generation (DSS-chosen) batch fitness evaluation, tournament
    selection over the evaluated generation, bounded depth-fair
    crossover, mutation, elitism, and a final batch scoring of the
    population on the full training set.

    With [checkpoint_dir], the engine writes one versioned checkpoint
    file ([gen-NNNNN.ckpt]) per completed generation, atomically
    (tmp + rename): RNG state, population s-expressions, generation
    number, stats history and DSS state.  A later [run] over the same
    directory with the same params and problem shape resumes from the
    newest valid checkpoint, skipping completed generations and producing
    a bit-identical result to an uninterrupted run (evaluations are pure
    per (genome, case); only the [evaluations] counter, which restarts
    with the process, may differ).  Each file carries an integrity
    footer (magic, payload length, payload digest), so the loader
    distinguishes damage — a truncated or bit-rotted file, warned as
    corrupt — from a healthy checkpoint of another version or run
    configuration, warned as a mismatch; both are skipped (walking
    newest-first to the next older file) and counted in the
    [evolve.checkpoints_skipped] telemetry counter, and checkpoint I/O
    failures degrade to warnings and never abort the run.  One run
    configuration per directory: files are named by generation and will
    be overwritten.

    With {!Telemetry} enabled, the driver emits one [kind = "generation"]
    record per generation (fitness best/mean/std, genome size
    min/mean/max, cumulative evaluations, elapsed seconds) and observes
    per-generation wall clock in the [evolve.generation_s] histogram.
    None of it reads the RNG: a telemetered run is bit-identical to a
    silent one.

    @raise Invalid_argument if the problem has no training cases or
    [params.population_size < 1]. *)
