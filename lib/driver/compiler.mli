(** The full compilation pipeline, parameterized by the three heuristics
    under study, mirroring the paper's Trimaran setup: scalar
    optimizations and unrolling, profiling, prefetch insertion,
    hyperblock formation, register allocation, VLIW scheduling and
    trace-driven simulation. *)

type heuristics = {
  hb_priority : Gp.Expr.rexpr;           (** hyperblock path priority *)
  ra_savings : Gp.Expr.rexpr;            (** regalloc per-block savings *)
  pf_confidence : Gp.Expr.bexpr option;  (** None = prefetching off *)
  sched_priority : Gp.Expr.rexpr;
      (** list-scheduling rank; an extension slot beyond the paper's three
          case studies (its Section 2 motivates it) *)
}

val baseline : ?prefetch:bool -> unit -> heuristics
(** The stock compiler: Equation (1), Equation (2), and (optionally)
    ORC's trip-count confidence. *)

(** A benchmark after the heuristic-independent work: lowering, scalar
    optimization, profiling on the training dataset.  Shared across all
    candidate heuristics via copy-on-compile. *)
type prepared = {
  bench : Benchmarks.Bench.t;
  optimized : Ir.Func.program;
  prof : Profile.Prof.t Lazy.t;
      (** the profile of [optimized] on the training dataset, collected
          on first force: hyperblock formation forces it, so the first
          {!compile} of the bench runs the profiling interpreter *)
}

val prepare :
  ?opt_config:Opt.Pipeline.config -> Benchmarks.Bench.t -> prepared
(** Lowering and scalar optimization run here; profiling is deferred to
    the first force of [prof].  A context whose every answer comes from
    a store therefore never profiles.

    Threads: [Lazy.force] raises [Lazy.Undefined] on a value another
    thread is forcing, so a prepared bench whose profile is unforced
    must not be shared across threads.  No library code does: the
    threads that share a process's prepared benches are served clients,
    whose contexts force them through their local baselines inside
    [Study.create_with], and daemon services, which force them through
    their in-process baselines. *)

type compiled = {
  prog : Ir.Func.program;
  layout : Profile.Layout.t;
  schedule_cycles : int array;
  hb_stats : Hyperblock.Form.stats;
  spills : int;
  prefetches : Prefetch.Insert.stats;
}

val compile :
  ?compiled_eval:bool -> machine:Machine.Config.t -> heuristics:heuristics ->
  prepared -> compiled
(** [run_before], then [run_under], then [run_after], with nothing
    cached.  [compiled_eval] (default [true]) evaluates all four
    heuristic expressions through the {!Gp.Evalc} bytecode compiler —
    each pass compiles its expression once and amortizes it over every
    decision point.  [~compiled_eval:false] routes every evaluation
    through the {!Gp.Eval} tree-walker instead, the bit-identical
    executable reference ([--no-compiled-eval] at the CLI). *)

(** {1 The staged pipeline}

    A study varies one heuristic slot.  The passes before that slot's
    pass see the same program for every candidate, and the passes after
    it are a pure function of the decisions it makes; {!Simcache.measure}
    reuses the first and keys the second on those decisions. *)

type pass = Prefetch | Hyperblock | Regalloc | Sched
(** The passes a heuristic slot steers, in pipeline order. *)

val pass_under_study : heuristics -> pass option
(** The first pass whose slot is not baseline, i.e. differs from its
    baseline expression ([pf_confidence = None] counts as baseline);
    [None] when every slot is. *)

val decided : heuristics -> bool
(** Whether the compiled artifact is a function of the prefix and the
    decisions [run_under] reports: every pass after the pass under study
    is baseline, and that pass is not [Sched] (whose decisions are the
    schedule itself, so it reports none). *)

(** What the pass under study decided in one function: everything the
    passes after it read of its work. *)
type decision =
  | Verdicts of bool array
      (** prefetch: the verdict on each eligible candidate, in candidate
          order ({!Prefetch.Insert.run_batched}) *)
  | Regions of Ir.Types.label list list
      (** hyperblock formation: the sorted selected labels of each
          attempted region, in attempt order ({!Hyperblock.Form.run}) *)
  | Spills of Ir.Types.reg list
      (** register allocation: the spilled registers as
          {!Regalloc.Alloc.insert_spills} takes them *)

type decisions = (string * decision) list
(** One entry per function, in program order, named by the function;
    a function with nothing to decide has an empty one.  Plain data:
    equal decisions are structurally equal. *)

type partial
(** A program part-way through the pipeline, with what the passes run
    on it so far reported. *)

val run_before :
  ?compiled_eval:bool -> machine:Machine.Config.t -> heuristics:heuristics ->
  prepared -> partial
(** The passes before the pass under study (the whole pipeline when
    there is none).  The result may share the prepared program; it is
    never mutated by the later stages. *)

val run_under :
  ?compiled_eval:bool ->
  ?record:(string -> Ir.Types.label list list -> Hyperblock.Form.step ->
           unit) ->
  machine:Machine.Config.t -> heuristics:heuristics -> prepared -> partial ->
  partial * decisions
(** A copy of the partial program through the pass under study, and the
    decisions that pass reports ([[]] when there is none, and for
    [Sched], which reports none); the argument is left untouched, so
    one [run_before] result serves every candidate.  Hyperblock
    formation also tells [record] every step it takes
    ({!Hyperblock.Form.run}). *)

val walk_under :
  ?compiled_eval:bool -> machine:Machine.Config.t -> heuristics:heuristics ->
  step:(string -> Ir.Types.label list list -> Hyperblock.Form.step option) ->
  partial -> decisions option
(** The decisions [run_under] would report, from recorded steps alone
    ({!Hyperblock.Form.walk}): nothing is copied, discovered, extracted
    or converted.  [None] unless hyperblock formation is the pass under
    study and [step] holds every step it would take. *)

val run_after :
  ?compiled_eval:bool -> machine:Machine.Config.t -> heuristics:heuristics ->
  prepared -> partial -> compiled
(** The passes after the pass under study, in place, then the block
    layout. *)

val simulate :
  ?noise:Random.State.t * float -> machine:Machine.Config.t ->
  dataset:Benchmarks.Bench.dataset -> prepared -> compiled ->
  Machine.Simulate.result
