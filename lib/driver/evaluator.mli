(** The parallel, cached fitness engine behind {!Gp.Evolve.evaluator}.

    A batch request is served in four steps:

    + every genome is canonicalized through {!Gp.Simplify} and keyed by
      its printed canonical form, so semantically identical candidates —
      crossover products that reduce to an already-seen expression —
      share one compile;
    + (key, case) pairs already known to the in-memory memo or the
      optional on-disk cache are answered without compiling;
    + the remaining unique tasks run on one persistent
      {!Gp.Parmap.handle}, created on the first batch: the engine's
      pool whenever it is supervised ([`Fork] with more than one job or
      a [timeout_s]), else a [`Seq] handle, in-process.  A supervised
      handle's workers stay resident for the engine's lifetime, keeping
      warm state (decoded layout artifacts, simulation-cache entries)
      between batches; a worker that crashes or exceeds the wall-clock
      deadline has its slot respawned and the task retried (exponential
      backoff) without disturbing the rest of the pool;
    + fresh results are folded back into both caches.

    The fault model separates candidate failures from infrastructure
    failures.  A candidate whose compiled program produces wrong output
    or non-finite cycles {e returns} 0 from [eval] — a real, cacheable
    result.  An evaluation that crashes its worker, times out, or
    exhausts its retries {e scores} 0 so evolution discards it, is
    counted in {!fault_stats}, is memoized for this run only, and is
    never written to the disk cache — a transient OOM or hang must not
    poison future runs.  Only real results increment {!evaluations}.

    The on-disk cache is a {!Shardstore}: a content-addressed store
    keyed by a digest of (scope, case name, canonical expression)
    ({!store_key}), kept in one append-only file under one advisory
    [lockf].  It survives across runs and is shared by any study
    pointing at the same directory; each batch's fresh results go out
    in one locked write, so torn interleavings are impossible.  Loading
    validates every line (32-hex digest, finite value) and {e compacts}
    a file holding torn or superseded lines in place, counting the
    dropped lines as evictions.  A {e failed} append (ENOSPC, EACCES, a
    revoked mount) degrades the store to memo-only operation: one
    warning, an [evaluator.cache_write_errors] telemetry count, no
    further appends ({!Shardstore.degraded}), and never an abort — a
    full disk must not kill a week-long campaign.

    With {!Gp.Telemetry} enabled, every batch emits one [kind = "cache"]
    record (memo/disk hit counts, misses, hit rate, evaluations, faults,
    wall clock) and feeds the [evaluator.batch_s] histogram; cumulative
    classification is also available in-process via {!cache_stats}. *)

type t

(** Counts of evaluation-level faults since {!create}: tasks whose final
    outcome was a crash, a timeout, or retry exhaustion, plus the number
    of retry attempts made.  Faulted tasks score fitness 0 but are not
    evaluations and are not persisted. *)
type fault_stats = {
  crashed : int;
  timed_out : int;
  gave_up : int;
  retried : int;
}

val merge_faults : fault_stats -> fault_stats -> fault_stats

(** Request-level cache classification accumulated over this engine's
    lifetime, counted once per (genome, case) request at batch-collection
    time: answered by the in-memory memo, by the on-disk cache, or
    needing a fresh evaluation. *)
type cache_stats = { memo_hits : int; disk_hits : int; misses : int }

val cache_stats : t -> cache_stats

val total_faults : fault_stats -> int
(** [crashed + timed_out + gave_up] (retries are attempts, not tasks). *)

val sanitize : float -> float
(** The engine's result policy, {!Gp.Evolve.sanitize}: non-finite or
    non-positive fitness scores 0.  Exposed so the serve daemon stores
    exactly what a local engine would. *)

type remote =
  (string * Gp.Expr.genome * int) array -> float Gp.Parmap.outcome array
(** A remote dispatcher for served evaluation ([metaopt serve]): called
    with every cache miss of a batch as [(digest, canonical genome,
    case)] — [digest] is exactly the persistent store key this engine
    would use locally, so the far side can share hits across clients —
    and must return one outcome per task, in order.  The far side
    evaluates the canonical genome as sent (re-canonicalizing would
    perturb noise seeding and break the served-vs-local determinism
    contract).  Non-[Ok] outcomes are recorded as infrastructure faults
    exactly as a local pool's would be. *)

val store_key : scope:string -> case_name:string -> string -> string
(** [store_key ~scope ~case_name key] is the store digest of [key] on
    the case named [case_name] under [scope]: what an engine created
    with that [scope] reads and writes for a canonical genome key.
    {!Study} files each context's baselines under the same digests with
    reserved keys that no canonical genome key can equal. *)

val create :
  ?pool:Gp.Parmap.pool ->
  ?store:Shardstore.t ->
  ?remote:remote ->
  fs:Gp.Feature_set.t ->
  scope:string ->
  case_name:(int -> string) ->
  eval:(Gp.Expr.genome -> int -> float) ->
  unit -> t
(** [create ~pool ~store ~fs ~scope ~case_name ~eval ()]
    builds an engine over the raw single evaluation [eval] (one
    compile-and-simulate cycle; called on the canonical genome, in a
    worker process when supervised, so it must not rely on observable
    global mutation).  [pool] (default [Gp.Parmap.pool ()]: [`Fork], one
    job, no deadline, one retry) is the {!Gp.Parmap.pool} the engine's
    misses run on: its backend ([`Fork] for per-task fault isolation and
    kill-based deadlines, [`Seq] for the in-process sequential
    reference), its width, its per-evaluation [timeout_s] and its
    [retries] (how many times a crashed or hung evaluation is re-run
    before being abandoned).  [store] is the persistent cache, an open
    {!Shardstore} handle the caller owns and may share: a study context
    opens one per [--cache-dir] and hands it to both dataset engines
    and its baselines, so a failed write degrades it for all three
    ({!Shardstore.degraded}).  [scope] namespaces that store — include
    everything the fitness depends on besides the genome and case:
    study, machine, dataset.  [case_name] names each case in store keys
    and fault warnings, so it must tell apart any two cases whose
    fitness can differ: a study with per-case noise names the case's
    index as well as its bench.
    Results are sanitized: non-finite or negative values score 0.  With
    one job and no [timeout_s] (or [`Seq]), evaluation runs on a
    [`Seq] handle, sequential and in-process (side effects of [eval]
    remain observable; a raising [eval] is recorded as a crash
    fault).
    With [remote] (see {!type:remote}), misses are shipped to the
    dispatcher instead of any local pool — [eval] is then never called
    and no worker pool is spawned; the memo and hit accounting work
    unchanged. *)

val supervises : Gp.Parmap.pool -> bool
(** Whether an engine over [pool] runs its misses in supervised forked
    workers rather than in-process: [`Fork] where fork is available,
    with more than one job or a [timeout_s]. *)

val faults : t -> fault_stats
(** Fault counters accumulated over this engine's lifetime. *)

val evaluate_batch :
  t -> Gp.Expr.genome array -> cases:int list -> float array array
(** One row per genome, one column per case, in the order given. *)

val evaluate : t -> Gp.Expr.genome -> int -> float
(** A batch of one; same caching and sanitization. *)

val evaluations : t -> int
(** Non-memoized evaluations that produced a real result so far (disk
    hits and faulted tasks don't count). *)

val evolve_evaluator : t -> Gp.Evolve.evaluator
(** The engine as an {!Gp.Evolve.evaluator}, for {!Gp.Evolve.problem}. *)

val shutdown : t -> unit
(** Tear down the engine's pool handle and its workers, if any were
    spawned (see {!Gp.Parmap.shutdown}).  Idempotent; a later batch
    creates a fresh handle.  Caches and counters are unaffected. *)
