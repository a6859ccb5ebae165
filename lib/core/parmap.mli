(** A task pool for fitness evaluation, behind a first-class backend API.

    The paper ran its fitness loop on a 15-20 machine cluster; this
    module is the single-machine analogue.  A {!pool} names a backend and
    carries every knob a batch needs:

    - [`Seq] runs in-process and sequentially — the bit-identity
      reference every parallel backend is tested against.
    - [`Fork] keeps pre-forked worker processes on pipes: full fault
      isolation (a segfaulting, hung or [kill -9]ed worker never takes
      the run down) and kill-based deadlines, at the cost of a
      [Marshal] round-trip per task.

    [`Fork] runs under one batch scheduler: dispatch, retries, deadlines
    and telemetry.  For pure tasks both backends produce bit-identical
    results at any job count: results are stored by task id, and task
    functions receive the same inputs regardless of scheduling. *)

type backend = [ `Seq | `Fork ]

val available : bool
(** Whether forking is supported on this platform.  When [false],
    [`Fork] degrades to the in-process path. *)

val capabilities : unit -> backend list
(** The backends usable on this platform: [[`Seq; `Fork]] when
    {!available}, else [[`Seq]]. *)

val backend_name : backend -> string
(** ["seq" | "fork"]. *)

val backend_of_name : string -> backend option
(** Inverse of {!backend_name}. *)

(** The one configuration record every pool entry point, [Evaluator],
    [Study] and the CLI share.  A failed attempt's retry backoff is a
    constant, not a field: it starts at 0.05s and doubles. *)
type pool = private {
  backend : backend;
  jobs : int;  (** pool width, [1..]{!max_jobs} *)
  timeout_s : float option;
      (** per-task deadline, enforced from the parent with SIGKILL on
          [`Fork] *)
  retries : int;  (** re-runs after crash/timeout on [`Fork] *)
}

val max_jobs : int
(** 256: the widest pool {!pool} accepts.  A wider one is a typo, not a
    machine: each job is a forked worker process. *)

val pool :
  ?backend:backend ->
  ?jobs:int ->
  ?timeout_s:float ->
  ?retries:int ->
  unit ->
  pool
(** Validating constructor (defaults: [`Fork], 1 job, no timeout, 1
    retry).  Rejects [jobs] outside [1..]{!max_jobs} — a zero or
    negative worker count is a configuration error, not a request for
    sequential execution — as well as non-positive [timeout_s] and
    negative [retries].  [`Seq] runs unsupervised, so a [timeout_s] or
    a deliberate [retries > 1] given with it is inert, and the first
    such pool in a process logs one warning saying so ([retries = 1] is
    the default and is not flagged).
    @raise Invalid_argument on any of the above. *)

val retry_eintr : (unit -> 'a) -> 'a
(** [retry_eintr f] runs [f], restarting it as long as it fails with
    [Unix.Unix_error (EINTR, _, _)].  Every blocking syscall in this
    module (reaping, pipe reads and writes) goes through it, so a signal
    delivered mid-call — SIGCHLD, an interval timer, a profiler — cannot
    misreport a healthy worker as lost.  Exported because callers doing
    their own [waitpid]/[read] around a pool need the same discipline. *)

val write_all : Unix.file_descr -> bytes -> unit
(** [write_all fd b] writes all of [b] to [fd], continuing after short
    writes and restarting interrupted ones ({!retry_eintr}).  The pool's
    task frames, the serve protocol's frames and the fitness store's
    appends all go out through it. *)

(** The outcome of one supervised task.

    - [Ok v]: some attempt returned [v].
    - [Crashed msg]: no retries were configured (or possible) and the
      attempt failed — the task raised, or its worker died ([msg] says
      how).
    - [Timed_out]: [retries = 0] and the single attempt exceeded
      [timeout_s] ([`Fork]).
    - [Gave_up]: [retries >= 1] and every one of the [1 + retries]
      attempts failed (each attempt's crash or timeout is logged and
      counted in {!stats}). *)
type 'b outcome = Ok of 'b | Crashed of string | Timed_out | Gave_up

(** Attempt-level telemetry for one supervised call: [completed] tasks
    returned a value; [crashes] and [timeouts] count {e attempts} (a task
    retried twice after crashing contributes 2 to [crashes]); [retries]
    counts rescheduled attempts. *)
type stats = { completed : int; crashes : int; timeouts : int; retries : int }

type ('a, 'b) handle
(** A long-lived worker pool bound to one task function.  Creating a
    handle is free; the workers are spawned lazily on the first
    {!run_batch} and then stay resident across batches: [`Fork] keeps
    pre-forked workers alive on pipes (the parent marshals one task
    down, the child writes one reply back).  Warm state
    in the workers — decoded layout artifacts, simulation-cache
    entries, anything the task function memoizes — survives from batch
    to batch instead of being re-derived per call, which is what makes
    the parallel path beat [-j1] on real workloads.  Worker death and
    deadline kills respawn the affected slot without
    disturbing the rest of the pool.  Handles are not thread-safe and
    {!run_batch} is not reentrant; drive one batch at a time. *)

val create : pool -> f:('a -> 'b) -> ('a, 'b) handle
(** [create pool ~f] binds a pool configuration to a task function.  No
    worker exists until the first {!run_batch}; the spawn cost is then
    recorded once under [parmap.pool_spawn_s] instead of polluting the
    queue-wait histogram.  On [`Fork], [f] is captured by the workers at
    that first batch via [fork], so warm parent state (caches, an armed
    chaos plan) is inherited; task inputs and results must be
    marshalable. *)

val run_batch : ('a, 'b) handle -> 'a array -> 'b outcome array * stats
(** [run_batch h xs] evaluates one batch on the handle's resident
    workers under exactly the fault model documented on
    {!run_supervised}; outcomes arrive in input order and [stats] covers
    this batch only.  An empty batch returns immediately without
    spawning anything.
    @raise Invalid_argument once the handle has been {!shutdown}. *)

val shutdown : ('a, 'b) handle -> unit
(** Tear the pool down.  [`Fork]: every worker's task pipe is closed
    first, so all of them see EOF and exit together; they are then
    reaped against one shared 0.5s grace, and only workers still running
    when it expires (wedged in a task) are SIGKILLed — a wedged pool
    costs one grace in total, not one per worker.  A healthy shutdown
    takes milliseconds and kills nothing; with {!Telemetry} enabled it
    is timed under [parmap.shutdown_s] and the kills are counted under
    [parmap.shutdown_kills], so a worker that misses its EOF shows up as
    a count.  (Every forked worker holds only fds 0-2 and its own two
    pipe ends, so no other worker or pool can keep its EOF from
    arriving.)  Idempotent; a fresh handle must be created to evaluate
    again. *)

val run_supervised :
  pool -> ('a -> 'b) -> 'a array -> 'b outcome array * stats
(** [run_supervised pool f xs] evaluates every task under the pool's
    fault model and returns typed outcomes in input order; no fallback
    value is ever invented.  Equivalent to {!create}, one {!run_batch}
    and a {!shutdown} — callers with more than one batch should hold a
    {!handle} instead and amortize the pool spawn.

    [`Fork]: the pool's resident worker processes, under a wall-clock
    deadline of [timeout_s] seconds per task, checked and enforced from
    the parent — a worker that hangs past it or dies is SIGKILLed or
    reaped, its slot respawned, and the task retried up to [retries]
    times with exponential backoff starting at 0.05s.  [f]'s side
    effects stay in the children, even at one job.  [`Seq] (and [`Fork]
    without fork support): exception isolation only, sequentially, with
    [f]'s side effects observable; deadlines and retries are inert
    there (see {!val:pool}).

    On [`Fork], tasks are queued in one FIFO and each idle worker takes
    the next one; a task's deadline runs from its own dispatch, and a
    failed task alone is charged and re-queued after its backoff.
    Deterministic for pure [f]: outcomes depend only on [f] and [xs] —
    not on scheduling — because results are reassembled in input order.

    With {!Telemetry} enabled, every batch on the [`Fork] backend emits
    one [kind = "pool"] record (carrying ["backend"] and ["dispatch_s"]
    fields) and observes per-task latency ([parmap.task_s],
    dispatch-to-reply), queue wait ([parmap.queue_wait_s],
    enqueue-to-dispatch only — worker spawn cost is recorded separately
    under [parmap.pool_spawn_s] when a handle first populates its pool)
    and per-batch dispatch overhead ([parmap.dispatch_s]).  Forked
    workers drop the inherited sink, so worker-side records never
    interleave into the parent's stream. *)
