(** Deterministic fault injection.

    A {!plan} names instrumented sites in the supervised pool, the
    evaluator's disk cache, and the checkpoint writer, and says which
    {!fault} to inject at which key/attempt.  Plans are armed globally
    ({!arm}/{!disarm}); with none armed every instrumented site costs a
    single atomic load.  Plans derived from a seed ({!seeded}) inject
    only recoverable faults, which is what the [chaos_vs_clean] fuzz
    oracle and [metaopt chaos] exercise: a run under such a plan must
    be bit-identical to the fault-free run. *)

type fault =
  | Hang  (** never return: forces the supervisor's SIGKILL *)
  | Slow of float
      (** nap this many seconds — killed with its worker when the nap
          outlives the deadline *)
  | Raise of string  (** the task raises [Failure msg] *)
  | Exit of int  (** forked worker exits without replying *)
  | Kill of int  (** forked worker sends itself this signal *)
  | Torn_write  (** write site: emit a torn, partial record *)
  | Truncated  (** write site: truncate the finished artifact *)

val fault_to_string : fault -> string

val fault_of_string : string -> fault option
(** Inverse of {!fault_to_string}: accepts [hang], [slow:S], [raise:MSG],
    [exit:N], [kill:SIG], [torn], [truncate]. *)

(** {1 Sites} *)

val site_parmap_task : string
(** ["parmap.task"] — around one task attempt in a supervised forked
    worker (key = task index, attempt = 1-based attempt). *)

val site_cache_write : string
(** ["evaluator.cache_write"] — before the evaluator's disk-cache
    append (key = the store handle's 1-based append number). *)

val site_cache_lock : string
(** ["evaluator.cache_lock"] — around the store's [lockf] guarding a
    disk-cache append (key = the same store-wide append counter as
    {!site_cache_write}).  [raise:eintr] interrupts the first lock wait
    with EINTR (must be retried, not written through unlocked); any
    other [raise:MSG] is a persistent lock failure (the append must be
    skipped, never performed unlocked). *)

val site_checkpoint_write : string
(** ["evolve.checkpoint_write"] — after a checkpoint file lands (key =
    the checkpoint's next_gen). *)

val sites : string list

(** {1 Plans} *)

type rule = {
  r_site : string;
  r_key : int option;  (** [None] matches any key *)
  r_attempt : int option;  (** 1-based; [None] matches any attempt *)
  r_fault : fault;
}

type plan = { rules : rule list }

val plan_to_string : plan -> string
(** Rules as [SITE[:KEY][@ATTEMPT]=FAULT], comma-joined — the syntax of
    [metaopt chaos --plan]. *)

val plan_of_string : string -> (plan, string) result

val seeded : seed:int -> plan
(** The deterministic recoverable plan for [seed]: a first-attempt
    over-deadline [Slow] on one task, fast first-attempt failures on the
    rest, one torn cache append and one truncated checkpoint.  Any run
    with [retries >= 1] absorbs all of it. *)

(** {1 Arming and firing} *)

val arm : plan -> unit
val disarm : unit -> unit
val armed : unit -> plan option

val fire : site:string -> key:int -> attempt:int -> fault option
(** The matched fault for this pass of an instrumented site, if any
    rule of the armed plan applies (first match wins).  Records the hit
    in the in-process counters. *)

val fired : site:string -> key:int -> int
(** How many times {!fire} matched at (site, key) in this process —
    meaningful for parent-side write sites; forked children count in
    their own copy (use {!Ledger} there). *)

val reset_counts : unit -> unit

val trigger : fault -> unit
(** Act on a task fault: hang, nap, raise, exit, or self-kill.
    [Exit]/[Kill] end the calling process, so trigger them only in a
    disposable forked worker.  [Torn_write] and [Truncated] are
    writer-interpreted and no-ops here. *)

val task_point : key:int -> attempt:int -> unit
(** {!fire} + {!trigger} at {!site_parmap_task} — the one call a
    supervised worker makes around a task attempt. *)

(** Filesystem attempt ledger, promoted from the old test harness: one
    byte appended per attempt to a per-task file, so attempt counts
    survive forked workers and are visible from any process. *)
module Ledger : sig
  val fresh_dir : string -> string
  (** A fresh empty directory under the system temp dir, tagged and
      pid-stamped. *)

  val cleanup : string -> unit

  val record_attempt : string -> int -> int
  (** [record_attempt dir task] logs one attempt and returns its
      1-based number. *)

  val attempts : string -> int -> int

  val wrap :
    dir:string ->
    plan:(int -> int -> fault option) ->
    (int -> 'a) ->
    int ->
    'a
  (** [wrap ~dir ~plan f task] records the attempt, triggers
      [plan task attempt] when it yields a fault, then computes
      [f task]. *)
end
