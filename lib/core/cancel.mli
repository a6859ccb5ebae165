(** Cooperative per-task cancellation for the domains pool.

    A domain cannot be killed, so deadlines in the [`Domains] backend
    are enforced cooperatively: {!Parmap}'s supervisor installs a
    {!token} (atomic flag + absolute wall-clock deadline) around each
    task attempt, the evaluation stack's hot loops poll it at cheap
    safepoints — the interpreter's block loop, [Evalc]'s batch chunks,
    and the [Eval] tree-walker's fuel counter — and a poll past the
    deadline raises {!Cancelled}, which the supervisor maps to a
    [Timed_out] outcome.

    Outside any supervised task the current token is the shared
    {!never}, whose poll is one atomic load and one float compare; the
    clock is only read when a real deadline is set.  Polling therefore
    never changes results — a clean run with no deadline is
    bit-identical with or without safepoints. *)

exception Cancelled
(** Raised by {!check}/{!tick} once the current token is cancelled or
    past its deadline.  Task code should let it propagate: the domains
    supervisor catches it at the task boundary. *)

type token

val never : token
(** The inert token: never cancelled, no deadline.  It is the initial
    current token of every domain. *)

val create : ?deadline_s:float -> unit -> token
(** A fresh token, with an absolute deadline [deadline_s] seconds from
    now when given.  @raise Invalid_argument on a non-positive
    deadline. *)

val active : token -> bool
(** [false] exactly for {!never} — lets hot loops skip even the cheap
    poll when no supervision is installed. *)

val cancel : token -> unit
(** Flag the token cancelled (idempotent; a no-op on {!never}).  Safe
    from any domain. *)

val cancelled : token -> bool
(** Whether the token is flagged or past its deadline. *)

val check : token -> unit
(** @raise Cancelled when {!cancelled}. *)

val current : unit -> token
(** The calling domain's current token ({!never} outside any
    [with_token] scope).  Hot loops fetch it once per run and poll it
    every {!poll_interval} iterations. *)

val with_token : token -> (unit -> 'a) -> 'a
(** [with_token t f] runs [f] with [t] as the domain's current token,
    restoring the previous token on exit (including by exception). *)

val poll_interval : int
(** How many loop iterations a hot loop should run between two real
    {!check}s of its fetched token. *)

val tick : unit -> unit
(** Call-grained safepoint for code without a loop counter: spends one
    unit of a domain-local fuel counter and {!check}s the current token
    every [tick_interval] calls.  @raise Cancelled as {!check}. *)
