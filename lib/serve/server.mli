(** The [metaopt serve] evaluation daemon.

    A single-threaded event loop over a Unix-domain socket: framed
    requests (see {!Protocol}) from any number of study clients, one
    shared {!Driver.Shardstore} fitness store, one persistent
    {!Gp.Parmap} pool.  Store hits are answered immediately; misses
    from all clients coalesce into a bounded queue — identical digests
    collapse to one pending evaluation with many waiters — and drain
    through single [run_batch] dispatches.  Backpressure is typed
    ([Rejected]): a batch that would overflow [queue_cap], or a client
    above [inflight_cap], evaluates nothing.

    Telemetry (when enabled in the daemon process): [serve.requests],
    [serve.batched] (requests that shared a dispatch with others),
    [serve.queue_depth] (observed at each dispatch), [serve.rejected].

    Failure model: a {e client} that disappears forfeits its responses
    but its queued work still runs and lands in the store; the daemon
    never blocks on one client's socket.  On SIGTERM / SIGINT / [stop]
    the daemon stops accepting, answers everything queued (in-flight
    batches drain through the pool, results are persisted — the store
    is left compactable), flushes, shuts the pool down and unlinks the
    socket.  A stale socket file (no listener behind it) is detected by
    a connect probe at startup and removed; a {e live} one makes
    {!run} fail rather than fight an existing daemon. *)

type config = {
  socket : string;  (** Unix-domain socket path to listen on *)
  pool : Gp.Parmap.pool;  (** shared worker pool shape *)
  cache_dir : string option;  (** shared persistent store; [None] = memory *)
  queue_cap : int;  (** max queued evaluations, across all clients *)
  inflight_cap : int;  (** max unanswered Eval requests per client *)
  idle_timeout_s : float option;
      (** disconnect a client quiet this long with nothing in flight *)
  metrics_out : string option;
      (** write a one-line JSON counter summary here on shutdown *)
}

val default_config : socket:string -> config
(** Fork pool at 2 jobs with 1 retry, in-memory store, queue cap 4096,
    in-flight cap 8, no idle timeout. *)

val run : ?stop:(unit -> bool) -> config -> unit
(** Serve until SIGTERM / SIGINT (or [stop ()] turning true, polled once
    per loop pass), then drain gracefully and return.  The process's
    SIGTERM/SIGINT/SIGPIPE handlers are saved and restored.
    @raise Failure if the socket path is held by a live daemon or a
    non-socket file; @raise Invalid_argument on non-positive caps. *)
