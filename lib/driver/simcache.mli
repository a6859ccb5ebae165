(** Artifact-keyed simulation sharing and trace replay.

    Most candidate heuristics compile to artifacts the run has already
    measured.  This cache keys noise-free simulation results on a digest
    of everything cycle-relevant (canonical transformed program,
    event-instruction order, bench + dataset, machine config, schedule
    lengths) so identical artifacts share one simulation.  A program
    simulated a second time has its dynamic-event trace recorded, and
    recent traces are kept, so further artifacts that differ only in
    schedule lengths (the scheduling study) are re-timed by replaying the
    event array instead of re-interpreting.  Both paths
    return bit-identical cycles and checksums to a fresh simulation;
    noise is never stored — layer {!Machine.Simulate.jittered} on top. *)

type stats = {
  mutable artifact_hits : int;
  mutable replays : int;
  mutable simulations : int;  (** full interpreter runs *)
}

type t

type entry
(** One artifact's keys and noise-free result, as a table holds it;
    plain data, so it can cross a process boundary. *)

val create :
  ?enabled:bool -> ?max_artifacts:int -> ?max_traces:int ->
  ?max_trace_events:int -> unit -> t
(** [enabled = false] turns every {!simulate} into a fresh
    reference-engine simulation — the golden slow path the fast paths
    are tested against.  Table sizes are bounded: artifacts reset at
    [max_artifacts] (default 8192), traces evict oldest-first past
    [max_traces] (default 8), and the set of trace keys simulated once
    resets at [max_artifacts].  [max_trace_events] caps the per-trace
    event budget (default {!Machine.Trace.default_max_events}); a run
    that overflows it is still measured exactly but yields no stored
    trace — incomplete traces never enter the table. *)

val stats : t -> stats

val trace_key :
  dataset:Benchmarks.Bench.dataset -> Compiler.prepared -> Compiler.compiled ->
  string
(** Digest identifying the dynamic event stream: canonical program (each
    block's instructions sorted by scheduling-invariant id) plus the
    actual program order of event-emitting instructions, bench and
    dataset.  Exposed for tests. *)

val artifact_key : machine:Machine.Config.t -> string -> int array -> string
(** [artifact_key ~machine trace_key schedule_cycles]: the result-sharing
    key; same key implies the same noise-free simulation result. *)

val store_trace : t -> string -> Machine.Trace.t -> unit
(** Insert a recorded trace under its trace key, evicting oldest-first
    past the table bound.  Exposed for tests.
    @raise Invalid_argument on an incomplete trace — an overflowed event
    stream must never be replayed. *)

val simulate :
  t -> machine:Machine.Config.t -> dataset:Benchmarks.Bench.dataset ->
  Compiler.prepared -> Compiler.compiled -> Machine.Simulate.result
(** One noise-free measurement, through artifact sharing, then trace
    replay, then a full simulation — recording its trace only when the
    trace key was simulated before.  Telemetry: bumps
    [evaluator.artifact_hits] / [study.replayed] counters and records
    [study.simulate_s] / [study.replay_s] spans. *)

val simulate_entry :
  t -> machine:Machine.Config.t -> dataset:Benchmarks.Bench.dataset ->
  Compiler.prepared -> Compiler.compiled ->
  Machine.Simulate.result * entry option
(** {!simulate}, also returning the entry the table now holds for the
    artifact ([None] when disabled), for another table to {!adopt}. *)

val adopt : t -> entry -> unit
(** Insert an entry measured elsewhere — a forked pool child — as if
    this table had simulated it: later identical artifacts hit it, and
    its trace key counts as seen once.  A no-op when disabled. *)
