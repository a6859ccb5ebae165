(** Decision-keyed compilation, artifact-keyed simulation sharing and
    trace replay.

    Most candidate heuristics make decisions, and compile to artifacts,
    the run has already measured.  {!measure} runs the passes before
    the pass under study once per bench and continues every candidate
    from a copy; when the later passes are a pure function of that
    pass's decisions ({!Compiler.decided}), a decision tier maps the
    decisions to the artifact's program digest and schedule lengths, so
    a repeat is answered without running the later passes.  Below it,
    this cache keys noise-free simulation results on a digest of
    everything cycle-relevant (canonical transformed program,
    event-instruction order, bench + dataset, machine config, schedule
    lengths) so identical artifacts share one simulation.  A program
    simulated a second time has its dynamic-event trace recorded, and
    recent traces are kept, so further artifacts that differ only in
    schedule lengths (the scheduling study) are re-timed by replaying the
    event array instead of re-interpreting.  Every path returns
    bit-identical cycles and checksums to a fresh compile and
    simulation; noise is never stored — layer
    {!Machine.Simulate.jittered} on top. *)

type stats = {
  mutable artifact_hits : int;
  mutable decision_hits : int;
      (** artifact hits whose keys came from the decision tier, without
          running the passes after the pass under study; a subset of
          [artifact_hits] *)
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
(** [enabled = false] turns every {!measure} into a compile from
    scratch and every {!simulate} into a fresh reference-engine
    simulation — the golden slow path the fast paths are tested against.
    Table sizes are bounded: artifacts reset at [max_artifacts] (default
    8192), traces evict oldest-first past [max_traces] (default 8), the
    set of trace keys simulated once and the decision tier reset at
    [max_artifacts], and each bench keeps at most two prefixes.
    [max_trace_events] caps the per-trace event budget (default
    {!Machine.Trace.default_max_events}); a run that overflows it is
    still measured exactly but yields no stored trace — incomplete
    traces never enter the table. *)

val stats : t -> stats

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

val measure :
  t -> ?compiled_eval:bool -> machine:Machine.Config.t ->
  heuristics:Compiler.heuristics -> dataset:Benchmarks.Bench.dataset ->
  Compiler.prepared -> Machine.Simulate.result * entry option
(** Compile and measure through the decision tier: the result {!simulate}
    gives on {!Compiler.compile}'s artifact (what runs when disabled),
    and the entry the table now holds for the artifact ([None] when
    disabled), for another table to {!adopt}.  Records the compile work
    in [study.compile_s] spans; a decision-tier artifact hit also bumps
    [evaluator.decision_hits]. *)

val adopt : t -> entry -> unit
(** Insert an entry measured elsewhere — a forked pool child — as if
    this table had simulated it: later identical artifacts hit it, and
    its trace key counts as seen once.  A no-op when disabled. *)
