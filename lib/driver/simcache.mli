(** Recorded decision steps, decision-keyed compilation and one table of
    measured runs.

    Most candidate heuristics make decisions, and compile to artifacts,
    the run has already measured.  {!measure} runs the passes before
    the pass under study once per bench and continues every candidate
    from a copy; when the later passes are a pure function of that
    pass's decisions ({!Compiler.decided}), a decision tier maps the
    decisions to the artifact's program digest and schedule lengths, so
    a repeat is answered without running the later passes.  With
    hyperblock formation under study, the decisions themselves come
    from the formation steps earlier candidates recorded, when every
    step is there ({!Compiler.walk_under}), so a tier hit compiles
    nothing at all.  Below it, one table holds every measured run under
    a run key: a digest of the canonical transformed program, its
    event-instruction order, bench + dataset and machine config.  An
    entry keeps the run's cycle summary ({!Machine.Simulate.summarize}),
    the schedule lengths it was simulated under and its noise-free
    result.  A lookup under the stored lengths shares that result (an
    artifact hit); under other lengths (the scheduling study) the
    summary is retimed ({!Machine.Simulate.retime}) and the stored run
    kept; a new key is simulated and stored.  Every path returns
    bit-identical cycles and checksums to a fresh compile and
    simulation; noise is never stored — layer
    {!Machine.Simulate.jittered} on top. *)

type stats = {
  mutable artifact_hits : int;
  mutable decision_hits : int;
      (** artifact hits whose keys came from the decision tier, without
          running the passes after the pass under study; a subset of
          [artifact_hits] *)
  mutable replays : int;  (** answers retimed from a stored summary *)
  mutable simulations : int;  (** full interpreter runs *)
  mutable step_hits : int;
      (** candidates whose decisions came from recorded steps, without
          running the pass under study to find them *)
}

type t

type entry
(** One measured run as the table holds it: its run key, cycle summary,
    schedule lengths and noise-free result; plain data, so it can cross
    a process boundary. *)

val create : ?enabled:bool -> ?max_artifacts:int -> unit -> t
(** [enabled = false] turns every {!measure} into a compile from
    scratch and every {!simulate} into a fresh reference-engine
    simulation — the golden slow path the fast paths are tested against.
    Table sizes are bounded: the runs, the decision tier and the
    recorded steps each reset at [max_artifacts] (default 8192), and
    each bench keeps at most two prefixes. *)

val stats : t -> stats

val simulate :
  t -> machine:Machine.Config.t -> dataset:Benchmarks.Bench.dataset ->
  Compiler.prepared -> Compiler.compiled -> Machine.Simulate.result
(** One noise-free measurement: the stored run's result when the
    schedule lengths are the ones it was simulated under (counted in
    [artifact_hits]), else its summary retimed (counted in [replays]),
    else a full simulation that stores the run.  Telemetry: bumps
    [evaluator.artifact_hits] / [study.replayed] counters and records
    [study.simulate_s] / [study.replay_s] spans. *)

val measure :
  t -> ?compiled_eval:bool -> machine:Machine.Config.t ->
  heuristics:Compiler.heuristics -> dataset:Benchmarks.Bench.dataset ->
  Compiler.prepared -> Machine.Simulate.result * entry option
(** Compile and measure through the recorded steps and the decision
    tier: the result {!simulate} gives on {!Compiler.compile}'s artifact
    (what runs when disabled), and the entry the table now holds for the
    artifact's run ([None] when disabled), for another table to
    {!adopt}.
    Records the compile work in [study.compile_s] spans; decisions found
    from recorded steps bump [evaluator.step_hits], and a decision-tier
    artifact hit bumps [evaluator.decision_hits]. *)

val adopt : t -> entry -> unit
(** Insert a run measured elsewhere — a forked pool child — as if this
    table had simulated it: later identical artifacts hit it, and later
    schedules of the same program retime its summary.  A no-op when
    disabled. *)
