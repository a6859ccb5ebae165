(** Recorded decision steps, decision-keyed compilation, artifact-keyed
    simulation sharing and cycle summaries.

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
    nothing at all.  Below it, this cache keys noise-free simulation
    results on a digest of everything cycle-relevant (canonical
    transformed program, event-instruction order, bench + dataset,
    machine config, schedule lengths) so identical artifacts share one
    simulation.  Every
    simulation also keeps its run's cycle summary
    ({!Machine.Simulate.summarize}) under the same digest minus the
    schedule lengths, so a further artifact that differs only in
    schedule lengths (the scheduling study) is answered by
    {!Machine.Simulate.retime} instead of re-interpreting.  A lookup
    tries the artifact table, then the summaries, then simulates.  Every
    path returns bit-identical cycles and checksums to a fresh compile
    and simulation; noise is never stored — layer
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
(** One artifact's keys, noise-free result and cycle summary, as a table
    holds it; plain data, so it can cross a process boundary. *)

val create : ?enabled:bool -> ?max_artifacts:int -> unit -> t
(** [enabled = false] turns every {!measure} into a compile from
    scratch and every {!simulate} into a fresh reference-engine
    simulation — the golden slow path the fast paths are tested against.
    Table sizes are bounded: the artifacts, the summaries, the decision
    tier and the recorded steps each reset at [max_artifacts] (default
    8192), and each bench keeps at most two prefixes. *)

val stats : t -> stats

val simulate :
  t -> machine:Machine.Config.t -> dataset:Benchmarks.Bench.dataset ->
  Compiler.prepared -> Compiler.compiled -> Machine.Simulate.result
(** One noise-free measurement, through artifact sharing, then a stored
    summary retimed (counted in [replays]), then a full simulation that
    stores its summary.  Telemetry: bumps [evaluator.artifact_hits] /
    [study.replayed] counters and records [study.simulate_s] /
    [study.replay_s] spans. *)

val measure :
  t -> ?compiled_eval:bool -> machine:Machine.Config.t ->
  heuristics:Compiler.heuristics -> dataset:Benchmarks.Bench.dataset ->
  Compiler.prepared -> Machine.Simulate.result * entry option
(** Compile and measure through the recorded steps and the decision
    tier: the result {!simulate} gives on {!Compiler.compile}'s artifact
    (what runs when disabled), and the entry the table now holds for the
    artifact ([None] when disabled), for another table to {!adopt}.
    Records the compile work in [study.compile_s] spans; decisions found
    from recorded steps bump [evaluator.step_hits], and a decision-tier
    artifact hit bumps [evaluator.decision_hits]. *)

val adopt : t -> entry -> unit
(** Insert an entry measured elsewhere — a forked pool child — as if
    this table had simulated it: later identical artifacts hit it, and
    later schedules of the same program retime its summary.  A no-op
    when disabled. *)
