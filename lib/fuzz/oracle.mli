(** The nine differential oracles.

    Each oracle runs one seeded trial of a redundancy the repo's results
    rest on — fast vs reference interpreter, retimed cycle summary vs
    fresh simulation, cache hit vs recomputation, [Eval] vs
    [Eval . Simplify], checkpoint-resume vs straight evolution,
    [Parmap]'s [`Seq] reference vs one warm fork pool over several
    batches (random width, a napping straggler while the rest of the
    pool drains the queue), [Evalc] compiled bytecode vs the
    [Eval] tree-walker, a chaos-injected supervised run vs the
    fault-free [`Seq] -j1 reference, and a study evaluated against a
    [metaopt serve] daemon (with a worker kill injected in the daemon
    on odd seeds) vs the same study on a local pool — comparing every
    float through [Int64.bits_of_float].
    Failures come back as a replayable report with a greedily shrunk
    counterexample. *)

type verdict = Pass | Skip of string | Fail of string

type t = {
  name : string;
  weight : int;
      (** relative trial cost: a campaign of [count] runs
          [count / weight] trials of this oracle *)
  check : int -> verdict;  (** one seeded trial *)
}

val all : t list
(** engine, replay, cache, simplify, checkpoint, parmap,
    compiled_vs_walk, chaos_vs_clean, served_vs_local. *)

val find : string -> t option
val names : string list

val chaos_trial : ?plan:Gp.Chaos.plan -> int -> string option
(** One chaos_vs_clean trial: evolve under [plan] (default
    [Gp.Chaos.seeded ~seed]) on the supervised [`Fork] pool (-j2, a 0.5s
    deadline, 2 retries), compare bit-for-bit against the fault-free
    [`Seq] -j1 run, then resume over the faulted run's cache and
    checkpoint artifacts and compare again.  [None] on identity,
    [Some description] on divergence.  Exposed for [metaopt chaos],
    which replays plans outside a fuzz campaign. *)
