(** Prefetch insertion [Mowry 94, as adapted by ORC].

    For every candidate load whose confidence function says yes and whose
    stride is known and non-zero, a software prefetch [prefetch_iters]
    iterations ahead is inserted after the load: one add for the future
    offset plus the prefetch itself.  These consume issue slots and
    memory-queue entries — all the ways aggressive prefetching hurts —
    while timely prefetches convert load misses into hits. *)

type config = { prefetch_iters : int }

val default_config : config

type decision_batch = Analysis.candidate array -> bool array
(** The confidence function, vectorized: {!run_batched} judges all of a
    function's eligible candidates (known non-zero stride) with one call. *)

val decision_batch_of_expr :
  ?compiled:bool ->
  machine:Machine.Config.t ->
  Ir.Func.program ->
  Gp.Expr.bexpr ->
  decision_batch
(** One {!Gp.Evalc.bool_batch} evaluation over the candidates' feature
    vectors: compiled once (default), or the {!Gp.Eval} walker per
    candidate with [~compiled:false]. *)

type stats = {
  candidates : int;
  inserted : int;
}

val run_batched :
  ?config:config -> ?report:(string -> bool array -> unit) ->
  decision_batch:decision_batch -> Ir.Func.program -> stats
(** [report fname verdicts] is told the pass's decisions once per
    function, in program order: the verdict on each eligible candidate,
    in candidate order (empty when the function has none).  The
    rewritten program is a function of the input program and these
    verdicts. *)
