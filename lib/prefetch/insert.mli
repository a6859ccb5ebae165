(** Prefetch insertion [Mowry 94, as adapted by ORC].

    For every candidate load whose confidence function says yes and whose
    stride is known and non-zero, a software prefetch [prefetch_iters]
    iterations ahead is inserted after the load: one add for the future
    offset plus the prefetch itself.  These consume issue slots and
    memory-queue entries — all the ways aggressive prefetching hurts —
    while timely prefetches convert load misses into hits. *)

type config = { prefetch_iters : int }

val default_config : config

type decision_fn = Analysis.candidate -> bool

val baseline_decision :
  machine:Machine.Config.t -> Ir.Func.program -> decision_fn

val decision_of_expr :
  ?compiled:bool ->
  machine:Machine.Config.t -> Ir.Func.program -> Gp.Expr.bexpr -> decision_fn
(** Compiles the confidence function once through {!Gp.Evalc} (default);
    [~compiled:false] keeps the {!Gp.Eval} tree-walker, the bit-identical
    executable reference. *)

type decision_batch = Analysis.candidate array -> bool array
(** Vectorized confidence: one call judges many candidates.  With
    {!run_batched} the pass batches all of a function's eligible
    candidates (known non-zero stride) through a single evaluation —
    same verdicts, bit-identical insertions to {!decision_fn}. *)

val decision_batch_of_expr :
  ?compiled:bool ->
  machine:Machine.Config.t ->
  Ir.Func.program ->
  Gp.Expr.bexpr ->
  decision_batch
(** Batch counterpart of {!decision_of_expr}:
    {!Gp.Evalc.run_batch_bool} when [compiled] (default), a per-point
    tree walk otherwise. *)

type stats = {
  candidates : int;
  inserted : int;
}

val run :
  ?config:config -> ?decisions:Buffer.t -> decision:decision_fn ->
  Ir.Func.program -> stats
(** [decisions], when given, receives the pass's decisions: one line per
    function, in program order, with the verdict on each eligible
    candidate (known non-zero stride) in candidate order.  The rewritten
    program is a function of the input program and these verdicts. *)

val run_batched :
  ?config:config -> ?decisions:Buffer.t -> decision_batch:decision_batch ->
  Ir.Func.program -> stats
(** {!run} with the confidence function consulted once per function
    over the eligible-candidate array instead of once per candidate. *)
