(** Priority-based coloring register allocation [Chow & Hennessy 90].

    Live ranges (one per virtual register, as block sets) are colored in
    priority order — priority(lr) = Σ savings over the range's blocks / N
    (Equation 3) — against a unified file of [machine.gpr] registers.
    Uncolorable ranges are spilled: every use gets a preceding frame
    load, every definition a following frame store, both inheriting the
    instruction's guard. *)

type live_range = {
  reg : Ir.Types.reg;
  blocks : int list;
  uses_per_block : int array;
  defs_per_block : int array;
  total_uses : int;
  total_defs : int;
  is_param : bool;
  spans_call : bool;
  mutable degree : int;      (** interference-graph degree *)
  mutable priority : float;
  mutable color : int;       (** -1 unallocated, -2 spilled *)
}

type result = {
  ranges : live_range list;
  spilled : Ir.Types.reg list;
  n_colors_used : int;
}

val build_ranges :
  Ir.Func.t -> Ir.Cfg.t -> Liveness.t -> live_range list

val interferes : live_range -> live_range -> bool
(** Block-level interference: the ranges' block sets overlap. *)

type savings_batch = Gp.Feature_set.env array -> float array
(** The priority function under study, vectorized: per-(range, block)
    savings for many feature vectors in one call.  {!run_func} and {!run}
    batch all of a function's pairs through a single evaluation. *)

val savings_batch_of_expr : ?compiled:bool -> Gp.Expr.rexpr -> savings_batch
(** One {!Gp.Evalc.real_batch} evaluation: compiled once (default), or
    the {!Gp.Eval} walker per pair with [~compiled:false]. *)

val block_weight : int -> float
(** Static execution-frequency estimate from loop depth (10^depth,
    capped). *)

val insert_spills : Ir.Func.t -> Ir.Types.reg list -> unit

val run_func :
  ?savings_batch:savings_batch ->
  ?report:(string -> Ir.Types.reg list -> unit) ->
  machine:Machine.Config.t ->
  Ir.Func.t ->
  result
(** Priorities come from one [savings_batch] evaluation over every
    (range, block) pair of the function; it defaults to Equation (2)
    through the compiled engine.  [report fname spills] is told the
    pass's decision: the spilled registers as {!insert_spills} takes
    them, latest spilled first (the reverse of [result.spilled]; empty
    when nothing spills).  The rewritten function is a function of the
    input and that list. *)

val run :
  ?savings_batch:savings_batch ->
  ?report:(string -> Ir.Types.reg list -> unit) ->
  machine:Machine.Config.t ->
  Ir.Func.program ->
  int
(** Allocates every function; returns the total number of spilled
    ranges.  [report] is told {!run_func}'s decision for each function,
    in program order. *)
