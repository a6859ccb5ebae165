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

type savings_fn = Gp.Feature_set.env -> float
(** The priority function under study: per-(range, block) savings. *)

val baseline_savings : savings_fn
(** Equation (2). *)

val savings_of_expr : ?compiled:bool -> Gp.Expr.rexpr -> savings_fn
(** Compiles [e] once through {!Gp.Evalc} (default); [~compiled:false]
    keeps the {!Gp.Eval} tree-walker, the bit-identical executable
    reference. *)

type savings_batch = Gp.Feature_set.env array -> float array
(** Vectorized savings: one call scores many (range, block) feature
    vectors.  Passed to {!run_func} / {!run}, the allocator batches all
    of a function's pairs through a single evaluation instead of one
    interpreter entry per pair — same sums, same priorities, bit
    identical to {!savings_fn}. *)

val savings_batch_of_expr : ?compiled:bool -> Gp.Expr.rexpr -> savings_batch
(** Batch counterpart of {!savings_of_expr}: {!Gp.Evalc.run_batch} when
    [compiled] (default), a per-point tree walk otherwise. *)

val block_weight : int -> float
(** Static execution-frequency estimate from loop depth (10^depth,
    capped). *)

val insert_spills : Ir.Func.t -> Ir.Types.reg list -> unit

val run_func :
  ?savings:savings_fn ->
  ?savings_batch:savings_batch ->
  ?decisions:Buffer.t ->
  machine:Machine.Config.t ->
  Ir.Func.t ->
  result
(** When [savings_batch] is given it supersedes [savings]: priorities
    come from one vectorized evaluation over every (range, block) pair
    of the function.  [decisions], when given, receives one line: the
    function's name and its spilled registers in spill order — the
    rewritten function is a function of the input and that line. *)

val run :
  ?savings:savings_fn ->
  ?savings_batch:savings_batch ->
  ?decisions:Buffer.t ->
  machine:Machine.Config.t ->
  Ir.Func.program ->
  int
(** Allocates every function; returns the total number of spilled
    ranges.  [decisions] receives {!run_func}'s line for each function,
    in program order. *)
