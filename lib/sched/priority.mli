(** Evolvable list-scheduling priority functions — a fourth heuristic slot
    beyond the paper's three case studies, motivated by its Section 2
    (list scheduling as the canonical priority-function example).

    A priority function scores each instruction of a block's dependence
    graph; the list scheduler issues ready instructions in descending
    score order. *)

val feature_set : Gp.Feature_set.t

val baseline_source : string
(** The latency-weighted depth itself. *)

val baseline_expr : Gp.Expr.rexpr
val baseline_genome : Gp.Expr.genome

type fn = Depgraph.t -> float array
(** Instruction index -> score. *)

val baseline : fn
(** Latency-weighted depth without the expression interpreter. *)

val height_above : Depgraph.t -> int array
(** Earliest possible issue cycle of each node (longest latency-weighted
    path from any source, excluding the node's own latency). *)

val of_expr : ?compiled:bool -> Gp.Expr.rexpr -> fn
(** [of_expr expr] scores each block's instructions with one
    {!Gp.Evalc.real_batch} evaluation: [expr] compiled once (default), or
    the {!Gp.Eval} tree-walker — the executable reference the compiled
    path is bit-identical to — with [~compiled:false]. *)
