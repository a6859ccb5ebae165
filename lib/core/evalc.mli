(** Compiled genome evaluation: the batch engine behind every heuristic
    decision.

    [compile] flattens a genome once into a flat, register-coded bytecode
    — operators pre-dispatched to integer opcodes, feature lookups
    resolved to environment slots, constants interned in a float pool —
    and {!run_batch} executes it one instruction across a whole
    (cache-sized chunk of a) batch of environments at a time, so operator
    dispatch is amortised over the batch and the inner loops are tight
    float-array walks.  {!Eval} remains the executable reference: results
    are bit-identical, including the [div_epsilon] protected-division
    rule and non-finite collapse to 0 (property-tested at scale and
    fuzzed by the [compiled_vs_walk] oracle).

    The code is straight-line: conditionals compile to select
    instructions over operands that are always computed, repeated
    [arg]/[const] leaves are deduplicated and registers are recycled
    after their last use.  Strict evaluation cannot change a value —
    every operation is total, pure and deterministic — so the only
    observable difference from the walker is that the engine reads every
    feature the genome mentions, including ones the walker's
    short-circuiting would skip.  That cannot raise on a valid genome:
    {!Gen} and {!Sexp} resolve feature names against the feature set the
    environments are built from.

    Compiled programs are immutable and safe to share; each batch call
    allocates its own register file.

    A studied pass turns each decision into one [env array -> value
    array] call, built by {!real_batch} or {!bool_batch}: the one place
    that chooses between this engine and the {!Eval} walker. *)

type t
(** A compiled genome: code stream, constant pool, register counts. *)

val compile : Expr.genome -> t
val compile_real : Expr.rexpr -> t
val compile_bool : Expr.bexpr -> t

val run_batch : t -> Feature_set.env array -> float array
(** [run_batch p envs] evaluates one compiled real-valued genome over an
    array of feature vectors, bit-identical to [Eval.real] on every
    point.
    @raise Invalid_argument on a boolean program. *)

val run_batch_bool : t -> Feature_set.env array -> bool array
(** Boolean counterpart of {!run_batch}, bit-identical to [Eval.bool] on
    every point.
    @raise Invalid_argument on a real program. *)

val real_batch :
  ?compiled:bool -> Expr.rexpr -> Feature_set.env array -> float array
(** [real_batch e] compiles [e] once and returns {!run_batch} over it;
    [~compiled:false] maps the {!Eval} walker over the array point by
    point instead, the executable reference ([--no-compiled-eval]). *)

val bool_batch :
  ?compiled:bool -> Expr.bexpr -> Feature_set.env array -> bool array
(** Boolean counterpart of {!real_batch}. *)
