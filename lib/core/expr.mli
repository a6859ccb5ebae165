(** GP expression trees over the primitives of Table 1 of the paper, plus
    protected division (used by the paper's best evolved expression,
    Figure 8).  Real-valued and Boolean-valued trees are distinct sorts,
    matching the paper's two-sorted primitive table. *)

type rexpr =
  | Radd of rexpr * rexpr
  | Rsub of rexpr * rexpr
  | Rmul of rexpr * rexpr
  | Rdiv of rexpr * rexpr            (** protected: y ~ 0 yields x *)
  | Rsqrt of rexpr                   (** protected: sqrt |x| *)
  | Rtern of bexpr * rexpr * rexpr   (** if b then x else y *)
  | Rcmul of bexpr * rexpr * rexpr   (** if b then x*y else y *)
  | Rconst of float
  | Rarg of int                      (** real feature index *)

and bexpr =
  | Band of bexpr * bexpr
  | Bor of bexpr * bexpr
  | Bnot of bexpr
  | Blt of rexpr * rexpr
  | Bgt of rexpr * rexpr
  | Beq of rexpr * rexpr
  | Bconst of bool
  | Barg of int                      (** Boolean feature index *)

(** A genome is either a real-valued priority function (hyperblock
    formation, register allocation) or a Boolean-valued one (data
    prefetching). *)
type genome =
  | Real of rexpr
  | Bool of bexpr

val size_r : rexpr -> int
val size_b : bexpr -> int

val size : genome -> int
(** Number of tree nodes; the quantity parsimony pressure minimizes. *)

val depth_r : rexpr -> int
val depth_b : bexpr -> int

val depth : genome -> int
(** Height of the tree (a leaf has depth 1). *)

val features : genome -> [ `Real of int | `Bool of int ] list
(** Sorted, deduplicated indices of the features the genome references. *)
