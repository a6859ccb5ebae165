(* GP expression trees over the primitives of Table 1 of the paper, plus
   protected division, which the paper's best evolved expression (Figure 8)
   uses.  Expressions are strongly typed: real-valued and Boolean-valued
   trees are distinct, matching the paper's two-sorted primitive table. *)

type rexpr =
  | Radd of rexpr * rexpr
  | Rsub of rexpr * rexpr
  | Rmul of rexpr * rexpr
  | Rdiv of rexpr * rexpr            (* protected: y ~ 0 yields x *)
  | Rsqrt of rexpr                   (* protected: sqrt |x| *)
  | Rtern of bexpr * rexpr * rexpr   (* if b then x else y *)
  | Rcmul of bexpr * rexpr * rexpr   (* if b then x*y else y *)
  | Rconst of float
  | Rarg of int                      (* real feature index *)

and bexpr =
  | Band of bexpr * bexpr
  | Bor of bexpr * bexpr
  | Bnot of bexpr
  | Blt of rexpr * rexpr
  | Bgt of rexpr * rexpr
  | Beq of rexpr * rexpr
  | Bconst of bool
  | Barg of int                      (* Boolean feature index *)

(* A genome is either a real-valued priority function (hyperblock formation,
   register allocation) or a Boolean-valued one (data prefetching). *)
type genome =
  | Real of rexpr
  | Bool of bexpr

(* --- Size and depth --------------------------------------------------- *)

let rec size_r = function
  | Radd (a, b) | Rsub (a, b) | Rmul (a, b) | Rdiv (a, b) ->
    1 + size_r a + size_r b
  | Rsqrt a -> 1 + size_r a
  | Rtern (c, a, b) | Rcmul (c, a, b) -> 1 + size_b c + size_r a + size_r b
  | Rconst _ | Rarg _ -> 1

and size_b = function
  | Band (a, b) | Bor (a, b) -> 1 + size_b a + size_b b
  | Bnot a -> 1 + size_b a
  | Blt (a, b) | Bgt (a, b) | Beq (a, b) -> 1 + size_r a + size_r b
  | Bconst _ | Barg _ -> 1

let rec depth_r = function
  | Radd (a, b) | Rsub (a, b) | Rmul (a, b) | Rdiv (a, b) ->
    1 + max (depth_r a) (depth_r b)
  | Rsqrt a -> 1 + depth_r a
  | Rtern (c, a, b) | Rcmul (c, a, b) ->
    1 + max (depth_b c) (max (depth_r a) (depth_r b))
  | Rconst _ | Rarg _ -> 1

and depth_b = function
  | Band (a, b) | Bor (a, b) -> 1 + max (depth_b a) (depth_b b)
  | Bnot a -> 1 + depth_b a
  | Blt (a, b) | Bgt (a, b) | Beq (a, b) -> 1 + max (depth_r a) (depth_r b)
  | Bconst _ | Barg _ -> 1

let size = function Real e -> size_r e | Bool e -> size_b e
let depth = function Real e -> depth_r e | Bool e -> depth_b e

(* --- Feature occurrence ------------------------------------------------ *)

let rec fold_features_r ~real ~bool acc = function
  | Radd (a, b) | Rsub (a, b) | Rmul (a, b) | Rdiv (a, b) ->
    fold_features_r ~real ~bool (fold_features_r ~real ~bool acc a) b
  | Rsqrt a -> fold_features_r ~real ~bool acc a
  | Rtern (c, a, b) | Rcmul (c, a, b) ->
    let acc = fold_features_b ~real ~bool acc c in
    fold_features_r ~real ~bool (fold_features_r ~real ~bool acc a) b
  | Rconst _ -> acc
  | Rarg i -> real acc i

and fold_features_b ~real ~bool acc = function
  | Band (a, b) | Bor (a, b) ->
    fold_features_b ~real ~bool (fold_features_b ~real ~bool acc a) b
  | Bnot a -> fold_features_b ~real ~bool acc a
  | Blt (a, b) | Bgt (a, b) | Beq (a, b) ->
    fold_features_r ~real ~bool (fold_features_r ~real ~bool acc a) b
  | Bconst _ -> acc
  | Barg i -> bool acc i

(* Indices of real and Boolean features referenced by a genome. *)
let features genome =
  let real acc i = (`Real i) :: acc and bool acc i = (`Bool i) :: acc in
  let occs =
    match genome with
    | Real e -> fold_features_r ~real ~bool [] e
    | Bool e -> fold_features_b ~real ~bool [] e
  in
  List.sort_uniq compare occs
