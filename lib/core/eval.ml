(* Evaluation of GP expressions against a feature environment.

   Arithmetic is protected so that every expression is total: division by
   (near-)zero returns the numerator, sqrt takes the absolute value, and
   non-finite intermediate results collapse to 0.  This mirrors standard GP
   practice [Koza 92]: the search space must not contain crashing
   programs. *)

let div_epsilon = 1e-9

let protect x = if Float.is_finite x then x else 0.0

let rec real (env : Feature_set.env) (e : Expr.rexpr) : float =
  match e with
  | Expr.Radd (a, b) -> protect (real env a +. real env b)
  | Expr.Rsub (a, b) -> protect (real env a -. real env b)
  | Expr.Rmul (a, b) -> protect (real env a *. real env b)
  | Expr.Rdiv (a, b) ->
    let x = real env a and y = real env b in
    if Float.abs y < div_epsilon then x else protect (x /. y)
  | Expr.Rsqrt a -> protect (sqrt (Float.abs (real env a)))
  | Expr.Rtern (c, a, b) -> if bool env c then real env a else real env b
  | Expr.Rcmul (c, a, b) ->
    (* Table 1: Real1 * Real2 if Bool1, else Real2. *)
    if bool env c then protect (real env a *. real env b) else real env b
  | Expr.Rconst k -> k
  | Expr.Rarg i -> env.Feature_set.real_values.(i)

and bool (env : Feature_set.env) (e : Expr.bexpr) : bool =
  match e with
  | Expr.Band (a, b) -> bool env a && bool env b
  | Expr.Bor (a, b) -> bool env a || bool env b
  | Expr.Bnot a -> not (bool env a)
  | Expr.Blt (a, b) -> real env a < real env b
  | Expr.Bgt (a, b) -> real env a > real env b
  | Expr.Beq (a, b) -> Float.abs (real env a -. real env b) < div_epsilon
  | Expr.Bconst k -> k
  | Expr.Barg i -> env.Feature_set.bool_values.(i)

let genome env = function
  | Expr.Real e -> `Real (real env e)
  | Expr.Bool e -> `Bool (bool env e)
