(* Predicated instructions.

   Every instruction carries a guard predicate; when the guard evaluates to
   false at run time the instruction is nullified (it must not change
   architectural state).  [guard = Types.p_true] means unpredicated. *)

open Types

(* Memory address: [base + offset], in words.  [space] records what the
   compiler statically knows about the location; [hazard] marks accesses the
   frontend could not analyze (data-dependent indices), which hyperblock
   formation treats as pointer-dereference hazards. *)
type space =
  | Global of string   (* a named global array *)
  | Frame of string    (* the spill/local frame of the named function *)
  | Unknown            (* unanalyzable; acts as a hazard and aliases all *)

type address = {
  base : operand;
  offset : operand;
  space : space;
  hazard : bool;
}

type call_effect = Pure | Impure

type kind =
  | Ibin of ibinop * reg * operand * operand
  | Fbin of fbinop * reg * operand * operand
  | Funop of funop * reg * operand
  | Icmp of icmp * reg * operand * operand
  | Fcmp of icmp * reg * operand * operand
  | Mov of reg * operand
  | Itof of reg * operand
  | Ftoi of reg * operand
  | Intrin of intrinsic * reg * operand list
  | Gaddr of reg * string              (* base address of a global *)
  | Load of reg * address
  | Store of address * operand
  | Prefetch of address
  | Call of reg option * string * operand list * call_effect
  | Emit of operand                    (* append a value to program output *)
  (* [Pdef (cmp, pt, pf, a, b)] is a cmpp: under the guard, sets predicate
     [pt] to (a cmp b) and [pf] to its complement.  When nullified neither
     target changes. *)
  | Pdef of icmp * pred * pred * operand * operand
  (* [Pclear p] sets predicate [p] to false (under the guard). *)
  | Pclear of pred
  (* [Pset (cmp, p, a, b)] is an unconditional-form compare (IA-64
     cmp.unc): when the guard is true, [p] := (a cmp b); when the guard is
     false, [p] := false.  Because it writes either way, its target needs
     no up-front clear. *)
  | Pset of icmp * pred * operand * operand
  (* [Por (cmp, p, a, b)] is an or-form compare (IA-64 cmp.or): when the
     guard is true and (a cmp b) holds, sets [p] to true; otherwise leaves
     [p] unchanged.  Used to accumulate block predicates over the multiple
     incoming edges of a DAG region during if-conversion. *)
  | Por of icmp * pred * operand * operand
  (* Predicated jump out of a hyperblock (side exit): taken when the guard
     is true.  Never appears in blocks that were not if-converted. *)
  | Exit of label

type t = {
  id : int;                (* unique within a function *)
  guard : pred;
  kind : kind;
}

let make ~id ?(guard = p_true) kind = { id; guard; kind }

(* --- Register defs and uses ---------------------------------------- *)

let def = function
  | Ibin (_, d, _, _) | Fbin (_, d, _, _) | Funop (_, d, _)
  | Icmp (_, d, _, _) | Fcmp (_, d, _, _) | Mov (d, _)
  | Itof (d, _) | Ftoi (d, _) | Intrin (_, d, _) | Gaddr (d, _)
  | Load (d, _) -> Some d
  | Call (d, _, _, _) -> d
  | Store _ | Prefetch _ | Emit _ | Pdef _ | Pclear _ | Por _ | Pset _
  | Exit _ ->
    None

let reg_of_operand = function Reg r -> Some r | Imm _ | Fimm _ -> None

let uses_of_address a =
  List.filter_map reg_of_operand [ a.base; a.offset ]

let uses kind =
  match kind with
  | Ibin (_, _, a, b) | Fbin (_, _, a, b)
  | Icmp (_, _, a, b) | Fcmp (_, _, a, b) | Pdef (_, _, _, a, b)
  | Por (_, _, a, b) | Pset (_, _, a, b) ->
    List.filter_map reg_of_operand [ a; b ]
  | Funop (_, _, a) | Mov (_, a) | Itof (_, a) | Ftoi (_, a) | Emit a ->
    List.filter_map reg_of_operand [ a ]
  | Intrin (_, _, args) | Call (_, _, args, _) ->
    List.filter_map reg_of_operand args
  | Gaddr _ | Exit _ | Pclear _ -> []
  | Load (_, a) | Prefetch a -> uses_of_address a
  | Store (a, v) -> List.filter_map reg_of_operand (v :: [ a.base; a.offset ])

(* Predicates defined / used.  The guard itself is a predicate use. *)
let pred_defs = function
  | Pdef (_, pt, pf, _, _) -> [ pt; pf ]
  | Pclear p | Por (_, p, _, _) | Pset (_, p, _, _) -> [ p ]
  | _ -> []

let pred_uses i = if i.guard = p_true then [] else [ i.guard ]

(* --- Classification -------------------------------------------------- *)

let is_mem = function
  | Load _ | Store _ | Prefetch _ -> true
  | _ -> false

let is_store = function Store _ -> true | _ -> false

let is_call = function Call _ -> true | _ -> false

let is_impure_call = function Call (_, _, _, Impure) -> true | _ -> false

let is_branch_like = function Exit _ -> true | _ -> false

(* Generic latency in cycles, used for dependence-height features and as
   the default machine latency (Table 3 of the paper). *)
let latency = function
  | Ibin (Mul, _, _, _) -> 3
  | Ibin ((Div | Rem), _, _, _) -> 8
  | Ibin (_, _, _, _) -> 1
  | Fbin (Fdiv, _, _, _) -> 8
  | Fbin (_, _, _, _) -> 3
  | Funop (Fsqrt, _, _) -> 8
  | Funop (_, _, _) -> 1
  | Icmp _ | Fcmp _ | Pdef _ | Pclear _ | Por _ | Pset _ -> 1
  | Mov _ | Gaddr _ -> 1
  | Itof _ | Ftoi _ -> 2
  | Intrin (_, _, _) -> 6
  | Load _ -> 2         (* L1 hit; cache misses add stalls in the simulator *)
  | Store _ -> 1        (* stores are buffered *)
  | Prefetch _ -> 1
  | Call _ -> 12
  | Emit _ -> 1
  | Exit _ -> 1

(* --- Substitution helpers (used by copy propagation & regalloc) ------- *)

let map_operands f kind =
  let fa a = { a with base = f a.base; offset = f a.offset } in
  match kind with
  | Ibin (op, d, a, b) -> Ibin (op, d, f a, f b)
  | Fbin (op, d, a, b) -> Fbin (op, d, f a, f b)
  | Funop (op, d, a) -> Funop (op, d, f a)
  | Icmp (c, d, a, b) -> Icmp (c, d, f a, f b)
  | Fcmp (c, d, a, b) -> Fcmp (c, d, f a, f b)
  | Mov (d, a) -> Mov (d, f a)
  | Itof (d, a) -> Itof (d, f a)
  | Ftoi (d, a) -> Ftoi (d, f a)
  | Intrin (i, d, args) -> Intrin (i, d, List.map f args)
  | Gaddr (d, g) -> Gaddr (d, g)
  | Load (d, a) -> Load (d, fa a)
  | Store (a, v) -> Store (fa a, f v)
  | Prefetch a -> Prefetch (fa a)
  | Call (d, name, args, e) -> Call (d, name, List.map f args, e)
  | Emit a -> Emit (f a)
  | Pdef (c, pt, pf, a, b) -> Pdef (c, pt, pf, f a, f b)
  | Pclear p -> Pclear p
  | Por (c, p, a, b) -> Por (c, p, f a, f b)
  | Pset (c, p, a, b) -> Pset (c, p, f a, f b)
  | Exit l -> Exit l

let map_def f kind =
  match kind with
  | Ibin (op, d, a, b) -> Ibin (op, f d, a, b)
  | Fbin (op, d, a, b) -> Fbin (op, f d, a, b)
  | Funop (op, d, a) -> Funop (op, f d, a)
  | Icmp (c, d, a, b) -> Icmp (c, f d, a, b)
  | Fcmp (c, d, a, b) -> Fcmp (c, f d, a, b)
  | Mov (d, a) -> Mov (f d, a)
  | Itof (d, a) -> Itof (f d, a)
  | Ftoi (d, a) -> Ftoi (f d, a)
  | Intrin (i, d, args) -> Intrin (i, f d, args)
  | Gaddr (d, g) -> Gaddr (f d, g)
  | Load (d, a) -> Load (f d, a)
  | Call (Some d, name, args, e) -> Call (Some (f d), name, args, e)
  | Call (None, _, _, _) | Store _ | Prefetch _ | Emit _ | Pdef _ | Pclear _
  | Por _ | Pset _ | Exit _ ->
    kind

(* --- Printing --------------------------------------------------------- *)

let pp_space ppf = function
  | Global g -> Fmt.pf ppf "@%s" g
  | Frame f -> Fmt.pf ppf "frame(%s)" f
  | Unknown -> Fmt.pf ppf "?"

let pp_address ppf a =
  Fmt.pf ppf "[%a + %a : %a%s]" pp_operand a.base pp_operand a.offset
    pp_space a.space
    (if a.hazard then " !" else "")

let pp_kind ppf = function
  | Ibin (op, d, a, b) ->
    Fmt.pf ppf "r%d = %s %a, %a" d (string_of_ibinop op) pp_operand a
      pp_operand b
  | Fbin (op, d, a, b) ->
    Fmt.pf ppf "r%d = %s %a, %a" d (string_of_fbinop op) pp_operand a
      pp_operand b
  | Funop (op, d, a) ->
    Fmt.pf ppf "r%d = %s %a" d (string_of_funop op) pp_operand a
  | Icmp (c, d, a, b) ->
    Fmt.pf ppf "r%d = icmp.%s %a, %a" d (string_of_icmp c) pp_operand a
      pp_operand b
  | Fcmp (c, d, a, b) ->
    Fmt.pf ppf "r%d = fcmp.%s %a, %a" d (string_of_icmp c) pp_operand a
      pp_operand b
  | Mov (d, a) -> Fmt.pf ppf "r%d = mov %a" d pp_operand a
  | Itof (d, a) -> Fmt.pf ppf "r%d = itof %a" d pp_operand a
  | Ftoi (d, a) -> Fmt.pf ppf "r%d = ftoi %a" d pp_operand a
  | Intrin (i, d, args) ->
    Fmt.pf ppf "r%d = %s(%a)" d (string_of_intrinsic i)
      Fmt.(list ~sep:comma pp_operand) args
  | Gaddr (d, g) -> Fmt.pf ppf "r%d = gaddr @%s" d g
  | Load (d, a) -> Fmt.pf ppf "r%d = load %a" d pp_address a
  | Store (a, v) -> Fmt.pf ppf "store %a, %a" pp_address a pp_operand v
  | Prefetch a -> Fmt.pf ppf "prefetch %a" pp_address a
  | Call (d, name, args, e) ->
    Fmt.pf ppf "%scall %s(%a)%s"
      (match d with Some d -> Fmt.str "r%d = " d | None -> "")
      name
      Fmt.(list ~sep:comma pp_operand) args
      (match e with Pure -> " pure" | Impure -> "")
  | Emit a -> Fmt.pf ppf "emit %a" pp_operand a
  | Pdef (c, pt, pf, a, b) ->
    Fmt.pf ppf "p%d, p%d = cmpp.%s %a, %a" pt pf (string_of_icmp c)
      pp_operand a pp_operand b
  | Pclear p -> Fmt.pf ppf "p%d = false" p
  | Por (c, p, a, b) ->
    Fmt.pf ppf "p%d |= cmp.%s %a, %a" p (string_of_icmp c) pp_operand a
      pp_operand b
  | Pset (c, p, a, b) ->
    Fmt.pf ppf "p%d = cmp.unc.%s %a, %a" p (string_of_icmp c) pp_operand a
      pp_operand b
  | Exit l -> Fmt.pf ppf "exit %s" l

let pp ppf i =
  if i.guard = p_true then pp_kind ppf i.kind
  else Fmt.pf ppf "(p%d) %a" i.guard pp_kind i.kind
