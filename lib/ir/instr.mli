(** Predicated instructions.

    Every instruction carries a guard predicate; when the guard is false
    at run time the instruction is nullified.  [guard = Types.p_true]
    means unpredicated. *)

open Types

(** What the compiler statically knows about a memory location. *)
type space =
  | Global of string   (** a named global array *)
  | Frame of string    (** the spill frame of the named function *)
  | Unknown            (** unanalyzable; a hazard, aliases everything *)

(** Memory address [base + offset], in words.  [hazard] marks accesses
    whose index is data-dependent — the moral equivalent of the pointer
    dereferences the paper's hyperblock heuristic penalizes. *)
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
  | Gaddr of reg * string              (** base address of a global *)
  | Load of reg * address
  | Store of address * operand
  | Prefetch of address
  | Call of reg option * string * operand list * call_effect
  | Emit of operand                    (** append to program output *)
  | Pdef of icmp * pred * pred * operand * operand
      (** cmpp: under the guard, [pt := (a cmp b)], [pf := not pt];
          nullified, neither target changes. *)
  | Pclear of pred
      (** [p := false] under the guard. *)
  | Pset of icmp * pred * operand * operand
      (** cmp.unc: guard true -> [p := (a cmp b)]; guard false ->
          [p := false].  Needs no up-front clear. *)
  | Por of icmp * pred * operand * operand
      (** cmp.or: guard true and compare holds -> [p := true]; otherwise
          [p] unchanged.  Accumulates block predicates across the several
          in-edges of a reconvergent region block. *)
  | Exit of label
      (** Predicated side exit out of a hyperblock: taken when the guard
          is true.  Only appears in if-converted blocks. *)

type t = {
  id : int;       (** unique within a function *)
  guard : pred;
  kind : kind;
}

val make : id:int -> ?guard:pred -> kind -> t

val def : kind -> reg option
(** The register defined, if any. *)

val uses : kind -> reg list
(** Registers read (operands, addresses, call arguments). *)

val pred_defs : kind -> pred list
val pred_uses : t -> pred list
(** The guard, when the instruction is predicated. *)

val is_mem : kind -> bool
val is_store : kind -> bool
val is_call : kind -> bool
val is_impure_call : kind -> bool
val is_branch_like : kind -> bool

val latency : kind -> int
(** Latency in cycles per the paper's Table 3 machine; also used for
    dependence-height features. *)

val map_operands : (operand -> operand) -> kind -> kind
val map_def : (reg -> reg) -> kind -> kind

val pp_space : Format.formatter -> space -> unit
val pp_address : Format.formatter -> address -> unit
val pp_kind : Format.formatter -> kind -> unit
val pp : Format.formatter -> t -> unit
