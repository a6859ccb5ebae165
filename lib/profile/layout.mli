(** Memory layout and pre-resolution of an IR program for execution.

    The interpreter and the timing simulator execute prepared programs:
    labels resolved to block indices, globals and per-function spill
    frames assigned disjoint word addresses, and every block and static
    branch site given a dense global id so observers can use arrays. *)

type pblock = {
  uid : int;                          (** global block id *)
  label : Ir.Types.label;
  instrs : Ir.Instr.t array;
  term : Ir.Func.terminator;
  mutable term_targets : int * int;   (** resolved; -1 when unused *)
  exit_targets : (int * int) array;   (** (instr position, target) *)
  branch_site : int;                  (** -1 if the terminator is not Br *)
  exit_sites : int array;             (** aligned with [exit_targets] *)
}

type pfunc = {
  f : Ir.Func.t;
  findex : int;
  blocks : pblock array;
  block_index : (Ir.Types.label, int) Hashtbl.t;
  n_regs : int;
  n_preds : int;
  frame_base : int;
}

type t = {
  prog : Ir.Func.program;
  funcs : pfunc array;
  func_index : (string, int) Hashtbl.t;
  global_base : (string, int) Hashtbl.t;
  memory_words : int;
  n_blocks : int;
  n_branch_sites : int;
  block_name : (string * Ir.Types.label) array;        (** uid -> name *)
  branch_name : (string * Ir.Types.label * int) array;
      (** site -> (function, block, -1 for terminator | instr id) *)
}

val prepare : Ir.Func.program -> t
(** Snapshot; invalidated by any transformation of the program. *)

val func : t -> string -> pfunc
(** @raise Invalid_argument on an unknown function. *)

val block_uid_of : t -> string -> Ir.Types.label -> int
(** @raise Invalid_argument on an unknown block. *)
