(** Functions, basic blocks and whole programs. *)

open Types

type terminator =
  | Jmp of label
  | Br of operand * label * label  (** if operand <> 0 then fst else snd *)
  | Ret of operand option

type block = {
  blabel : label;
  mutable instrs : Instr.t list;
  mutable term : terminator;
}

type t = {
  fname : string;
  params : reg list;            (** registers 1..n hold the arguments *)
  mutable blocks : block list;  (** entry block first *)
  mutable next_reg : int;
  mutable next_pred : int;
  mutable next_instr : int;
  mutable frame_size : int;     (** spill slots, in words *)
}

type global = {
  gname : string;
  gsize : int;           (** in words *)
  ginit : float array;   (** initialization of a prefix of the array *)
}

type program = {
  funcs : t list;
  globals : global list;
  main : string;
}

val entry : t -> block
(** @raise Invalid_argument if the function has no blocks. *)

val find_block : t -> label -> block
(** @raise Invalid_argument on an unknown label. *)

val find_func : program -> string -> t
(** @raise Invalid_argument on an unknown function. *)

val find_global : program -> string -> global
(** @raise Invalid_argument on an unknown global. *)

val fresh_reg : t -> reg
val fresh_pred : t -> pred
val fresh_instr_id : t -> int

val successors : block -> label list
(** Terminator targets plus predicated side exits embedded in the
    instruction list. *)

val branch_count : block -> int
(** Static branch instructions: conditional terminator + side exits. *)

val iter_instrs : t -> (block -> Instr.t -> unit) -> unit
val instr_count : t -> int

val renumber : t -> unit
(** Reassign unique instruction ids across the function. *)

val copy : t -> t
(** Copy a function so transformation passes can mutate it without
    touching the original (blocks are fresh records; instruction lists are
    replaced wholesale by passes, never mutated in place). *)

val copy_program : program -> program

val pp_terminator : Format.formatter -> terminator -> unit
val pp_block : Format.formatter -> block -> unit
val pp : Format.formatter -> t -> unit
val pp_program : Format.formatter -> program -> unit
