(** Imperative construction of IR functions, used by the frontend lowering
    and by tests that build CFGs directly. *)

type t

val create : name:string -> params:string list -> t
(** A builder for a function whose parameters occupy registers 1..n. *)

val fresh_reg : t -> Types.reg

val fresh_label : t -> string -> Types.label
(** [fresh_label b prefix] returns a label unique to this builder. *)

val start_block : t -> Types.label -> unit
(** @raise Invalid_argument if the previous block was not terminated. *)

val emit : t -> Instr.kind -> unit
(** Append an unpredicated instruction to the current block.
    @raise Invalid_argument outside a block. *)

val emit_r : t -> (Types.reg -> Instr.kind) -> Types.reg
(** Emit an instruction into a fresh destination register and return it. *)

val terminate : t -> Func.terminator -> unit
(** Close the current block. *)

val finish : t -> Func.t
(** @raise Invalid_argument if a block is still open. *)

val global_addr :
  base:Types.operand -> offset:Types.operand -> name:string -> hazard:bool ->
  Instr.address

val frame_addr : fname:string -> slot:int -> Instr.address
(** Address of a spill slot in the named function's frame. *)
