(** The interpreter for the predicated IR: a closure-compiled engine and
    the tree-walking reference it is checked against.

    Registers and memory hold floats; integers are stored exactly.
    Integer division and remainder by zero yield zero, so well-formed
    programs are total: candidate compilations may differ from the
    baseline only in speed, never in definedness. *)

type mem_kind = Mload | Mstore | Mprefetch

(** Dynamic-event callbacks consumed by the profiler and the timing
    simulator. *)
type observer = {
  block_enter : int -> unit;       (** global block uid *)
  branch : int -> bool -> unit;    (** branch site uid, taken *)
  mem : mem_kind -> int -> unit;   (** resolved word address *)
  call : int -> unit;              (** callee function index, after the
                                       arguments are evaluated and before
                                       the callee's first block *)
}

val null_observer : observer

type result = {
  output : float list;   (** emitted values, in order *)
  return_value : float;
  steps : int;           (** dynamic instructions executed *)
}

exception Out_of_fuel
exception Trap of string
(** Out-of-bounds memory access or intrinsic misuse. *)

val checksum : float list -> int
(** Order-sensitive checksum of a program's output, used to compare
    baseline and transformed compilations. *)

(** The dynamic events a closure-engine instantiation consumes, one
    function per event kind, called in the order {!observer} would see
    them. *)
module type EVENTS = sig
  type t

  val block_enter : t -> int -> unit
  val branch : t -> int -> bool -> unit
  val load : t -> int -> unit
  val store : t -> int -> unit
  val prefetch : t -> int -> unit
  val call : t -> int -> unit
end

(** The closure engine, instantiated for one event consumer.  Each run
    compiles the program into chains of specialised closures and
    executes them; results, event order, fuel and step accounting and
    raised exceptions are identical to {!run_reference}. *)
module Make (E : EVENTS) : sig
  val run :
    E.t -> ?fuel:int -> ?overrides:(string * float array) list ->
    Layout.t -> result
end

val run :
  ?observer:observer -> ?fuel:int ->
  ?overrides:(string * float array) list -> Layout.t -> result
(** Execute a prepared program from [main] on the closure engine,
    reporting events to [observer].  [overrides] replaces the initial
    contents of named globals (benchmark datasets); [fuel] bounds dynamic
    instructions and block entries.

    @raise Out_of_fuel when the fuel budget is exhausted.
    @raise Trap on out-of-bounds accesses. *)

val run_reference :
  ?observer:observer -> ?fuel:int ->
  ?overrides:(string * float array) list -> Layout.t -> result
(** The tree-walking interpreter over [Ir.Instr.t]; the golden semantics
    the closure engine is checked against. *)
