(** Control-flow-graph analyses over one function: predecessors, reverse
    postorder, dominators and postdominators (Cooper–Harvey–Kennedy),
    natural loops and loop-nesting depth.

    Blocks are identified by their reverse-postorder index; the entry
    block has index 0. *)

type t = {
  func : Func.t;
  labels : Types.label array;             (** index -> label *)
  index : (Types.label, int) Hashtbl.t;
  succ : int list array;
  pred : int list array;
}

val build : Func.t -> t
(** Snapshot of the function's CFG; invalidated by any transformation. *)

val n_blocks : t -> int
val block_of : t -> int -> Func.block
val index_of : t -> Types.label -> int

val dominators : t -> int array
(** Immediate dominators; the entry (and unreachable blocks) map to -1. *)

val postdominators : t -> int array
(** Immediate postdominators, computed through a single virtual exit node
    so functions with several [Ret] blocks converge.  Exit blocks and
    blocks that cannot reach an exit map to -1. *)

val dominates : int array -> int -> int -> bool
(** [dominates idom a b]: does [a] dominate [b]? *)

type loop = {
  header : int;
  body : int list;                 (** includes the header *)
  back_edges : (int * int) list;
}

val loops : t -> loop list
(** Natural loops derived from back edges, grouped by header. *)

val loop_depth : t -> loop list -> int array
(** Nesting depth per block given the graph's {!loops}, so a caller that
    already has them pays for no second loop discovery; 0 = not in any
    loop. *)
