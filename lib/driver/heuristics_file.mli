(** Persistence for evolved heuristics: the product of an evolution is a
    small text file (one `slot: expression` line per heuristic) that can
    be applied to later compilations — the "toolset" usage the paper
    anticipates. *)

exception Bad_file of string

val save : string -> Compiler.heuristics -> unit

val load : ?base:Compiler.heuristics -> string -> Compiler.heuristics
(** Missing slots keep [base]'s expression (default: the stock compiler
    with prefetching on); [prefetch: off] disables prefetching.
    @raise Bad_file on malformed contents. *)
