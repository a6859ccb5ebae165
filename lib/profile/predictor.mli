(** Per-site 2-bit saturating-counter branch predictor, the predictor the
    paper adds to Trimaran's simulator.  Counters start weakly taken. *)

type t = {
  counters : int array;
  mutable branches : int;
  mutable mispredicts : int;
}

val create : n_sites:int -> t

val observe : t -> site:int -> taken:bool -> bool
(** Record an outcome; returns whether the prediction was wrong. *)
