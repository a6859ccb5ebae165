(** The benchmark registry: lookup by name and the suite groupings of the
    paper's experiments (see DESIGN.md's per-experiment index). *)

val all : Bench.t list

val find : string -> Bench.t
(** @raise Invalid_argument on an unknown name. *)

val names : string list

(** Figure 4 / 6 / 7 suites. *)

val hyperblock_specialize : string list
val hyperblock_train : string list
val hyperblock_test : string list

(** Figure 9 / 11 / 12 suites. *)

val regalloc_specialize : string list
val regalloc_train : string list
val regalloc_test : string list

(** Figure 13 / 15 / 16 suites. *)

val prefetch_specialize : string list
val prefetch_train : string list
val prefetch_test : string list
