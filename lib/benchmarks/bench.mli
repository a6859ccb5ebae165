(** The benchmark record type and suite tags. *)

type suite = Mediabench | Spec92 | Spec95 | Spec2000 | Misc

val string_of_suite : suite -> string

type t = {
  name : string;
  suite : suite;
  fp : bool;                               (** floating-point dominated *)
  description : string;
  source : string;                         (** MiniC program text *)
  train : (string * float array) list;     (** global overrides *)
  novel : (string * float array) list;
}

type dataset = Train | Novel

val dataset_name : dataset -> string
(** ["train"] or ["novel"], as store and cache keys spell a dataset. *)

val overrides : t -> dataset -> (string * float array) list
