(* The benchmark record type and suite tags. *)

type suite = Mediabench | Spec92 | Spec95 | Spec2000 | Misc

let string_of_suite = function
  | Mediabench -> "Mediabench"
  | Spec92 -> "SPEC92"
  | Spec95 -> "SPEC95"
  | Spec2000 -> "SPEC2000"
  | Misc -> "misc"

type t = {
  name : string;
  suite : suite;
  fp : bool;                               (* floating-point dominated *)
  description : string;
  source : string;                         (* MiniC program text *)
  train : (string * float array) list;     (* global overrides *)
  novel : (string * float array) list;
}

type dataset = Train | Novel

let dataset_name = function Train -> "train" | Novel -> "novel"

let overrides b = function Train -> b.train | Novel -> b.novel
