(* Per-site 2-bit saturating-counter branch predictor (the predictor the
   paper adds to Trimaran's simulator).  Counter states 0-1 predict
   not-taken, 2-3 predict taken; counters start weakly taken. *)

type t = {
  counters : int array;      (* one per static branch site *)
  mutable branches : int;
  mutable mispredicts : int;
}

let create ~n_sites = { counters = Array.make (max 1 n_sites) 2; branches = 0;
                        mispredicts = 0 }

let observe (t : t) ~site ~taken : bool (* mispredicted? *) =
  t.branches <- t.branches + 1;
  let c = t.counters.(site) in
  let predicted_taken = c >= 2 in
  let mispredict = predicted_taken <> taken in
  if mispredict then t.mispredicts <- t.mispredicts + 1;
  t.counters.(site) <-
    (if taken then min 3 (c + 1) else max 0 (c - 1));
  mispredict
