(* Order statistics for the benchmark report. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

(* [statistics.quantiles(xs, n=4)] with Python's default "exclusive"
   method, so a reader recomputing a spread from the printed samples gets
   the same numbers.  A single sample is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Linear interpolation between closest ranks; [p] in [0, 100]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let sum = List.fold_left ( +. ) 0.0
let mean xs = sum xs /. float_of_int (List.length xs)
