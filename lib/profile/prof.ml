(* Execution profiling.

   Runs a program once on its training input and collects the statistics
   the optimization passes consume: block execution counts, edge counts
   (for path frequency estimation), per-branch taken bias, and per-branch
   2-bit-predictor mispredict rates (the "branch predictability statistics"
   the paper adds to Trimaran's profiler). *)

type branch_stats = {
  executions : int;
  taken : int;
  mispredicts : int;
}

type t = {
  layout : Layout.t;
  block_counts : int array;                   (* by global block uid *)
  edge_counts : (int * int, int) Hashtbl.t;   (* (from uid, to uid) *)
  branch : branch_stats array;                (* by branch site *)
  total_steps : int;
}

(* Edge counts during a run, keyed [from * n_blocks + to]: hashing an
   int key is far cheaper than the generic tuple hash per block entry. *)
module Edges = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

let collect ?(fuel = 30_000_000) ?(overrides = []) (layout : Layout.t) : t =
  let n_blocks = max 1 layout.Layout.n_blocks in
  let block_counts = Array.make n_blocks 0 in
  let edges = Edges.create 256 in
  let n_sites = max 1 layout.Layout.n_branch_sites in
  let executions = Array.make n_sites 0 in
  let taken_counts = Array.make n_sites 0 in
  let predictor = Predictor.create ~n_sites in
  let mispredict_counts = Array.make n_sites 0 in
  let last_block = ref (-1) in
  let observer =
    {
      Interp.block_enter =
        (fun uid ->
          block_counts.(uid) <- block_counts.(uid) + 1;
          if !last_block >= 0 then begin
            let key = (!last_block * n_blocks) + uid in
            match Edges.find edges key with
            | c -> incr c
            | exception Not_found -> Edges.add edges key (ref 1)
          end;
          last_block := uid);
      branch =
        (fun site taken ->
          executions.(site) <- executions.(site) + 1;
          if taken then taken_counts.(site) <- taken_counts.(site) + 1;
          if Predictor.observe predictor ~site ~taken then
            mispredict_counts.(site) <- mispredict_counts.(site) + 1);
      mem = (fun _ _ -> ());
      call = ignore;
    }
  in
  let res = Interp.run ~observer ~fuel ~overrides layout in
  let edge_counts = Hashtbl.create (max 16 (Edges.length edges)) in
  Edges.iter
    (fun key c ->
      Hashtbl.replace edge_counts (key / n_blocks, key mod n_blocks) !c)
    edges;
  {
    layout;
    block_counts;
    edge_counts;
    branch =
      Array.init n_sites (fun i ->
          {
            executions = executions.(i);
            taken = taken_counts.(i);
            mispredicts = mispredict_counts.(i);
          });
    total_steps = res.Interp.steps;
  }

let block_count (t : t) ~fname ~label =
  t.block_counts.(Layout.block_uid_of t.layout fname label)

let edge_count (t : t) ~fname ~from_label ~to_label =
  let a = Layout.block_uid_of t.layout fname from_label
  and b = Layout.block_uid_of t.layout fname to_label in
  Option.value ~default:0 (Hashtbl.find_opt t.edge_counts (a, b))

(* Probability that control flows [from_label] -> [to_label] given it
   reaches [from_label]; 0.5 when the block was never executed. *)
let edge_prob (t : t) ~fname ~from_label ~to_label =
  let from_count = block_count t ~fname ~label:from_label in
  if from_count = 0 then 0.5
  else
    float_of_int (edge_count t ~fname ~from_label ~to_label)
    /. float_of_int from_count

(* Stats of a block's terminating conditional branch, if any. *)
let term_branch_stats (t : t) ~fname ~label : branch_stats option =
  let pf = Layout.func t.layout fname in
  match Hashtbl.find_opt pf.Layout.block_index label with
  | None -> None
  | Some bi ->
    let b = pf.Layout.blocks.(bi) in
    if b.Layout.branch_site >= 0 then Some t.branch.(b.Layout.branch_site)
    else None

(* Predictability of a branch: fraction of executions correctly predicted
   by the 2-bit counter; 1.0 for never-executed branches. *)
let predictability (bs : branch_stats) =
  if bs.executions = 0 then 1.0
  else
    1.0 -. (float_of_int bs.mispredicts /. float_of_int bs.executions)

let taken_bias (bs : branch_stats) =
  if bs.executions = 0 then 0.5
  else float_of_int bs.taken /. float_of_int bs.executions
