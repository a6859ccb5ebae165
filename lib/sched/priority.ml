(* Evolvable list-scheduling priority functions.

   Section 2 of the paper presents list scheduling as the canonical
   priority-function example (Gibbons & Muchnick's latency-weighted depth)
   and lists scheduling variants among the heuristics Meta Optimization
   applies to.  This module exposes the scheduler's ranking as a fourth
   evolvable slot, an extension beyond the paper's three case studies.

   The priority function scores each instruction of a block's dependence
   graph; the list scheduler issues ready instructions in descending
   score order. *)

let feature_set : Gp.Feature_set.t =
  Gp.Feature_set.make
    ~reals:
      [
        "lwd";            (* latency-weighted depth to any sink *)
        "latency";
        "height_above";   (* earliest possible issue cycle *)
        "slack";          (* critical_path - height_above - lwd *)
        "n_succs";        (* direct dependents *)
        "n_preds";
        "block_ops";
        "critical_path";
      ]
    ~bools:[ "is_mem"; "is_fp"; "is_branch"; "is_call"; "is_guarded" ]

(* The baseline is the latency-weighted depth itself. *)
let baseline_source = "lwd"
let baseline_expr : Gp.Expr.rexpr = Gp.Sexp.parse_real feature_set baseline_source
let baseline_genome : Gp.Expr.genome = Gp.Expr.Real baseline_expr

(* A ranking: instruction index -> score, derived from the dependence
   graph.  [of_expr] is the GP-driven instance; [baseline] avoids the
   expression interpreter in the common case. *)
type fn = Depgraph.t -> float array

let baseline : fn =
 fun g -> Array.map float_of_int (Depgraph.latency_weighted_depth g)

(* Longest latency-weighted path from any source to each node, excluding
   the node's own latency: its earliest possible issue cycle. *)
let height_above (g : Depgraph.t) : int array =
  let n = Array.length g.Depgraph.instrs in
  let above = Array.make n (-1) in
  let rec compute i =
    if above.(i) >= 0 then above.(i)
    else begin
      let h =
        List.fold_left
          (fun acc (j, lat) -> max acc (compute j + lat))
          0 g.Depgraph.preds.(i)
      in
      above.(i) <- h;
      h
    end
  in
  for i = 0 to n - 1 do
    ignore (compute i)
  done;
  above

(* One feature vector per instruction of the graph, in index order. *)
let envs_of_graph (g : Depgraph.t) : Gp.Feature_set.env array =
  let n = Array.length g.Depgraph.instrs in
  let lwd = Depgraph.latency_weighted_depth g in
  let above = height_above g in
  let critical = Array.fold_left max 0 lwd in
  Array.init n (fun i ->
      let env = Gp.Feature_set.empty_env feature_set in
      let set = Gp.Feature_set.set_real feature_set env in
      let setb = Gp.Feature_set.set_bool feature_set env in
      let instr = g.Depgraph.instrs.(i) in
      let k = instr.Ir.Instr.kind in
      set "lwd" (float_of_int lwd.(i));
      set "latency" (float_of_int (Ir.Instr.latency k));
      set "height_above" (float_of_int above.(i));
      set "slack" (float_of_int (critical - above.(i) - lwd.(i)));
      set "n_succs" (float_of_int (List.length g.Depgraph.succs.(i)));
      set "n_preds" (float_of_int (List.length g.Depgraph.preds.(i)));
      set "block_ops" (float_of_int n);
      set "critical_path" (float_of_int critical);
      setb "is_mem" (Ir.Instr.is_mem k);
      setb "is_fp"
        (match k with
        | Ir.Instr.Fbin _ | Ir.Instr.Funop _ | Ir.Instr.Fcmp _
        | Ir.Instr.Intrin _ ->
          true
        | _ -> false);
      setb "is_branch" (Ir.Instr.is_branch_like k);
      setb "is_call" (Ir.Instr.is_call k);
      setb "is_guarded" (instr.Ir.Instr.guard <> Ir.Types.p_true);
      env)

let of_expr ?compiled (expr : Gp.Expr.rexpr) : fn =
  (* Compile once per [of_expr]; each block is scored with one batch
     evaluation over its per-instruction feature vectors. *)
  let score = Gp.Evalc.real_batch ?compiled expr in
  fun g -> score (envs_of_graph g)
