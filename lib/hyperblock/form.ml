(* Hyperblock formation in three parts: features, decide and apply.

   The priority function under study (baseline Equation (1) or a GP
   expression) scores each enumerated path of a region; paths are merged
   in priority order until the estimated machine resources are consumed
   [Mahlke 96].  Selected paths are if-converted into a single predicated
   block: every merged block's instructions are guarded by a block
   predicate computed with or-form compares over the region's edges, and
   edges leaving the selected set become predicated side exits.

   Each step of a run attempts one region: [features] takes a view of
   it, [decide] turns the view into the selected paths, and [convert]
   applies them.  The view is everything [decide] reads, so a recorded
   run's steps can be walked again under another priority function
   ([walk]) without touching a program. *)

type config = {
  limits : Region.limits;
  resource_slack : float;      (* multiplier on the issue-width budget *)
  max_merged_ops : int;
  max_selected_paths : int;
  (* A path is eligible only if its priority exceeds this fraction of the
     region's best path priority; a region whose best priority is not
     positive is not if-converted at all.  This is where the priority
     function's magnitudes (not just its ordering) decide inclusion. *)
  priority_cutoff : float;
}

let default_config =
  {
    limits = Region.default_limits;
    resource_slack = 1.0;
    max_merged_ops = 220;
    max_selected_paths = 12;
    priority_cutoff = 0.10;
  }

(* --- Feature extraction ------------------------------------------------ *)

let path_instrs (f : Ir.Func.t) (p : Region.path) : Ir.Instr.t array =
  Array.of_list
    (List.concat_map
       (fun l -> (Ir.Func.find_block f l).Ir.Func.instrs)
       p.Region.labels)

let path_features (f : Ir.Func.t) (prof : Profile.Prof.t) (p : Region.path) :
    Features.path_features =
  let instrs = path_instrs f p in
  let dep_height =
    float_of_int (Sched.Depgraph.critical_path (Sched.Depgraph.build instrs))
  in
  let num_ops = float_of_int (Array.length instrs) in
  let blocks = List.map (Ir.Func.find_block f) p.Region.labels in
  let num_branches =
    float_of_int
      (List.fold_left (fun acc b -> acc + Ir.Func.branch_count b) 0 blocks)
  in
  (* Path execution ratio: product of profile edge probabilities along the
     path (all paths start at the region entry, so ratios are
     comparable). *)
  let fname = f.Ir.Func.fname in
  let rec edge_product = function
    | a :: (b :: _ as rest) ->
      Profile.Prof.edge_prob prof ~fname ~from_label:a ~to_label:b
      *. edge_product rest
    | [ _ ] | [] -> 1.0
  in
  let exec_ratio = edge_product p.Region.labels in
  let predict_product =
    List.fold_left
      (fun acc (b : Ir.Func.block) ->
        match
          Profile.Prof.term_branch_stats prof ~fname ~label:b.Ir.Func.blabel
        with
        | Some bs -> acc *. Profile.Prof.predictability bs
        | None -> acc)
      1.0 blocks
  in
  let has_pointer_deref = ref false
  and has_unsafe_jsr = ref false in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      match i.Ir.Instr.kind with
      | Ir.Instr.Load (_, a) | Ir.Instr.Store (a, _) ->
        if a.Ir.Instr.hazard || a.Ir.Instr.space = Ir.Instr.Unknown then
          has_pointer_deref := true
      | Ir.Instr.Call (_, _, _, Ir.Instr.Impure) -> has_unsafe_jsr := true
      | _ -> ())
    instrs;
  {
    Features.exec_ratio;
    dep_height;
    num_ops;
    num_branches;
    predict_product;
    mem_hazard = !has_pointer_deref || !has_unsafe_jsr;
    has_unsafe_jsr = !has_unsafe_jsr;
    has_pointer_deref = !has_pointer_deref;
  }

(* A view of one attempted region: its paths, their feature
   environments and dependence heights, and the instruction count of
   each mergeable block (every path label is one).  Plain data, so a
   recorded view outlives the program it was taken from. *)
type view = {
  paths : Region.path array;
  envs : Gp.Feature_set.env array;
  heights : float array;
  sizes : (Ir.Types.label * int) list;
}

let features (f : Ir.Func.t) (prof : Profile.Prof.t) (region : Region.t) :
    view =
  let feats = List.map (path_features f prof) region.Region.paths in
  let sizes =
    List.map
      (fun l -> (l, List.length (Ir.Func.find_block f l).Ir.Func.instrs))
      region.Region.mergeable
  in
  let total_ops = List.fold_left (fun acc (_, n) -> acc + n) 0 sizes in
  {
    paths = Array.of_list region.Region.paths;
    envs = Array.of_list (Features.environments feats ~total_ops);
    heights = Array.of_list (List.map (fun fe -> fe.Features.dep_height) feats);
    sizes;
  }

(* --- Selection ---------------------------------------------------------- *)

type scored_path = {
  path : Region.path;
  feats : Features.path_features;
  priority : float;
}

let score_region ?compiled (f : Ir.Func.t) (prof : Profile.Prof.t)
    (priority : Gp.Expr.rexpr) (region : Region.t) : scored_path list =
  let priorities =
    Gp.Evalc.real_batch ?compiled priority (features f prof region).envs
  in
  List.mapi
    (fun i path ->
      { path; feats = path_features f prof path; priority = priorities.(i) })
    region.Region.paths

let union_labels (paths : Region.path list) : Ir.Types.label list =
  List.sort_uniq compare (List.concat_map (fun p -> p.Region.labels) paths)

(* Greedy selection in priority order with an IMPACT-style resource
   estimate: the merged block's instruction count must not exceed the
   machine's issue slots over the (tallest) selected path's dependence
   height.  The top-priority path is always taken.  The priority
   function is compiled once, when [decide] is applied to it. *)
let decide ?(config = default_config) ?(compiled = true)
    ~(machine : Machine.Config.t) ~(priority : Gp.Expr.rexpr) =
  let score = Gp.Evalc.real_batch ~compiled priority in
  let issue = float_of_int (Machine.Config.issue_width machine) in
  fun (v : view) : Region.path list ->
    let pr = score v.envs in
    let ops labels =
      List.fold_left (fun acc l -> acc + List.assoc l v.sizes) 0 labels
    in
    let sorted =
      List.stable_sort
        (fun a b -> compare pr.(b) pr.(a))
        (List.init (Array.length v.paths) Fun.id)
    in
    match sorted with
    | [] -> []
    | first :: _ when pr.(first) <= 0.0 -> []
    | first :: rest ->
      let threshold = config.priority_cutoff *. pr.(first) in
      let rest = List.filter (fun c -> pr.(c) > threshold) rest in
      let selected = ref [ first ] in
      List.iter
        (fun cand ->
          if List.length !selected < config.max_selected_paths then begin
            let tentative = cand :: !selected in
            let ops =
              ops (union_labels (List.map (Array.get v.paths) tentative))
            in
            let height =
              List.fold_left
                (fun acc i -> Float.max acc v.heights.(i))
                0.0 tentative
            in
            let budget = issue *. height *. config.resource_slack in
            if float_of_int ops <= budget && ops <= config.max_merged_ops then
              selected := tentative
          end)
        rest;
      List.rev_map (Array.get v.paths) !selected

(* --- If-conversion ------------------------------------------------------ *)

(* Convert the selected sub-DAG of [region] into a single predicated block
   replacing the region entry.  Returns the number of blocks merged in
   (0 = nothing done). *)
let convert (f : Ir.Func.t) (region : Region.t) (selected : Region.path list)
    : int =
  let s_labels = union_labels selected in
  let merged = List.filter (fun l -> l <> region.Region.entry) s_labels in
  if merged = [] then 0
  else begin
    (* Topological order: region.mergeable is already in reverse
       postorder; restrict it to the selected set. *)
    let topo =
      List.filter (fun l -> List.mem l s_labels) region.Region.mergeable
    in
    assert (List.length topo = List.length s_labels);
    (match topo with
    | e :: _ -> assert (e = region.Region.entry)
    | [] -> assert false);
    let in_s l = List.mem l s_labels in
    (* Classify each non-entry selected block by its in-edges within the
       selected sub-DAG:
         - a single unconditional in-edge: the block predicate aliases its
           source's guard (no instruction at all);
         - a single conditional in-edge: defined by one unconditional-form
           compare (cmp.unc, no up-front clear); a branch both of whose
           targets are such blocks collapses to one two-target cmpp when
           the branch itself is unpredicated;
         - several in-edges (reconvergence): cleared up front and
           or-accumulated with cmp.or at every edge. *)
    let in_edges : (Ir.Types.label, (Ir.Types.label * Ir.Types.operand option) list)
        Hashtbl.t =
      Hashtbl.create 16
    in
    let add_in_edge target source cond =
      if in_s target && target <> region.Region.entry then
        Hashtbl.replace in_edges target
          ((source, cond)
          :: Option.value ~default:[] (Hashtbl.find_opt in_edges target))
    in
    List.iter
      (fun l ->
        let b = Ir.Func.find_block f l in
        match b.Ir.Func.term with
        | Ir.Func.Br (c, l1, l2) ->
          add_in_edge l1 l (Some c);
          add_in_edge l2 l (Some c)
        | Ir.Func.Jmp l' -> add_in_edge l' l None
        | Ir.Func.Ret _ -> ())
      topo;
    let block_pred = Hashtbl.create 16 in
    let multi_entry = Hashtbl.create 4 in
    Hashtbl.replace block_pred region.Region.entry Ir.Types.p_true;
    List.iter
      (fun l ->
        if l <> region.Region.entry then
          match Option.value ~default:[] (Hashtbl.find_opt in_edges l) with
          | [ (src, None) ] ->
            (* Alias: the source appears earlier in topo order, so its
               predicate is already assigned. *)
            Hashtbl.replace block_pred l (Hashtbl.find block_pred src)
          | [ (_, Some _) ] ->
            Hashtbl.replace block_pred l (Ir.Func.fresh_pred f)
          | _ ->
            Hashtbl.replace block_pred l (Ir.Func.fresh_pred f);
            Hashtbl.replace multi_entry l ())
      topo;
    let single_conditional l =
      match Hashtbl.find_opt in_edges l with
      | Some [ (_, Some _) ] -> true
      | _ -> false
    in
    let out = ref [] in
    let emit ?(guard = Ir.Types.p_true) kind =
      out := { Ir.Instr.id = Ir.Func.fresh_instr_id f; guard; kind } :: !out
    in
    (* Up-front clears only for or-accumulated (reconvergent) predicates. *)
    List.iter
      (fun l ->
        if Hashtbl.mem multi_entry l then
          emit (Ir.Instr.Pclear (Hashtbl.find block_pred l)))
      topo;
    let body = ref [] in
    let emit_body ?(guard = Ir.Types.p_true) kind =
      body := { Ir.Instr.id = Ir.Func.fresh_instr_id f; guard; kind } :: !body
    in
    List.iter
      (fun l ->
        let b = Ir.Func.find_block f l in
        let guard_b = Hashtbl.find block_pred l in
        (* The block's own instructions, re-guarded. *)
        List.iter
          (fun (i : Ir.Instr.t) ->
            assert (i.Ir.Instr.guard = Ir.Types.p_true);
            body := { i with Ir.Instr.guard = guard_b } :: !body)
          b.Ir.Func.instrs;
        (* Lower the terminator into predicate defines / side exits. *)
        let edge target cmp cond =
          if target = region.Region.stop then ()
          else if in_s target then begin
            let p = Hashtbl.find block_pred target in
            if Hashtbl.mem multi_entry target then
              emit_body ~guard:guard_b
                (Ir.Instr.Por (cmp, p, cond, Ir.Types.Imm 0))
            else if p <> guard_b then
              (* Single conditional in-edge: unconditional-form compare. *)
              emit_body ~guard:guard_b
                (Ir.Instr.Pset (cmp, p, cond, Ir.Types.Imm 0))
            (* [p = guard_b]: aliased unconditional edge, nothing to emit. *)
          end
          else begin
            match cond with
            | Ir.Types.Imm 1 ->
              (* Unconditional edge out of the region. *)
              emit_body ~guard:guard_b (Ir.Instr.Exit target)
            | _ ->
              let q = Ir.Func.fresh_pred f in
              emit_body ~guard:guard_b
                (Ir.Instr.Pset (cmp, q, cond, Ir.Types.Imm 0));
              emit_body ~guard:q (Ir.Instr.Exit target)
          end
        in
        match b.Ir.Func.term with
        | Ir.Func.Br (c, l1, l2)
          when guard_b = Ir.Types.p_true
               && l1 <> l2
               && in_s l1 && in_s l2
               && single_conditional l1
               && single_conditional l2 ->
          (* Unpredicated diamond: one cmpp defines both sides. *)
          emit_body
            (Ir.Instr.Pdef
               (Ir.Types.Cne, Hashtbl.find block_pred l1,
                Hashtbl.find block_pred l2, c, Ir.Types.Imm 0))
        | Ir.Func.Br (c, l1, l2) ->
          edge l1 Ir.Types.Cne c;
          edge l2 Ir.Types.Ceq c
        | Ir.Func.Jmp l' -> edge l' Ir.Types.Cne (Ir.Types.Imm 1)
        | Ir.Func.Ret _ ->
          (* Blocks ending in Ret are never on a path to the stop label,
             so they cannot be selected. *)
          assert false)
      topo;
    let entry_block = Ir.Func.find_block f region.Region.entry in
    entry_block.Ir.Func.instrs <- List.rev !out @ List.rev !body;
    entry_block.Ir.Func.term <- Ir.Func.Jmp region.Region.stop;
    (* Tail duplication [Mahlke 96]: a merged block that is still targeted
       by a surviving block (a side entrance from outside the selected
       set, e.g. the side exit of an earlier hyperblock) must keep its
       original copy.  Survival is a fixpoint because a kept block's own
       targets must then also survive. *)
    let removable = Hashtbl.create 16 in
    List.iter (fun l -> Hashtbl.replace removable l ()) merged;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Ir.Func.block) ->
          if not (Hashtbl.mem removable b.Ir.Func.blabel) then
            List.iter
              (fun succ ->
                if Hashtbl.mem removable succ then begin
                  Hashtbl.remove removable succ;
                  changed := true
                end)
              (Ir.Func.successors b))
        f.Ir.Func.blocks
    done;
    f.Ir.Func.blocks <-
      List.filter
        (fun (b : Ir.Func.block) -> not (Hashtbl.mem removable b.Ir.Func.blabel))
        f.Ir.Func.blocks;
    List.length merged
  end

(* --- Driver ------------------------------------------------------------- *)

type stats = {
  mutable regions_seen : int;
  mutable regions_formed : int;
  mutable blocks_merged : int;
  mutable paths_selected : int;
  mutable paths_total : int;
}

let new_stats () =
  {
    regions_seen = 0;
    regions_formed = 0;
    blocks_merged = 0;
    paths_selected = 0;
    paths_total = 0;
  }

type step = Attempt of view | Done

(* One function's steps; returns its decisions in attempt order.
   [convert] reads only the union of the selected labels, so that union
   is a step's whole decision.  Regions are re-discovered after each
   conversion (a step that merged nothing leaves the function, hence its
   regions, unchanged); entries already attempted are skipped. *)
let run_func ~config ~decide ~record ~prof (f : Ir.Func.t) stats =
  let attempted = Hashtbl.create 16 in
  let discover () = Region.discover ~limits:config.limits f in
  let rec loop decided regions =
    match
      List.find_opt
        (fun (r : Region.t) -> not (Hashtbl.mem attempted r.Region.entry))
        regions
    with
    | None ->
      record f.Ir.Func.fname decided Done;
      List.rev decided
    | Some region ->
      Hashtbl.replace attempted region.Region.entry ();
      stats.regions_seen <- stats.regions_seen + 1;
      stats.paths_total <- stats.paths_total + List.length region.Region.paths;
      let v = features f prof region in
      record f.Ir.Func.fname decided (Attempt v);
      let selected = decide v in
      let decided = union_labels selected :: decided in
      let merged = convert f region selected in
      if merged > 0 then begin
        stats.regions_formed <- stats.regions_formed + 1;
        stats.blocks_merged <- stats.blocks_merged + merged;
        stats.paths_selected <- stats.paths_selected + List.length selected;
        loop decided (discover ())
      end
      else loop decided regions
  in
  loop [] (discover ())

let run ?(config = default_config) ?(compiled = true)
    ?(report = fun _ _ -> ()) ?(record = fun _ _ _ -> ()) ~machine ~prof
    ~priority (p : Ir.Func.program) : stats =
  let prof = Lazy.force prof in
  let stats = new_stats () in
  let decide = decide ~config ~compiled ~machine ~priority in
  List.iter
    (fun (f : Ir.Func.t) ->
      report f.Ir.Func.fname (run_func ~config ~decide ~record ~prof f stats);
      Opt.Simplify_cfg.remove_unreachable f;
      Ir.Func.renumber f)
    p.Ir.Func.funcs;
  stats

let walk ?(config = default_config) ?(compiled = true) ~machine ~priority
    ~step (p : Ir.Func.program) =
  let decide = decide ~config ~compiled ~machine ~priority in
  let rec steps fname decided =
    match step fname decided with
    | None -> None
    | Some Done -> Some (fname, List.rev decided)
    | Some (Attempt v) -> steps fname (union_labels (decide v) :: decided)
  in
  let rec funcs acc = function
    | [] -> Some (List.rev acc)
    | (f : Ir.Func.t) :: rest -> (
      match steps f.Ir.Func.fname [] with
      | Some d -> funcs (d :: acc) rest
      | None -> None)
  in
  funcs [] p.Ir.Func.funcs
