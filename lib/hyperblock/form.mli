(** Hyperblock formation: feature extraction, priority-driven path
    selection, and if-conversion [Mahlke 96].

    The priority function under study — Equation (1) or a GP expression —
    scores each enumerated path; paths are merged in priority order until
    the estimated machine resources are consumed.  Selected paths are
    if-converted into one predicated block; edges leaving the selected
    set become predicated side exits; merged blocks still reachable from
    outside keep their original copies (tail duplication). *)

type config = {
  limits : Region.limits;
  resource_slack : float;   (** multiplier on the issue-width budget *)
  max_merged_ops : int;
  max_selected_paths : int;
  priority_cutoff : float;
      (** a path must exceed this fraction of the best path's priority;
          a region whose best priority is non-positive is not converted *)
}

val default_config : config

val path_instrs : Ir.Func.t -> Region.path -> Ir.Instr.t array

val path_features :
  Ir.Func.t -> Profile.Prof.t -> Region.path -> Features.path_features
(** Table 4 features of one path, from static analysis and the profile. *)

type scored_path = {
  path : Region.path;
  feats : Features.path_features;
  priority : float;
}

val score_region :
  ?compiled:bool ->
  Ir.Func.t -> Profile.Prof.t -> Gp.Expr.rexpr -> Region.t ->
  scored_path list
(** Evaluate the priority function on every path of a region (aggregate
    features are shared across the region) with one {!Gp.Evalc.real_batch}
    evaluation over the region's path environments: compiled (default),
    or the bit-identical {!Gp.Eval} tree-walker with [~compiled:false]. *)

val select :
  config:config -> machine:Machine.Config.t -> Ir.Func.t ->
  scored_path list -> scored_path list
(** Greedy selection in priority order under the cutoff and the
    IMPACT-style resource estimate; the top path is always taken (when
    its priority is positive). *)

val convert : Ir.Func.t -> Region.t -> Region.path list -> int
(** If-convert the selected paths into the region entry; returns the
    number of blocks merged (0 = nothing done). *)

type stats = {
  mutable regions_seen : int;
  mutable regions_formed : int;
  mutable blocks_merged : int;
  mutable paths_selected : int;
  mutable paths_total : int;
}

val run :
  ?config:config -> ?compiled:bool -> ?decisions:Buffer.t ->
  machine:Machine.Config.t -> prof:Profile.Prof.t ->
  priority:Gp.Expr.rexpr -> Ir.Func.program -> stats
(** Form hyperblocks over every function, re-discovering regions after
    each conversion; prunes unreachable blocks and renumbers.  [compiled]
    selects the {!Gp.Evalc} path (default) versus the {!Gp.Eval}
    tree-walker for priority evaluation; see {!score_region}.
    [decisions], when given, receives the pass's decisions: per
    function, in program order, one line per attempted region with the
    sorted labels of its selected paths.  The formed program is a
    function of the input program, the profile and these lines. *)
