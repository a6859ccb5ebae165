(** Hyperblock formation: features, decide and apply [Mahlke 96].

    The priority function under study — Equation (1) or a GP expression —
    scores each enumerated path; paths are merged in priority order until
    the estimated machine resources are consumed.  Selected paths are
    if-converted into one predicated block; edges leaving the selected
    set become predicated side exits; merged blocks still reachable from
    outside keep their original copies (tail duplication).

    A run is a sequence of steps per function.  Each step attempts one
    region in three parts:
    - {b features}: {!features} takes a {!view} of the region, which
      holds everything the decision reads;
    - {b decide}: {!decide}, compiled once per run, turns the view into
      the selected paths, whose sorted label union is the step's
      decision;
    - {b apply}: {!convert} if-converts them.
    {!run} can report every step it takes, and {!walk} replays recorded
    steps under another priority function to the decisions {!run}
    would report, with no program copy, region discovery, feature
    extraction or conversion. *)

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

type view
(** Everything {!decide} reads about one attempted region: its paths,
    their feature environments and dependence heights, and the
    instruction count of each mergeable block (every path label is one).
    Plain data, independent of the program it was taken from. *)

val features : Ir.Func.t -> Profile.Prof.t -> Region.t -> view

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

val decide :
  ?config:config -> ?compiled:bool -> machine:Machine.Config.t ->
  priority:Gp.Expr.rexpr -> view -> Region.path list
(** [decide ~machine ~priority] compiles the priority function once and
    returns the selection: one batch evaluation over the view's
    environments, then greedy selection in priority order under the
    cutoff and the IMPACT-style resource estimate.  The top path is
    always taken when its priority is positive; with none positive,
    nothing is. *)

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

type step =
  | Attempt of view  (** the next attempted region *)
  | Done  (** no region left to attempt in this function *)

val run :
  ?config:config -> ?compiled:bool ->
  ?report:(string -> Ir.Types.label list list -> unit) ->
  ?record:(string -> Ir.Types.label list list -> step -> unit) ->
  machine:Machine.Config.t -> prof:Profile.Prof.t Lazy.t ->
  priority:Gp.Expr.rexpr -> Ir.Func.program -> stats
(** Form hyperblocks over every function, re-discovering regions after
    each conversion; prunes unreachable blocks and renumbers.  [prof] is
    forced first, so a caller may defer the profiling run until a
    formation needs it.  [compiled]
    selects the {!Gp.Evalc} path (default) versus the {!Gp.Eval}
    tree-walker for priority evaluation; see {!score_region}.
    [report fname decided] is told the pass's decisions once per
    function, in program order: for each attempted region, in attempt
    order, the sorted union of its selected paths' labels, which is all
    {!convert} reads of them (empty when no region was attempted).  The
    formed program is a function of the input program, the profile and
    these decisions.
    [record fname decided step], when given, is told every step:
    function [fname], having decided [decided] so far (newest first),
    takes [step].  The step is a function of the input function, the
    profile, [config] and [decided]. *)

val walk :
  ?config:config -> ?compiled:bool -> machine:Machine.Config.t ->
  priority:Gp.Expr.rexpr ->
  step:(string -> Ir.Types.label list list -> step option) ->
  Ir.Func.program -> (string * Ir.Types.label list list) list option
(** [walk ~step p] is every function's decisions, in program order, as
    [run ~report] would report them for [p] under the same arguments,
    built from recorded steps alone: [step fname decided] returns what
    [record] was told for that function and those decisions, and only
    the program's function names are read.  [None] as soon as a step
    is missing. *)
