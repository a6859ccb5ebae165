(* The full compilation pipeline, parameterized by the three heuristics
   under study.  Mirrors the Trimaran setup of the paper: classic scalar
   optimizations and unrolling, profiling, hyperblock formation, register
   allocation, optional data prefetching, VLIW scheduling, and trace-driven
   simulation. *)

type heuristics = {
  hb_priority : Gp.Expr.rexpr;       (* hyperblock path priority *)
  ra_savings : Gp.Expr.rexpr;        (* regalloc per-block savings *)
  pf_confidence : Gp.Expr.bexpr option;  (* None = prefetching disabled *)
  sched_priority : Gp.Expr.rexpr;    (* list-scheduling rank (extension) *)
}

let baseline ?(prefetch = false) () : heuristics =
  {
    hb_priority = Hyperblock.Baseline.expr;
    ra_savings = Regalloc.Features.baseline_expr;
    pf_confidence =
      (if prefetch then Some Prefetch.Features.baseline_expr else None);
    sched_priority = Sched.Priority.baseline_expr;
  }

(* A benchmark after the heuristic-independent work: lowering, scalar
   optimization, and profiling on the training dataset.  Shared across all
   candidate heuristics via copy-on-compile.  Only hyperblock formation
   reads the profile, so its interpreter run waits for the first compile
   that forms hyperblocks: a context whose store answers everything
   never runs it. *)
type prepared = {
  bench : Benchmarks.Bench.t;
  optimized : Ir.Func.program;
  prof : Profile.Prof.t Lazy.t;
}

let prepare ?(opt_config = Opt.Pipeline.default) (bench : Benchmarks.Bench.t) :
    prepared =
  let prog = Frontend.Minic.compile bench.Benchmarks.Bench.source in
  Opt.Pipeline.run ~config:opt_config prog;
  let prof =
    lazy
      (Profile.Prof.collect ~overrides:bench.Benchmarks.Bench.train
         (Profile.Layout.prepare prog))
  in
  { bench; optimized = prog; prof }

type compiled = {
  prog : Ir.Func.program;
  layout : Profile.Layout.t;
  schedule_cycles : int array;
  hb_stats : Hyperblock.Form.stats;
  spills : int;
  prefetches : Prefetch.Insert.stats;
}

(* --- The pass pipeline, split at the pass under study -------------------- *)

(* The passes a heuristic slot steers, in pipeline order.  Prefetch
   insertion runs first (mirroring ORC, where prefetching is an early
   loop-nest phase): induction-variable analysis sees clean loop
   structure, and inserted prefetches then flow through if-conversion,
   allocation and scheduling like any other instruction. *)
type pass = Prefetch | Hyperblock | Regalloc | Sched

let pipeline = [ Prefetch; Hyperblock; Regalloc; Sched ]

let is_baseline (h : heuristics) = function
  | Prefetch -> (
    match h.pf_confidence with
    | None -> true
    | Some e -> e = Prefetch.Features.baseline_expr)
  | Hyperblock -> h.hb_priority = Hyperblock.Baseline.expr
  | Regalloc -> h.ra_savings = Regalloc.Features.baseline_expr
  | Sched -> h.sched_priority = Sched.Priority.baseline_expr

(* The passes before the first non-baseline one, that pass, and the
   passes after it. *)
let split (h : heuristics) =
  let rec go before = function
    | [] -> (List.rev before, None, [])
    | pass :: after when not (is_baseline h pass) ->
      (List.rev before, Some pass, after)
    | pass :: after -> go (pass :: before) after
  in
  go [] pipeline

let pass_under_study h =
  let _, under, _ = split h in
  under

(* The artifact is a function of the prefix and the decisions of the
   pass under study when every pass after it is baseline.  The
   scheduler's decisions are the schedule itself, so it reports none. *)
let decided h =
  match split h with
  | _, Some Sched, _ -> false
  | _, _, after -> List.for_all (is_baseline h) after

(* What the pass under study decided in one function: everything the
   passes after it read of its work. *)
type decision =
  | Verdicts of bool array  (* prefetch: per eligible candidate *)
  | Regions of Ir.Types.label list list  (* hyperblock: per attempt *)
  | Spills of Ir.Types.reg list  (* regalloc *)

type decisions = (string * decision) list

(* A program part-way through the pipeline, with what the passes run on
   it so far reported. *)
type partial = {
  program : Ir.Func.program;
  pf_stats : Prefetch.Insert.stats;
  hb : Hyperblock.Form.stats;
  n_spills : int;
  cycles : int array;  (* set by [Sched] *)
}

let run_pass ~compiled ~machine ~(heuristics : heuristics)
    ~(prof : Profile.Prof.t Lazy.t) ?(report = fun _ _ -> ()) ?record
    (st : partial) = function
  (* Every pass decides through one batch call per decision site; with
     [compiled] off that call maps the walker point by point, so toggling
     [compiled_eval] compares evaluators, not pass structure — and both
     are bit-identical anyway. *)
  | Prefetch -> (
    match heuristics.pf_confidence with
    | None -> st
    | Some conf ->
      let decision_batch =
        Prefetch.Insert.decision_batch_of_expr ~compiled ~machine st.program
          conf
      in
      {
        st with
        pf_stats =
          Prefetch.Insert.run_batched
            ~report:(fun fname v -> report fname (Verdicts v))
            ~decision_batch st.program;
      })
  | Hyperblock ->
    {
      st with
      hb =
        Hyperblock.Form.run ~compiled
          ~report:(fun fname d -> report fname (Regions d))
          ?record ~machine ~prof ~priority:heuristics.hb_priority st.program;
    }
  | Regalloc ->
    let savings_batch =
      Regalloc.Alloc.savings_batch_of_expr ~compiled heuristics.ra_savings
    in
    {
      st with
      n_spills =
        Regalloc.Alloc.run
          ~report:(fun fname d -> report fname (Spills d))
          ~savings_batch ~machine st.program;
    }
  | Sched ->
    (* The baseline ranking skips the expression interpreter.  The
       scheduler emits lengths in the same traversal order Layout.prepare
       assigns block uids, so the array needs no per-candidate label
       hashing. *)
    let priority =
      if is_baseline heuristics Sched then Sched.Priority.baseline
      else Sched.Priority.of_expr ~compiled heuristics.sched_priority
    in
    {
      st with
      cycles =
        Sched.List_sched.schedule_program_cycles ~priority ~config:machine
          st.program;
    }

let run_passes ?(compiled_eval = true) ?report ?record ~machine ~heuristics
    (p : prepared) passes st =
  List.fold_left
    (run_pass ~compiled:compiled_eval ~machine ~heuristics ~prof:p.prof
       ?report ?record)
    st passes

let run_before ?compiled_eval ~machine ~heuristics (p : prepared) =
  let st =
    {
      program = p.optimized;
      pf_stats = { Prefetch.Insert.candidates = 0; inserted = 0 };
      hb =
        {
          Hyperblock.Form.regions_seen = 0;
          regions_formed = 0;
          blocks_merged = 0;
          paths_selected = 0;
          paths_total = 0;
        };
      n_spills = 0;
      cycles = [||];
    }
  in
  match split heuristics with
  | [], _, _ -> st
  | before, _, _ ->
    run_passes ?compiled_eval ~machine ~heuristics p before
      { st with program = Ir.Func.copy_program p.optimized }

let run_under ?compiled_eval ?record ~machine ~heuristics (p : prepared)
    (st : partial) =
  (* A copy, stats record included, so a reused prefix is never
     touched. *)
  let st =
    {
      st with
      program = Ir.Func.copy_program st.program;
      hb = { st.hb with regions_seen = st.hb.regions_seen };
    }
  in
  match split heuristics with
  | _, None, _ -> (st, [])
  | _, Some pass, _ ->
    let reported = ref [] in
    let st =
      run_passes ?compiled_eval
        ~report:(fun fname d -> reported := (fname, d) :: !reported)
        ?record ~machine ~heuristics p [ pass ] st
    in
    (st, List.rev !reported)

(* Only hyperblock formation records its steps. *)
let walk_under ?(compiled_eval = true) ~machine ~heuristics ~step
    (st : partial) =
  match pass_under_study heuristics with
  | Some Hyperblock ->
    Option.map
      (List.map (fun (fname, d) -> (fname, Regions d)))
      (Hyperblock.Form.walk ~compiled:compiled_eval ~machine
         ~priority:heuristics.hb_priority ~step st.program)
  | _ -> None

let run_after ?compiled_eval ~machine ~heuristics (p : prepared)
    (st : partial) =
  let _, _, after = split heuristics in
  let st =
    run_passes ?compiled_eval ~machine ~heuristics p after st
  in
  let layout = Profile.Layout.prepare st.program in
  assert (Array.length st.cycles = layout.Profile.Layout.n_blocks);
  {
    prog = st.program;
    layout;
    schedule_cycles = st.cycles;
    hb_stats = st.hb;
    spills = st.n_spills;
    prefetches = st.pf_stats;
  }

let compile ?compiled_eval ~machine ~heuristics p =
  run_before ?compiled_eval ~machine ~heuristics p
  |> run_under ?compiled_eval ~machine ~heuristics p
  |> fst
  |> run_after ?compiled_eval ~machine ~heuristics p

let simulate ?noise ~(machine : Machine.Config.t)
    ~(dataset : Benchmarks.Bench.dataset) (p : prepared) (c : compiled) :
    Machine.Simulate.result =
  Machine.Simulate.run ?noise ~config:machine
    ~schedule_cycles:c.schedule_cycles
    ~overrides:(Benchmarks.Bench.overrides p.bench dataset)
    c.layout
