(* Recorded decision steps, decision-keyed compilation and one table of
   measured runs.

   Small mutations of a priority function usually make the very same
   decisions and compile to the very same artifact, so most of the
   evaluator's time recompiles and re-simulates programs it has already
   measured.  Three stacked fast paths exploit that without ever
   changing a measured value:

   - recorded steps: with hyperblock formation under study, each
     function's formation is a sequence of steps, and the region a step
     attempts is a function of the prefix, the function and the
     decisions it has made so far.  Every live run records its steps
     (Hyperblock.Form.run ~record) in a table keyed by exactly that,
     and a later candidate first walks the table (Compiler.walk_under),
     deciding each recorded view with its own priority function.  A
     complete walk yields the decisions without copying the program,
     discovering regions, extracting features or if-converting; a
     missing step falls back to the live pass, which records as it
     goes.

   - the decision tier: a study varies one heuristic slot.  The passes
     before that slot's pass see the same program for every candidate,
     so [measure] runs them once per bench and machine
     (Compiler.run_before) and every candidate continues from a copy.
     When the passes after it are a pure function of the decisions it
     reports (Compiler.decided), a table maps the prefix's id and those
     decisions to the artifact's program digest and schedule lengths.
     A candidate whose decisions were seen before rebuilds its run key
     below from that entry, without running the later passes or
     printing its program.

   - measured runs: the run key — bench + dataset, the canonical
     transformed program with its dynamic-event instruction order, and
     the machine config — identifies runs whose dynamic *event stream*
     is provably identical even though their timing may differ (the
     scheduling study: pure intra-block permutations that keep every
     event-emitting instruction in the same relative order).  The
     machine is part of the key because the remainder below depends on
     cache geometry and penalties.  An entry holds the run's cycle
     summary — block-entry counts plus the schedule-independent
     remainder (Simulate.summarize) — the schedule lengths it was
     simulated under and its noise-free result under them.  A lookup
     under the stored lengths shares that result outright (an artifact
     hit: genomes that compile to the same artifact share one
     simulation, and a candidate whose artifact equals the baseline's
     scores speedup exactly 1.0 without simulating).  Under other
     lengths the summary is retimed by a dot product (Simulate.retime),
     exact by construction, and the stored run is kept, so the first
     schedule stays an artifact hit.  A new key is simulated and
     stored.

   Keys are conservative: any textual difference in the canonical
   program or in the order of event-emitting instructions, and any
   difference in a pass's reported decisions, produces a different key
   and a full compile and simulation, and a step key whose decisions so
   far differ in any label is a missing step.  Both decision keys come
   from one function, [key].  Noise is *never* stored — callers layer
   the per-genome jitter on top (Simulate.jittered).

   In a forked worker pool the tables fill in the parent and are
   inherited read-only through fork; worker-side inserts (prefixes,
   steps and decision entries included) die with the worker.  Baselines
   measured by pool children reach the parent as [entry] values
   ([measure], [adopt]) before the persistent workers fork.
   Hit rates drop but results cannot diverge, so bit-identity holds at
   any -j.

   Threads sharing one cache go through one mutex for every table and
   stats access.  Compilation and simulation run outside the lock; two
   threads racing on the same key at worst both do the work
   (deterministically, to the same summary) and the second store
   replaces the first with a run of that summary — slower, never
   divergent.  A reused prefix is only ever copied, never mutated, so
   threads may copy it concurrently. *)

type stats = {
  mutable artifact_hits : int;
  mutable decision_hits : int;  (* artifact hits keyed by the decision
                                   tier, a subset of [artifact_hits] *)
  mutable replays : int;  (* answers retimed from a stored summary *)
  mutable simulations : int;  (* full interpreter runs *)
  mutable step_hits : int;  (* candidates whose decisions came from
                               recorded steps *)
}

(* The passes before the pass under study, run once for one prepared
   bench.  [id] is unique within the table (and across a fork, since
   children count on from the parent), so it names everything the later
   passes read besides the decisions: the prepared program and bench,
   which passes ran and how, and the machine. *)
type prefix = {
  id : int;
  prepared : Compiler.prepared;  (* compared physically *)
  shape : Compiler.pass option * bool * Machine.Config.t;
      (* pass under study, prefetching on, machine *)
  partial : Compiler.partial;
}

(* A decision-tier entry: enough to rebuild the run key of the artifact
   on any dataset and to tell a hit from a replay, about a kilobyte. *)
type decided = { program : string; schedule : int array }

(* One measured run, as the run table holds it. *)
type entry = {
  key : string;  (* [run_key] *)
  summary : Machine.Simulate.summary;
  schedule : int array;  (* the lengths it was simulated under *)
  result : Machine.Simulate.result;  (* noise-free, under [schedule] *)
}

type t = {
  enabled : bool;
  max_artifacts : int;  (* bounds every table below but [prefixes] *)
  runs : (string, entry) Hashtbl.t;
  decided : (string, decided) Hashtbl.t;
  steps : (string, Hyperblock.Form.step) Hashtbl.t;
      (* by prefix id, function name and its decisions so far *)
  prefixes : (string, prefix list) Hashtbl.t;
      (* by bench name, newest first, at most two *)
  mutable prefixes_built : int;  (* the next prefix id *)
  stats : stats;
  lock : Mutex.t;  (* guards the tables, prefixes_built and stats *)
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?(enabled = true) ?(max_artifacts = 8192) () =
  {
    enabled;
    max_artifacts;
    runs = Hashtbl.create 256;
    decided = Hashtbl.create 256;
    steps = Hashtbl.create 256;
    prefixes = Hashtbl.create 16;
    prefixes_built = 0;
    stats =
      {
        artifact_hits = 0;
        decision_hits = 0;
        replays = 0;
        simulations = 0;
        step_hits = 0;
      };
    lock = Mutex.create ();
  }

let stats t = t.stats

(* The canonical digest of a program's dynamic behaviour: the program
   with each block's instructions sorted by their (scheduling-invariant)
   ids, plus the *actual* order of the event-emitting instructions,
   which the scheduler may legally permute (independent loads) and which
   reorders the cache's and predictor's view of the run, so a summary
   must discriminate it.  Dataset-independent. *)
let program_digest (prog : Ir.Func.program) : string =
  let buf = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun (f : Ir.Func.t) ->
      Format.fprintf ppf "func %s frame=%d params=%d@\n" f.Ir.Func.fname
        f.Ir.Func.frame_size
        (List.length f.Ir.Func.params);
      List.iter
        (fun (b : Ir.Func.block) ->
          Format.fprintf ppf "%s:@\n" b.Ir.Func.blabel;
          let sorted =
            List.sort
              (fun (a : Ir.Instr.t) (b : Ir.Instr.t) ->
                compare a.Ir.Instr.id b.Ir.Instr.id)
              b.Ir.Func.instrs
          in
          List.iter
            (fun (i : Ir.Instr.t) ->
              Format.fprintf ppf "%a@\n" Ir.Instr.pp i)
            sorted;
          Format.fprintf ppf "-> %a@\n" Ir.Func.pp_terminator b.Ir.Func.term)
        f.Ir.Func.blocks)
    prog.Ir.Func.funcs;
  Format.fprintf ppf "!events@\n";
  List.iter
    (fun (f : Ir.Func.t) ->
      List.iter
        (fun (b : Ir.Func.block) ->
          Format.fprintf ppf "%s.%s:@\n" f.Ir.Func.fname b.Ir.Func.blabel;
          List.iter
            (fun (i : Ir.Instr.t) ->
              match i.Ir.Instr.kind with
              | Ir.Instr.Load _ | Ir.Instr.Store _ | Ir.Instr.Prefetch _
              | Ir.Instr.Emit _ | Ir.Instr.Exit _ | Ir.Instr.Call _ ->
                Format.fprintf ppf "%a@\n" Ir.Instr.pp i
              | _ -> ())
            b.Ir.Func.instrs)
        f.Ir.Func.blocks)
    prog.Ir.Func.funcs;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The run key: bench + dataset, a program digest and the marshalled
   machine.  Same key => same cycle summary. *)
let run_key ~bench ~dataset ~(machine : Machine.Config.t) program =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          [
            bench; "/"; Benchmarks.Bench.dataset_name dataset; "\n"; program;
            Marshal.to_string machine [];
          ]))

(* The decision tier's and the step table's key: a digest of plain data
   (a prefix id with decisions, or with a function's decisions so far).
   Without sharing, equal values marshal to equal bytes however they
   were built; a string key is hashed whole, where [Hashtbl.hash] would
   read only a bounded prefix of a nested list. *)
let key v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])

(* Crude but bounded: a full table restarts. *)
let store t tbl key v =
  if Hashtbl.length tbl >= t.max_artifacts then Hashtbl.reset tbl;
  Hashtbl.replace tbl key v

(* One noise-free measurement on [dataset] of the artifact whose program
   digests to [program] and schedules to [schedule_cycles], with the
   run the table holds for it: the stored result under the stored
   lengths, else the stored summary retimed, else a full simulation of
   [compiled ()], which is forced only then and stored.  [decided] marks
   keys the decision tier supplied. *)
let simulate_artifact t ~machine ~dataset (p : Compiler.prepared) ~program
    ~schedule_cycles ~(compiled : unit -> Compiler.compiled) ~decided =
  let key =
    run_key ~bench:p.Compiler.bench.Benchmarks.Bench.name ~dataset ~machine
      program
  in
  (* One locked lookup classifies the call; the expensive work then runs
     unlocked on the hashed-out values. *)
  let hit =
    locked t (fun () ->
        match Hashtbl.find_opt t.runs key with
        | Some e when e.schedule = schedule_cycles ->
          t.stats.artifact_hits <- t.stats.artifact_hits + 1;
          if decided then t.stats.decision_hits <- t.stats.decision_hits + 1;
          `Artifact e
        | Some e ->
          t.stats.replays <- t.stats.replays + 1;
          `Replay e
        | None ->
          t.stats.simulations <- t.stats.simulations + 1;
          `Simulate)
  in
  match hit with
  | `Artifact e ->
    Gp.Telemetry.incr "evaluator.artifact_hits";
    if decided then Gp.Telemetry.incr "evaluator.decision_hits";
    (e.result, Some e)
  | `Replay e ->
    Gp.Telemetry.incr "study.replayed";
    ( Gp.Telemetry.span "study.replay_s" (fun () ->
          Machine.Simulate.retime ~schedule_cycles e.summary),
      Some e )
  | `Simulate ->
    let c = compiled () in
    let overrides = Benchmarks.Bench.overrides p.Compiler.bench dataset in
    let summary, result =
      Gp.Telemetry.span "study.simulate_s" (fun () ->
          let s =
            Machine.Simulate.summarize ~config:machine ~overrides
              c.Compiler.layout
          in
          (s, Machine.Simulate.retime ~schedule_cycles s))
    in
    let e = { key; summary; schedule = schedule_cycles; result } in
    locked t (fun () -> store t t.runs key e);
    (result, Some e)

(* One noise-free measurement of a compiled artifact, through the fast
   paths when enabled; with [enabled = false] every call is a fresh
   reference-engine simulation (the golden slow path). *)
let simulate_entry (t : t) ~(machine : Machine.Config.t)
    ~(dataset : Benchmarks.Bench.dataset) (p : Compiler.prepared)
    (c : Compiler.compiled) : Machine.Simulate.result * entry option =
  if not t.enabled then
    ( Gp.Telemetry.span "study.simulate_s" (fun () ->
          Machine.Simulate.run ~engine:`Reference ~config:machine
            ~schedule_cycles:c.Compiler.schedule_cycles
            ~overrides:(Benchmarks.Bench.overrides p.Compiler.bench dataset)
            c.Compiler.layout),
      None )
  else
    simulate_artifact t ~machine ~dataset p
      ~program:(program_digest c.Compiler.prog)
      ~schedule_cycles:c.Compiler.schedule_cycles
      ~compiled:(fun () -> c)
      ~decided:false

let simulate t ~machine ~dataset p c =
  fst (simulate_entry t ~machine ~dataset p c)

(* The passes before the pass under study for [p], from the table or
   run now.  A bench keeps at most two prefixes, the newest: in a study,
   the candidates' and the baseline genome's (whose prefix is the whole
   pipeline).  Decision entries keyed on an evicted prefix's id are never
   hit again and age out with the table. *)
let prefix t ~compiled_eval ~machine ~heuristics (p : Compiler.prepared) =
  let bench = p.Compiler.bench.Benchmarks.Bench.name in
  let shape =
    ( Compiler.pass_under_study heuristics,
      heuristics.Compiler.pf_confidence <> None,
      machine )
  in
  let mine e = e.prepared == p in
  let cached =
    locked t (fun () ->
        match Hashtbl.find_opt t.prefixes bench with
        | Some es -> List.find_opt (fun e -> mine e && e.shape = shape) es
        | None -> None)
  in
  match cached with
  | Some e -> e
  | None ->
    let partial =
      Gp.Telemetry.span "study.compile_s" (fun () ->
          Compiler.run_before ~compiled_eval ~machine ~heuristics p)
    in
    locked t (fun () ->
        let e = { id = t.prefixes_built; prepared = p; shape; partial } in
        t.prefixes_built <- e.id + 1;
        let others =
          match Hashtbl.find_opt t.prefixes bench with
          | Some es -> List.filter (fun o -> mine o && o.shape <> shape) es
          | None -> []
        in
        Hashtbl.replace t.prefixes bench
          (match others with o :: _ -> [ e; o ] | [] -> [ e ]);
        e)

(* The first compile of a bench needs its training profile; running it
   here keeps that interpreter run out of [study.compile_s]. *)
let profile (p : Compiler.prepared) =
  if not (Lazy.is_val p.Compiler.prof) then
    Gp.Telemetry.span "study.profile_s" (fun () ->
        ignore (Lazy.force p.Compiler.prof))

let measure t ?(compiled_eval = true) ~machine ~heuristics ~dataset
    (p : Compiler.prepared) =
  profile p;
  let compile f = Gp.Telemetry.span "study.compile_s" f in
  if not t.enabled then
    simulate_entry t ~machine ~dataset p
      (compile (fun () ->
           Compiler.compile ~compiled_eval ~machine ~heuristics p))
  else begin
    let pre = prefix t ~compiled_eval ~machine ~heuristics p in
    let under ?record () =
      compile (fun () ->
          Compiler.run_under ~compiled_eval ?record ~machine ~heuristics p
            pre.partial)
    in
    let after st =
      compile (fun () ->
          Compiler.run_after ~compiled_eval ~machine ~heuristics p st)
    in
    if not (Compiler.decided heuristics) then
      simulate_entry t ~machine ~dataset p (after (fst (under ())))
    else begin
      let step_key fname decided = key (pre.id, fname, decided) in
      let record fname decided step =
        locked t (fun () -> store t t.steps (step_key fname decided) step)
      in
      let walked =
        compile (fun () ->
            Compiler.walk_under ~compiled_eval ~machine ~heuristics
              ~step:(fun fname decided ->
                locked t (fun () ->
                    Hashtbl.find_opt t.steps (step_key fname decided)))
              pre.partial)
      in
      (* The pass under study runs, recording its steps, when the walk
         misses one; after a complete walk it runs only if the artifact
         must be built. *)
      let decisions, st =
        match walked with
        | Some decisions ->
          locked t (fun () -> t.stats.step_hits <- t.stats.step_hits + 1);
          Gp.Telemetry.incr "evaluator.step_hits";
          (decisions, lazy (fst (under ())))
        | None ->
          let st, decisions = under ~record () in
          (decisions, Lazy.from_val st)
      in
      let finish () = after (Lazy.force st) in
      let tier_key = key (pre.id, decisions) in
      match locked t (fun () -> Hashtbl.find_opt t.decided tier_key) with
      | Some d ->
        simulate_artifact t ~machine ~dataset p ~program:d.program
          ~schedule_cycles:d.schedule ~compiled:finish ~decided:true
      | None ->
        let c = finish () in
        let program = program_digest c.Compiler.prog in
        let measured =
          simulate_artifact t ~machine ~dataset p ~program
            ~schedule_cycles:c.Compiler.schedule_cycles
            ~compiled:(fun () -> c)
            ~decided:false
        in
        locked t (fun () ->
            store t t.decided tier_key
              { program; schedule = c.Compiler.schedule_cycles });
        measured
    end
  end

let adopt t (e : entry) =
  if t.enabled then locked t (fun () -> store t t.runs e.key e)
