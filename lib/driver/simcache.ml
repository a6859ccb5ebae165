(* Decision-keyed compilation, artifact-keyed simulation sharing and
   trace replay.

   Small mutations of a priority function usually make the very same
   decisions and compile to the very same artifact, so most of the
   evaluator's time recompiles and re-simulates programs it has already
   measured.  Three stacked fast paths exploit that without ever
   changing a measured value:

   - the decision tier: a study varies one heuristic slot.  The passes
     before that slot's pass see the same program for every candidate,
     so [measure] runs them once per bench and machine
     (Compiler.run_before) and every candidate continues from a copy.
     When the passes after it are a pure function of the decisions it
     reports (Compiler.decided), a table maps the prefix's id and those
     decisions to the artifact's program digest and schedule lengths.
     A candidate whose decisions were seen before rebuilds both keys
     below from that entry, without running the later passes or
     printing its program.

   - artifact sharing: the digest of everything cycle-relevant — the
     canonical transformed program, the dynamic-event instruction order,
     bench + dataset, machine config and schedule lengths — keys a table
     of finished (noise-free) simulation results.  Genomes that compile
     to the same artifact share one simulation; a candidate whose
     artifact equals the baseline's hits the baseline's entry and scores
     speedup exactly 1.0 without simulating.

   - trace replay: the trace key drops the machine config and schedule
     lengths, i.e. it identifies runs whose dynamic *event stream* is
     provably identical even though their timing differs (the scheduling
     study: pure intra-block permutations that keep every event-emitting
     instruction in the same relative order).  The second simulation of
     a trace key records the event stream into a compact int array
     (Machine.Trace); later artifact misses with the same trace key
     replay it through a fresh Cache/Predictor as a tight array walk
     instead of re-interpreting tens of millions of steps.  Replay
     performs the identical float operations in the identical order, so
     cycles stay bit-identical.  The first simulation of a key records
     nothing: most keys are never seen again, and recording costs more
     than the fused simulation itself (and holds megabytes per trace).

   Keys are conservative: any textual difference in the canonical
   program, in the order of event-emitting instructions or in a pass's
   reported decisions produces a different key and a full compile and
   simulation.  Noise is *never* stored — callers layer the per-genome
   jitter on top (Simulate.jittered).

   In a forked worker pool the tables fill in the parent and are
   inherited read-only through fork; worker-side inserts (prefixes and
   decision entries included) die with the worker.  Baselines measured
   by pool children reach the parent as [entry] values ([measure],
   [adopt]) before the persistent workers fork.  Hit
   rates drop but results cannot diverge, so bit-identity holds at any
   -j.

   In a domains pool the tables are shared memory, so every table and
   stats access goes through one mutex.  Compilation, simulation and
   replay run outside the lock; two domains racing on the same key at
   worst both do the work (deterministically, to the same result) and
   the second store overwrites the first with an equal value — slower,
   never divergent.  A reused prefix is only ever copied, never
   mutated, so domains may copy it concurrently. *)

type stats = {
  mutable artifact_hits : int;
  mutable decision_hits : int;  (* artifact hits keyed by the decision
                                   tier, a subset of [artifact_hits] *)
  mutable replays : int;
  mutable simulations : int;  (* full interpreter runs *)
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

(* A decision-tier entry: enough to rebuild the trace and artifact keys
   of the artifact on any dataset, about a kilobyte. *)
type decided = { program : string; schedule : int array }

type t = {
  enabled : bool;
  max_artifacts : int;
  max_traces : int;
  max_trace_events : int option;  (* None = Trace.default_max_events *)
  artifacts : (string, Machine.Simulate.result) Hashtbl.t;
  traces : (string, Machine.Trace.t) Hashtbl.t;
  mutable trace_order : string list;  (* newest first, for eviction *)
  seen : (string, unit) Hashtbl.t;  (* trace keys simulated, bounded
                                       like [artifacts] *)
  decided : (string, decided) Hashtbl.t;  (* bounded like [artifacts] *)
  prefixes : (string, prefix list) Hashtbl.t;
      (* by bench name, newest first, at most two *)
  mutable prefixes_built : int;  (* the next prefix id *)
  stats : stats;
  lock : Mutex.t;  (* guards the tables, trace_order, prefixes_built and
                      stats *)
}

type entry = {
  trace_key : string;
  artifact_key : string;
  result : Machine.Simulate.result;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?(enabled = true) ?(max_artifacts = 8192) ?(max_traces = 8)
    ?max_trace_events () =
  {
    enabled;
    max_artifacts;
    max_traces;
    max_trace_events;
    artifacts = Hashtbl.create 256;
    traces = Hashtbl.create 8;
    trace_order = [];
    seen = Hashtbl.create 256;
    decided = Hashtbl.create 256;
    prefixes = Hashtbl.create 16;
    prefixes_built = 0;
    stats =
      { artifact_hits = 0; decision_hits = 0; replays = 0; simulations = 0 };
    lock = Mutex.create ();
  }

let stats t = t.stats

let dataset_tag = function
  | Benchmarks.Bench.Train -> "train"
  | Benchmarks.Bench.Novel -> "novel"

(* The canonical digest of a program's dynamic behaviour: the program
   with each block's instructions sorted by their (scheduling-invariant)
   ids, plus the *actual* order of the event-emitting instructions,
   which the scheduler may legally permute (independent loads) and which
   replay must therefore discriminate.  Dataset-independent. *)
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

(* The trace key: the bench + dataset prefix on a program digest. *)
let trace_key ~bench ~dataset program =
  Digest.to_hex
    (Digest.string
       (String.concat "" [ bench; "/"; dataset_tag dataset; "\n"; program ]))

(* Fold the timing-relevant rest on top: machine config and schedule
   lengths.  Same artifact key => same noise-free simulation result. *)
let artifact_key ~(machine : Machine.Config.t) (tk : string)
    (schedule_cycles : int array) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf tk;
  Buffer.add_string buf (Marshal.to_string machine []);
  Array.iter
    (fun len ->
      Buffer.add_string buf (string_of_int len);
      Buffer.add_char buf ',')
    schedule_cycles;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let store_trace t key tr =
  (* Replaying a truncated event stream would under-count cycles for
     every later artifact sharing this trace key; an incomplete trace
     must never enter the table.  [simulate] below only ever passes
     complete traces (run_traced returns None on overflow) — this guard
     keeps the invariant local instead of relying on the caller. *)
  if not (Machine.Trace.complete tr) then
    invalid_arg "Simcache.store_trace: incomplete trace";
  if Hashtbl.length t.traces >= t.max_traces then begin
    match List.rev t.trace_order with
    | [] -> ()
    | oldest :: _ ->
      Hashtbl.remove t.traces oldest;
      t.trace_order <- List.filter (fun k -> k <> oldest) t.trace_order
  end;
  Hashtbl.replace t.traces key tr;
  t.trace_order <- key :: t.trace_order

let store_artifact t key res =
  if Hashtbl.length t.artifacts >= t.max_artifacts then
    (* Crude but bounded: restart the table.  A first sighting records
       no trace, so a reset baseline artifact is simulated again in
       full on its next miss. *)
    Hashtbl.reset t.artifacts;
  Hashtbl.replace t.artifacts key res

let mark_seen t tk =
  if Hashtbl.length t.seen >= t.max_artifacts then Hashtbl.reset t.seen;
  Hashtbl.replace t.seen tk ()

let store_decided t key d =
  if Hashtbl.length t.decided >= t.max_artifacts then Hashtbl.reset t.decided;
  Hashtbl.replace t.decided key d

(* One noise-free measurement on [dataset] of the artifact whose program
   digests to [program] and schedules to [schedule_cycles]: a shared
   result, else a replay of its trace, else a full simulation of
   [compiled ()], which is forced only then.  [decided] marks keys the
   decision tier supplied. *)
let simulate_artifact t ~machine ~dataset (p : Compiler.prepared) ~program
    ~schedule_cycles ~(compiled : unit -> Compiler.compiled) ~decided =
  let overrides = Benchmarks.Bench.overrides p.Compiler.bench dataset in
  let tk =
    trace_key ~bench:p.Compiler.bench.Benchmarks.Bench.name ~dataset program
  in
  let ak = artifact_key ~machine tk schedule_cycles in
  (* One locked lookup classifies the call; the expensive work (full
     simulation or replay) then runs unlocked on the hashed-out values. *)
  let hit =
    locked t (fun () ->
        match Hashtbl.find_opt t.artifacts ak with
        | Some res ->
          t.stats.artifact_hits <- t.stats.artifact_hits + 1;
          if decided then t.stats.decision_hits <- t.stats.decision_hits + 1;
          `Artifact res
        | None -> (
          match Hashtbl.find_opt t.traces tk with
          | Some tr ->
            t.stats.replays <- t.stats.replays + 1;
            `Trace tr
          | None ->
            t.stats.simulations <- t.stats.simulations + 1;
            if Hashtbl.mem t.seen tk then `Record
            else begin
              mark_seen t tk;
              `Simulate
            end))
  in
  let res =
    match hit with
    | `Artifact res ->
      Gp.Telemetry.incr "evaluator.artifact_hits";
      if decided then Gp.Telemetry.incr "evaluator.decision_hits";
      res
    | (`Trace _ | `Simulate | `Record) as miss ->
      let res, tr =
        match miss with
        | `Trace tr ->
          Gp.Telemetry.incr "study.replayed";
          ( Gp.Telemetry.span "study.replay_s" (fun () ->
                Machine.Simulate.replay ~config:machine ~schedule_cycles tr),
            None )
        | `Simulate ->
          let c = compiled () in
          ( Gp.Telemetry.span "study.simulate_s" (fun () ->
                Machine.Simulate.run ~config:machine ~schedule_cycles
                  ~overrides c.Compiler.layout),
            None )
        | `Record ->
          let c = compiled () in
          Gp.Telemetry.span "study.simulate_s" (fun () ->
              Machine.Simulate.run_traced ~config:machine
                ?max_trace_events:t.max_trace_events ~schedule_cycles
                ~overrides c.Compiler.layout)
      in
      locked t (fun () ->
          Option.iter (store_trace t tk) tr;
          store_artifact t ak res);
      res
  in
  (res, { trace_key = tk; artifact_key = ak; result = res })

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
  else begin
    let res, e =
      simulate_artifact t ~machine ~dataset p
        ~program:(program_digest c.Compiler.prog)
        ~schedule_cycles:c.Compiler.schedule_cycles
        ~compiled:(fun () -> c)
        ~decided:false
    in
    (res, Some e)
  end

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

let measure t ?(compiled_eval = true) ~machine ~heuristics ~dataset
    (p : Compiler.prepared) =
  let compile f = Gp.Telemetry.span "study.compile_s" f in
  if not t.enabled then
    simulate_entry t ~machine ~dataset p
      (compile (fun () ->
           Compiler.compile ~compiled_eval ~machine ~heuristics p))
  else begin
    let pre = prefix t ~compiled_eval ~machine ~heuristics p in
    let decisions = Buffer.create 256 in
    let st =
      compile (fun () ->
          Compiler.run_under ~compiled_eval ~decisions ~machine ~heuristics p
            pre.partial)
    in
    let finish () =
      compile (fun () ->
          Compiler.run_after ~compiled_eval ~machine ~heuristics p st)
    in
    if not (Compiler.decided heuristics) then
      simulate_entry t ~machine ~dataset p (finish ())
    else begin
      let key =
        Digest.to_hex
          (Digest.string
             (string_of_int pre.id ^ ":" ^ Buffer.contents decisions))
      in
      let res, e =
        match locked t (fun () -> Hashtbl.find_opt t.decided key) with
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
              store_decided t key
                { program; schedule = c.Compiler.schedule_cycles });
          measured
      in
      (res, Some e)
    end
  end

let adopt t (e : entry) =
  if t.enabled then
    locked t (fun () ->
        store_artifact t e.artifact_key e.result;
        mark_seen t e.trace_key)
