(* Artifact-keyed simulation sharing and trace replay.

   Small mutations of a priority function usually compile to the very
   same artifact, so most of the evaluator's time re-simulates programs
   it has already measured.  Two stacked fast paths exploit that without
   ever changing a measured value:

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
   program or in the order of event-emitting instructions produces a
   different key and a full simulation.  Noise is *never* stored —
   callers layer the per-genome jitter on top (Simulate.jittered).

   In a forked worker pool the tables fill in the parent and are
   inherited read-only through fork; worker-side inserts die with the
   worker.  Baselines measured by pool children reach the parent as
   [entry] values ([simulate_entry], [adopt]) before the persistent
   workers fork.  Hit rates drop but results cannot diverge, so
   bit-identity holds at any -j.

   In a domains pool the tables are shared memory, so every table and
   stats access goes through one mutex.  Simulation and replay run
   outside the lock; two domains racing on the same key at worst both
   simulate (deterministically, to the same result) and the second store
   overwrites the first with an equal value — slower, never divergent. *)

type stats = {
  mutable artifact_hits : int;
  mutable replays : int;
  mutable simulations : int;  (* full interpreter runs *)
}

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
  stats : stats;
  lock : Mutex.t;  (* guards the tables, trace_order and stats *)
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
    stats = { artifact_hits = 0; replays = 0; simulations = 0 };
    lock = Mutex.create ();
  }

let stats t = t.stats

let dataset_tag = function
  | Benchmarks.Bench.Train -> "train"
  | Benchmarks.Bench.Novel -> "novel"

(* The canonical digest of a compiled artifact's dynamic behaviour: the
   transformed program with each block's instructions sorted by their
   (scheduling-invariant) ids, plus the *actual* order of the
   event-emitting instructions, which the scheduler may legally permute
   (independent loads) and which replay must therefore discriminate. *)
let trace_key ~(dataset : Benchmarks.Bench.dataset) (p : Compiler.prepared)
    (c : Compiler.compiled) : string =
  let buf = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer buf in
  Buffer.add_string buf p.Compiler.bench.Benchmarks.Bench.name;
  Buffer.add_char buf '/';
  Buffer.add_string buf (dataset_tag dataset);
  Buffer.add_char buf '\n';
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
    c.Compiler.prog.Ir.Func.funcs;
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
    c.Compiler.prog.Ir.Func.funcs;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

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
    (* Crude but bounded: restart the table.  Baseline artifacts get
       re-simulated via trace replay on the next miss. *)
    Hashtbl.reset t.artifacts;
  Hashtbl.replace t.artifacts key res

let mark_seen t tk =
  if Hashtbl.length t.seen >= t.max_artifacts then Hashtbl.reset t.seen;
  Hashtbl.replace t.seen tk ()

(* One noise-free measurement of a compiled artifact, through the fast
   paths when enabled; with [enabled = false] every call is a fresh
   reference-engine simulation (the golden slow path). *)
let simulate_entry (t : t) ~(machine : Machine.Config.t)
    ~(dataset : Benchmarks.Bench.dataset) (p : Compiler.prepared)
    (c : Compiler.compiled) : Machine.Simulate.result * entry option =
  let overrides = Benchmarks.Bench.overrides p.Compiler.bench dataset in
  if not t.enabled then
    ( Gp.Telemetry.span "study.simulate_s" (fun () ->
          Machine.Simulate.run ~engine:`Reference ~config:machine
            ~schedule_cycles:c.Compiler.schedule_cycles ~overrides
            c.Compiler.layout),
      None )
  else begin
    let tk = trace_key ~dataset p c in
    let ak = artifact_key ~machine tk c.Compiler.schedule_cycles in
    (* One locked lookup classifies the call; the expensive work (full
       simulation or replay) then runs unlocked on the hashed-out values. *)
    let hit =
      locked t (fun () ->
          match Hashtbl.find_opt t.artifacts ak with
          | Some res ->
            t.stats.artifact_hits <- t.stats.artifact_hits + 1;
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
        res
      | (`Trace _ | `Simulate | `Record) as miss ->
        let res, tr =
          match miss with
          | `Trace tr ->
            Gp.Telemetry.incr "study.replayed";
            ( Gp.Telemetry.span "study.replay_s" (fun () ->
                  Machine.Simulate.replay ~config:machine
                    ~schedule_cycles:c.Compiler.schedule_cycles tr),
              None )
          | `Simulate ->
            ( Gp.Telemetry.span "study.simulate_s" (fun () ->
                  Machine.Simulate.run ~config:machine
                    ~schedule_cycles:c.Compiler.schedule_cycles ~overrides
                    c.Compiler.layout),
              None )
          | `Record ->
            Gp.Telemetry.span "study.simulate_s" (fun () ->
                Machine.Simulate.run_traced ~config:machine
                  ?max_trace_events:t.max_trace_events
                  ~schedule_cycles:c.Compiler.schedule_cycles ~overrides
                  c.Compiler.layout)
        in
        locked t (fun () ->
            Option.iter (store_trace t tk) tr;
            store_artifact t ak res);
        res
    in
    (res, Some { trace_key = tk; artifact_key = ak; result = res })
  end

let simulate t ~machine ~dataset p c =
  fst (simulate_entry t ~machine ~dataset p c)

let adopt t (e : entry) =
  if t.enabled then
    locked t (fun () ->
        store_artifact t e.artifact_key e.result;
        mark_seen t e.trace_key)
