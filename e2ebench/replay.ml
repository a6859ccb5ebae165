(* The inner layers of a traced study, re-executed from outside through
   the same public functions on the same inputs: each bench's
   front end, optimizer and profiling run; the baselines; and, for every
   (canonical genome, case) the evaluators were asked about, the
   compile pass sequence and the simulation.  Each re-execution is a
   replayed span under the live span whose work it models, and every
   replayed fitness must be bit-equal to what the evaluator answered. *)

module Study = Driver.Study
module Compiler = Driver.Compiler
module Simcache = Driver.Simcache

(* One evaluator call as the harness made it, and what it answered. *)
type batch = {
  span : int;  (* the live Evaluator.evaluate_batch span *)
  dataset : Benchmarks.Bench.dataset;
  genomes : Gp.Expr.genome array;
  cases : int list;
  rows : float array array;
}

(* What a replay needs of a study context: the prepared benches and the
   baselines, without the context's simulation cache and engines, which
   hold large event traces and need not outlive the study. *)
type inputs = {
  kind : Study.kind;
  machine : Machine.Config.t;
  compiled_eval : bool;
  prepared : Compiler.prepared array;
  baseline_train : (float * int) array;
  baseline_novel : (float * int) array;
}

let inputs_of (c : Study.context) =
  {
    kind = c.kind;
    machine = c.machine;
    compiled_eval = c.compiled_eval;
    prepared = c.prepared;
    baseline_train = c.baseline_train;
    baseline_novel = c.baseline_novel;
  }

(* Counts and time splits that spans alone do not carry. *)
let ledger : (string, float) Hashtbl.t = Hashtbl.create 32

let add name v =
  Hashtbl.replace ledger name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt ledger name))

let get name = Option.value ~default:0.0 (Hashtbl.find_opt ledger name)
let bits = Int64.bits_of_float

let opt_config_of = function
  | Study.Prefetch_study -> Opt.Pipeline.no_unroll
  | Study.Hyperblock_study | Study.Regalloc_study | Study.Sched_study ->
    Opt.Pipeline.default

(* [Compiler.prepare], call by call. *)
let prepare ~parent kind (b : Benchmarks.Bench.t) =
  Spans.replayed ~parent "Compiler.prepare" (fun id ->
      let step name f = Spans.replayed ~parent:id name (fun _ -> f ()) in
      let prog =
        step "Frontend.Minic.compile" (fun () ->
            Frontend.Minic.compile b.Benchmarks.Bench.source)
      in
      step "Opt.Pipeline.run" (fun () ->
          Opt.Pipeline.run ~config:(opt_config_of kind) prog);
      let layout = step "Profile.Layout.prepare" (fun () -> Profile.Layout.prepare prog) in
      ignore
        (step "Profile.Prof.collect" (fun () ->
             Profile.Prof.collect ~overrides:b.Benchmarks.Bench.train layout)))

(* [Compiler.compile], pass by pass. *)
let compile ~parent (ctx : inputs) (p : Compiler.prepared) g =
  let compiled = ctx.compiled_eval and machine = ctx.machine in
  let h = Study.heuristics_with ctx.kind g in
  Spans.replayed ~parent "Compiler.compile" (fun id ->
      let pass name f = Spans.replayed ~parent:id name (fun _ -> f ()) in
      let prog = Ir.Func.copy_program p.Compiler.optimized in
      let prefetches =
        match h.Compiler.pf_confidence with
        | None -> { Prefetch.Insert.candidates = 0; inserted = 0 }
        | Some conf ->
          pass "Prefetch.Insert.run_batched" (fun () ->
              Prefetch.Insert.run_batched
                ~decision_batch:
                  (Prefetch.Insert.decision_batch_of_expr ~compiled ~machine
                     prog conf)
                prog)
      in
      let hb_stats =
        pass "Hyperblock.Form.run" (fun () ->
            Hyperblock.Form.run ~config:Hyperblock.Form.default_config ~compiled
              ~machine ~prof:p.Compiler.prof ~priority:h.Compiler.hb_priority
              prog)
      in
      let spills =
        pass "Regalloc.Alloc.run" (fun () ->
            Regalloc.Alloc.run
              ~savings_batch:
                (Regalloc.Alloc.savings_batch_of_expr ~compiled
                   h.Compiler.ra_savings)
              ~machine prog)
      in
      let schedule_cycles =
        pass "List_sched.schedule_program_cycles" (fun () ->
            let priority =
              if h.Compiler.sched_priority = Sched.Priority.baseline_expr then
                Sched.Priority.baseline
              else Sched.Priority.of_expr ~compiled h.Compiler.sched_priority
            in
            Sched.List_sched.schedule_program_cycles ~priority ~config:machine
              prog)
      in
      let layout = pass "Profile.Layout.prepare" (fun () -> Profile.Layout.prepare prog) in
      add "compile.candidates"
        (float_of_int
           (prefetches.Prefetch.Insert.candidates
          + hb_stats.Hyperblock.Form.paths_total));
      add "regalloc.spills" (float_of_int spills);
      add "prefetch.inserted" (float_of_int prefetches.Prefetch.Insert.inserted);
      { Compiler.prog; layout; schedule_cycles; hb_stats; spills; prefetches })

(* [Simcache.simulate], with its time split by which path answered. *)
let simulate ~parent sim (ctx : inputs) p c ~dataset =
  let st = Simcache.stats sim in
  let sims0 = st.Simcache.simulations and replays0 = st.Simcache.replays in
  let t0 = Unix.gettimeofday () in
  let res =
    Spans.replayed ~parent "Simcache.simulate" (fun _ ->
        Simcache.simulate sim ~machine:ctx.machine ~dataset p c)
  in
  let dt = Unix.gettimeofday () -. t0 in
  if st.Simcache.simulations > sims0 then begin
    add "simulate.s" dt;
    add "simulate.dynamic_instrs"
      (float_of_int res.Machine.Simulate.dynamic_instrs)
  end
  else if st.Simcache.replays > replays0 then add "simulate.replay_s" dt
  else add "simcache.hit_s" dt;
  res

(* The study's noise model: a draw keyed on (genome, case). *)
let cycles_of (ctx : inputs) g case (res : Machine.Simulate.result) =
  let noise =
    Option.map
      (fun amp -> (Random.State.make [| Hashtbl.hash (g, case) |], amp))
      (Study.noise_of ctx.kind)
  in
  Machine.Simulate.jittered ?noise res.Machine.Simulate.cycles

let baselines (ctx : inputs) = function
  | Benchmarks.Bench.Train -> ctx.baseline_train
  | Benchmarks.Bench.Novel -> ctx.baseline_novel

let fitness ~parent sim (ctx : inputs) cg case dataset =
  let p = ctx.prepared.(case) in
  let res = simulate ~parent sim ctx p (compile ~parent ctx p cg) ~dataset in
  let cycles = cycles_of ctx cg case res in
  let base_cycles, base_sum = (baselines ctx dataset).(case) in
  Driver.Evaluator.sanitize
    (if res.Machine.Simulate.checksum <> base_sum || cycles <= 0.0 then 0.0
     else base_cycles /. cycles)

(* State shared by the studies of one round: every fitness replayed so
   far (a pair is re-executed once, on its first request) and every
   canonical key seen. *)
type round = {
  values : (Benchmarks.Bench.dataset * string * int, float) Hashtbl.t;
  keys : (string, unit) Hashtbl.t;
}

let new_round () = { values = Hashtbl.create 1024; keys = Hashtbl.create 1024 }

(* Replay one study; returns the number of replayed values that are not
   bit-equal to the live ones. *)
let study r ~create_span (ctx : inputs) (batches : batch list) =
  let mismatches = ref 0 in
  Array.iter
    (fun (p : Compiler.prepared) ->
      prepare ~parent:create_span ctx.kind p.Compiler.bench)
    ctx.prepared;
  let sim = Simcache.create () in
  let base = Study.baseline_genome_of ctx.kind in
  List.iter
    (fun dataset ->
      Spans.replayed ~parent:create_span "study.baseline" (fun id ->
          Array.iteri
            (fun case p ->
              let res = simulate ~parent:id sim ctx p (compile ~parent:id ctx p base) ~dataset in
              let cycles, sum = (baselines ctx dataset).(case) in
              if
                bits (cycles_of ctx base case res) <> bits cycles
                || res.Machine.Simulate.checksum <> sum
              then incr mismatches)
            ctx.prepared))
    [ Benchmarks.Bench.Train; Benchmarks.Bench.Novel ];
  let fs = Study.feature_set_of ctx.kind in
  List.iter
    (fun b ->
      Array.iteri
        (fun gi g ->
          let cg =
            Spans.replayed ~parent:b.span "Gp.Simplify.genome" (fun _ ->
                Gp.Simplify.genome g)
          in
          let key = Gp.Sexp.to_string fs cg in
          add "simplify.calls" 1.0;
          Hashtbl.replace r.keys key ();
          List.iteri
            (fun ci case ->
              let v =
                match Hashtbl.find_opt r.values (b.dataset, key, case) with
                | Some v -> v
                | None ->
                  let v = fitness ~parent:b.span sim ctx cg case b.dataset in
                  Hashtbl.add r.values (b.dataset, key, case) v;
                  v
              in
              if bits v <> bits b.rows.(gi).(ci) then incr mismatches)
            b.cases)
        b.genomes)
    batches;
  let st = Simcache.stats sim in
  add "simcache.artifact_hits" (float_of_int st.Simcache.artifact_hits);
  add "simcache.replays" (float_of_int st.Simcache.replays);
  add "simcache.simulations" (float_of_int st.Simcache.simulations);
  !mismatches
