(* The nine differential oracles.

   Each oracle checks one redundancy the repo's results rest on, on one
   seeded random input, and answers Pass, Skip (the input doesn't
   exercise the pair — e.g. fork unavailable) or Fail with a replayable,
   already-shrunk counterexample report:

   - engine:     Profile.Interp.run = run_reference, through the full
                 pipeline on a random program, random study/machine and
                 a (sometimes random) heuristic, on both datasets;
   - replay:     a run's cycle summary retimed under a seeded random
                 schedule = a fresh reference simulation under it;
   - cache:      Driver.Simcache hits (artifact and summary) = fresh
                 simulation, and Driver.Evaluator memo/disk hits =
                 recomputation on a fresh engine;
   - simplify:   Eval = Eval . Simplify bit-exactly on finite envs;
   - checkpoint: Evolve.run interrupted + resumed = straight run;
   - parmap:     Parmap's [`Seq] reference = a warm fork pool at -jN
                 over several batches, one with a napping straggler;
   - compiled_vs_walk: Evalc compiled bytecode = the Eval tree-walker,
                 bit-exactly, through run_batch / run_batch_bool;
   - chaos_vs_clean: a fault-injected supervised evolution run (and a
                 resume over its damaged artifacts) = the fault-free
                 [`Seq] -j1 reference;
   - served_vs_local: a study evaluated against a [metaopt serve]
                 daemon, with and without a worker killed inside it,
                 = the same study on a local pool.

   All float comparisons are on Int64.bits_of_float.  Failure modes are
   classified (divergence vs unexpected exception) and the shrinker
   preserves the class, so minimization cannot turn a divergence into a
   crash report or vice versa. *)

type verdict = Pass | Skip of string | Fail of string

type t = {
  name : string;
  weight : int;  (* cost divisor: a campaign of [count] runs count/weight trials *)
  check : int -> verdict;
}

let bits = Int64.bits_of_float

(* --- Shared report plumbing -------------------------------------------- *)

let replay_line name seed =
  Printf.sprintf "replay: metaopt fuzz --oracle %s --seed %d --count 1" name
    seed

let report ~oracle ~seed ~detail ~body =
  String.concat "\n"
    ([ Printf.sprintf "oracle: %s" oracle;
       Printf.sprintf "seed: %d" seed;
       replay_line oracle seed ]
    @ detail
    @ (if body = "" then [] else [ "counterexample:"; body ]))

(* Fingerprint an exception coarsely enough that the same bug at a
   different source position matches (digits stripped), but finely
   enough that shrinking can't wander from, say, a lexer error to an
   unknown-function error. *)
let exn_class e =
  let s = Printexc.to_string e in
  String.concat ""
    (List.filter_map
       (fun c ->
         if c >= '0' && c <= '9' then None else Some (String.make 1 c))
       (List.init (String.length s) (String.get s)))

(* Run [diverges] (None = agree, Some desc = divergence; may raise on
   infrastructure errors) on a generated value, shrinking failures with
   [candidates] while preserving the failure class. *)
let check_generated ~oracle ~seed ~candidates ~describe ~diverges x0 =
  match diverges x0 with
  | None -> Pass
  | Some desc ->
    let fails x = match diverges x with Some _ -> true | None -> false in
    let small, steps =
      Shrink.greedy ~candidates ~fails:(fun x -> try fails x with _ -> false)
        x0
    in
    let desc = match try diverges small with _ -> None with
      | Some d -> d
      | None -> desc
    in
    Fail
      (report ~oracle ~seed
         ~detail:
           [ Printf.sprintf "mismatch: %s" desc;
             Printf.sprintf "shrink: %d greedy steps" steps ]
         ~body:(describe small))
  | exception e0 ->
    let cls = exn_class e0 in
    let fails x =
      match diverges x with
      | exception e -> exn_class e = cls
      | _ -> false
    in
    let small, steps = Shrink.greedy ~candidates ~fails x0 in
    Fail
      (report ~oracle ~seed
         ~detail:
           [ Printf.sprintf "unexpected exception: %s"
               (Printexc.to_string e0);
             Printf.sprintf "shrink: %d greedy steps" steps ]
         ~body:(describe small))

(* --- Program-based oracles --------------------------------------------- *)

let mk_bench (p : Minic_gen.prog) : Benchmarks.Bench.t =
  {
    Benchmarks.Bench.name = Printf.sprintf "fuzz%d" p.Minic_gen.seed;
    suite = Benchmarks.Bench.Misc;
    fp = true;
    description = "generated by the differential fuzzer";
    source = Minic_gen.source p;
    train = p.Minic_gen.train;
    novel = p.Minic_gen.novel;
  }

let kinds =
  [|
    Driver.Study.Hyperblock_study; Driver.Study.Sched_study;
    Driver.Study.Regalloc_study; Driver.Study.Prefetch_study;
  |]

type prog_ctx = {
  kind : Driver.Study.kind;
  machine : Machine.Config.t;
  heur : Driver.Compiler.heuristics;
  heur_desc : string;
}

(* The study, machine and heuristic under test depend only on the seed,
   so they stay fixed while the program shrinks. *)
let prog_ctx_of seed : prog_ctx =
  let rng = Random.State.make [| 0xfacade; seed |] in
  let kind = kinds.(Random.State.int rng (Array.length kinds)) in
  let machine = Driver.Study.machine_of kind in
  let g, heur_desc =
    if Random.State.bool rng then
      (Driver.Study.baseline_genome_of kind, "baseline")
    else
      let cfg = Gp.Gen.default_config (Driver.Study.feature_set_of kind) in
      let g =
        Gp.Gen.genome cfg rng ~sort:(Driver.Study.sort_of kind) ~full:false
          (2 + Random.State.int rng 3)
      in
      (g, Gp.Sexp.to_string (Driver.Study.feature_set_of kind) g)
  in
  {
    kind;
    machine;
    heur = Driver.Study.heuristics_with kind g;
    heur_desc;
  }

let compile_prog ctx (p : Minic_gen.prog) =
  let bench = mk_bench p in
  let prepared = Driver.Compiler.prepare bench in
  let compiled =
    Driver.Compiler.compile ~machine:ctx.machine ~heuristics:ctx.heur prepared
  in
  (bench, prepared, compiled)

(* Everything observable about one simulation, bit-exact, or the
   exception it raised (two engines raising identically still agree). *)
type sim_sig = (Int64.t * Int64.t list * int * int * int * int, string) result

let sim_sig f : sim_sig =
  match f () with
  | (r : Machine.Simulate.result) ->
    Ok
      ( bits r.Machine.Simulate.cycles,
        List.map bits r.Machine.Simulate.output,
        r.Machine.Simulate.checksum,
        r.Machine.Simulate.dynamic_instrs,
        r.Machine.Simulate.branches,
        r.Machine.Simulate.mispredicts )
  | exception e -> Error (Printexc.to_string e)

let show_sig = function
  | Ok (cyc, out, ck, dyn, br, mp) ->
    Printf.sprintf "cycles=%Lx checksum=%d dyn=%d br=%d mp=%d out=[%s]" cyc ck
      dyn br mp
      (String.concat ";" (List.map (Printf.sprintf "%Lx") out))
  | Error e -> Printf.sprintf "exception:%s" e

let ctx_detail ctx =
  [
    Printf.sprintf "study: %s, machine: %s"
      (Driver.Study.kind_name ctx.kind)
      ctx.machine.Machine.Config.name;
    Printf.sprintf "heuristic: %s" ctx.heur_desc;
  ]

(* The first divergence [check] reports on the train, then the novel
   dataset. *)
let on_both_datasets check =
  match check Benchmarks.Bench.Train "train" with
  | Some d -> Some d
  | None -> check Benchmarks.Bench.Novel "novel"

(* engine: fast vs reference interpreter on the compiled artifact. *)
let engine_diverges ctx (p : Minic_gen.prog) : string option =
  let bench, _, c = compile_prog ctx p in
  let check dataset tag =
    let overrides = Benchmarks.Bench.overrides bench dataset in
    let run engine () =
      Machine.Simulate.run ~engine ~overrides ~config:ctx.machine
        ~schedule_cycles:c.Driver.Compiler.schedule_cycles
        c.Driver.Compiler.layout
    in
    let fast = sim_sig (run `Fast) and slow = sim_sig (run `Reference) in
    if fast = slow then None
    else
      Some
        (Printf.sprintf "%s dataset: fast %s / reference %s" tag
           (show_sig fast) (show_sig slow))
  in
  on_both_datasets check

(* replay: the summary of one run retimed under a seeded random
   schedule = a fresh reference-engine simulation under that schedule,
   on both datasets. *)
let replay_diverges ctx (p : Minic_gen.prog) : string option =
  let bench, _, c = compile_prog ctx p in
  let rng = Random.State.make [| 0x7e71e; p.Minic_gen.seed |] in
  let schedule_cycles =
    Array.map
      (fun _ -> 1 + Random.State.int rng 16)
      c.Driver.Compiler.schedule_cycles
  in
  let check dataset tag =
    let overrides = Benchmarks.Bench.overrides bench dataset in
    let layout = c.Driver.Compiler.layout in
    let retimed =
      sim_sig (fun () ->
          Machine.Simulate.retime ~schedule_cycles
            (Machine.Simulate.summarize ~overrides ~config:ctx.machine layout))
    and fresh =
      sim_sig (fun () ->
          Machine.Simulate.run ~engine:`Reference ~overrides
            ~config:ctx.machine ~schedule_cycles layout)
    in
    if retimed = fresh then None
    else
      Some
        (Printf.sprintf "%s dataset: retimed summary %s / reference run %s" tag
           (show_sig retimed) (show_sig fresh))
  in
  on_both_datasets check

(* cache (simulation half): Simcache's staged compile and decision tier,
   artifact hit and summary answer vs a fresh compile and simulation.
   The program goes through [Simcache.measure] three times: under the
   heuristic under test (its passes before the studied slot's pass run
   once, and the decision tier fills), under the same heuristic with
   that slot rewritten to make the same decisions (a decision hit
   whenever the passes after it are baseline, and with hyperblock
   formation under study found from the recorded steps, which the
   oracle checks by the cache's [step_hits]), and under a random
   genome for the slot, whose decisions a key missing any input could
   confuse with the first's.  Each must equal a fresh simulation of a
   fresh [Compiler.compile] under the same heuristics.  Then two more
   schedules go through [Simcache.simulate] (the sched study's pattern:
   a known run key under a new schedule is answered from its stored
   summary). *)
let simcache_diverges ctx (p : Minic_gen.prog) : string option =
  let bench, prepared, c1 = compile_prog ctx p in
  let c2 =
    (* a second compilation under a different scheduling priority: same
       dynamic events whenever the scheduler only permuted within blocks *)
    let rng = Random.State.make [| 0x5c4ed; p.Minic_gen.seed |] in
    let cfg = Gp.Gen.default_config Sched.Priority.feature_set in
    let g = Gp.Gen.gen_real cfg rng ~full:false 3 in
    Driver.Compiler.compile ~machine:ctx.machine
      ~heuristics:{ ctx.heur with Driver.Compiler.sched_priority = g }
      prepared
  in
  (* c2's program re-timed: its run key under a new schedule *)
  let c3 =
    {
      c2 with
      Driver.Compiler.schedule_cycles =
        Array.map succ c2.Driver.Compiler.schedule_cycles;
    }
  in
  (* The studied slot doubled (positive scaling keeps every ranking and
     threshold test) or, for a prefetch confidence, conjoined with
     itself. *)
  let same_decisions =
    let open Driver.Compiler in
    let h = ctx.heur in
    let double e = Gp.Expr.Rmul (e, Gp.Expr.Rconst 2.0) in
    match ctx.kind with
    | Driver.Study.Hyperblock_study ->
      { h with hb_priority = double h.hb_priority }
    | Driver.Study.Regalloc_study -> { h with ra_savings = double h.ra_savings }
    | Driver.Study.Sched_study ->
      { h with sched_priority = double h.sched_priority }
    | Driver.Study.Prefetch_study ->
      {
        h with
        pf_confidence =
          Option.map (fun b -> Gp.Expr.Band (b, b)) h.pf_confidence;
      }
  in
  let random_slot =
    let rng = Random.State.make [| 0xdec1de; p.Minic_gen.seed |] in
    let fs = Driver.Study.feature_set_of ctx.kind in
    Driver.Study.heuristics_with ctx.kind
      (Gp.Gen.genome (Gp.Gen.default_config fs) rng
         ~sort:(Driver.Study.sort_of ctx.kind) ~full:false
         (2 + Random.State.int rng 3))
  in
  let sim = Driver.Simcache.create () in
  let overrides = Benchmarks.Bench.overrides bench Benchmarks.Bench.Train in
  let run c =
    Machine.Simulate.run ~engine:`Fast ~overrides ~config:ctx.machine
      ~schedule_cycles:c.Driver.Compiler.schedule_cycles
      c.Driver.Compiler.layout
  in
  let fresh c = sim_sig (fun () -> run c) in
  let recompiled heuristics =
    sim_sig (fun () ->
        run (Driver.Compiler.compile ~machine:ctx.machine ~heuristics prepared))
  in
  let cached c =
    sim_sig (fun () ->
        Driver.Simcache.simulate sim ~machine:ctx.machine
          ~dataset:Benchmarks.Bench.Train prepared c)
  in
  let staged heuristics =
    sim_sig (fun () ->
        fst
          (Driver.Simcache.measure sim ~machine:ctx.machine ~heuristics
             ~dataset:Benchmarks.Bench.Train prepared))
  in
  (* order matters: the first [staged] call populates the run table and
     the decision tier, which the next two consult; c2 retimes c1's
     summary when it shares c1's run key (else it simulates and stores
     its own run), and c3 always retimes the summary c2's run key
     holds *)
  let step tag a b =
    if a = b then None
    else
      Some
        (Printf.sprintf "%s: cached %s / fresh %s" tag (show_sig a)
           (show_sig b))
  in
  let ( >>= ) acc k = match acc with Some _ -> acc | None -> k () in
  let step_hits () = (Driver.Simcache.stats sim).Driver.Simcache.step_hits in
  step "first staged compile" (staged ctx.heur) (fresh c1)
  >>= fun () ->
  let walks = step_hits () in
  step "same decisions, other genome" (staged same_decisions)
    (recompiled same_decisions)
  >>= fun () ->
  if
    Driver.Compiler.pass_under_study ctx.heur
    = Some Driver.Compiler.Hyperblock
    && step_hits () <> walks + 1
  then Some "same decisions, other genome: not walked from recorded steps"
  else None
  >>= fun () ->
  step "random genome for the slot" (staged random_slot)
    (recompiled random_slot)
  >>= fun () -> step "artifact hit" (cached c1) (fresh c1)
  >>= fun () ->
  step "second schedule (summary or simulation)" (cached c2) (fresh c2)
  >>= fun () ->
  step "second schedule again (summary or artifact hit)" (cached c2)
    (fresh c2)
  >>= fun () -> step "third schedule (summary)" (cached c3) (fresh c3)
  >>= fun () -> step "third schedule again (summary)" (cached c3) (fresh c3)

let describe_prog ctx p =
  String.concat "\n" (ctx_detail ctx @ [ Minic_gen.source p ])

let prog_oracle ~name ~weight diverges =
  {
    name;
    weight;
    check =
      (fun seed ->
        let ctx = prog_ctx_of seed in
        check_generated ~oracle:name ~seed ~candidates:Minic_gen.candidates
          ~describe:(describe_prog ctx) ~diverges:(diverges ctx)
          (Minic_gen.generate seed));
  }

(* --- cache (evaluator half) -------------------------------------------- *)

let rm_rf dir =
  let rec go path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> go (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove path with Sys_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  go dir

let fresh_dir tag seed =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "metaopt-fuzz-%s-%d-%d" tag (Unix.getpid ()) seed)
  in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let rows_sig rows = Array.map (Array.map bits) rows

let show_rows rows =
  String.concat " | "
    (Array.to_list
       (Array.map
          (fun row ->
            String.concat ","
              (Array.to_list (Array.map (Printf.sprintf "%Lx") row)))
          rows))

let evaluator_diverges seed (genomes : Gp.Expr.genome array) : string option =
  let fs = Genome_gen.fs in
  let env_rng = Random.State.make [| 0xe4a1; seed |] in
  let case_envs = Array.init 3 (fun _ -> Genome_gen.env env_rng) in
  let eval g case =
    match Gp.Eval.genome case_envs.(case) g with
    | `Real v -> v
    | `Bool b -> if b then 1.0 else 0.5
  in
  let mk ?store () =
    Driver.Evaluator.create ?store ~fs ~scope:"fuzz"
      ~case_name:string_of_int ~eval ()
  in
  let cases = [ 0; 1; 2 ] in
  let ev = mk () in
  let first = rows_sig (Driver.Evaluator.evaluate_batch ev genomes ~cases) in
  let memo = rows_sig (Driver.Evaluator.evaluate_batch ev genomes ~cases) in
  let recomputed =
    rows_sig (Driver.Evaluator.evaluate_batch (mk ()) genomes ~cases)
  in
  let dir = fresh_dir "evcache" seed in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ev_w = mk ~store:(Driver.Shardstore.open_store dir) () in
  let written =
    rows_sig (Driver.Evaluator.evaluate_batch ev_w genomes ~cases)
  in
  let ev_r = mk ~store:(Driver.Shardstore.open_store dir) () in
  let from_disk =
    rows_sig (Driver.Evaluator.evaluate_batch ev_r genomes ~cases)
  in
  let disk_evals = Driver.Evaluator.evaluations ev_r in
  if memo <> first then
    Some
      (Printf.sprintf "memo hit differs: %s / %s" (show_rows memo)
         (show_rows first))
  else if recomputed <> first then
    Some
      (Printf.sprintf "fresh engine differs: %s / %s" (show_rows recomputed)
         (show_rows first))
  else if written <> first then
    Some
      (Printf.sprintf "cache-writing engine differs: %s / %s"
         (show_rows written) (show_rows first))
  else if from_disk <> first then
    Some
      (Printf.sprintf "disk hit differs: %s / %s" (show_rows from_disk)
         (show_rows first))
  else if disk_evals <> 0 then
    Some
      (Printf.sprintf
         "disk cache did not serve: %d evaluations on a warm cache"
         disk_evals)
  else None

let genomes_of_seed seed =
  let rng = Random.State.make [| 0x6e0e; seed |] in
  let gs = Array.init 4 (fun _ -> Genome_gen.genome rng ~sort:`Real) in
  (* duplicate one genome so the memo path is guaranteed to be hit *)
  Array.append gs [| gs.(0) |]

let cache_sim = prog_oracle ~name:"cache" ~weight:1 simcache_diverges

let cache_oracle =
  {
    name = "cache";
    weight = 1;
    check =
      (fun seed ->
        (* both halves: the simulation cache on a generated program and
           the fitness cache on generated genomes *)
        match cache_sim.check seed with
        | (Fail _ | Skip _) as v -> v
        | Pass ->
          let genomes = genomes_of_seed seed in
          check_generated ~oracle:"cache" ~seed
            ~candidates:(fun gs ->
              (* shrink genome-wise: replace each slot by a smaller one *)
              Array.to_list gs
              |> List.mapi (fun i g ->
                     List.map
                       (fun g' ->
                         let c = Array.copy gs in
                         c.(i) <- g';
                         c)
                       (Genome_gen.shrink g))
              |> List.concat)
            ~describe:(fun gs ->
              String.concat "\n"
                (Array.to_list
                   (Array.map (Gp.Sexp.to_string Genome_gen.fs) gs)))
            ~diverges:(evaluator_diverges seed) genomes);
  }

(* --- simplify ----------------------------------------------------------- *)

let show_env (e : Gp.Feature_set.env) =
  Printf.sprintf "reals=[%s] bools=[%s]"
    (String.concat ";"
       (Array.to_list
          (Array.map (Printf.sprintf "%h") e.Gp.Feature_set.real_values)))
    (String.concat ";"
       (Array.to_list
          (Array.map string_of_bool e.Gp.Feature_set.bool_values)))

let eval_sig env g =
  match Gp.Eval.genome env g with
  | `Real v -> Printf.sprintf "real:%Lx (%h)" (bits v) v
  | `Bool b -> Printf.sprintf "bool:%b" b

(* The equivalence must hold for every subtree, not just the root: an
   unsound rewrite deep in the tree is routinely masked at the root
   (added to a large value, squashed by [protect], compared away), so
   each node is checked as a genome of its own. *)
let simplify_diverges envs (g : Gp.Expr.genome) : string option =
  let check_one (sub : Gp.Expr.genome) =
    let s = Gp.Simplify.genome sub in
    let rec find = function
      | [] -> None
      | env :: rest ->
        let a = eval_sig env sub and b = eval_sig env s in
        if a <> b then
          Some
            (Printf.sprintf
               "subtree %s\nEval raw %s / Eval simplified %s on %s\n\
                simplified form: %s"
               (Gp.Sexp.to_string Genome_gen.fs sub)
               a b (show_env env)
               (Gp.Sexp.to_string Genome_gen.fs s))
        else find rest
    in
    find envs
  in
  List.fold_left
    (fun acc (n : Gp.Tree.node) ->
      match acc with
      | Some _ -> acc
      | None -> check_one (Gp.Tree.subtree g n.Gp.Tree.path))
    None (Gp.Tree.nodes g)

let simplify_oracle =
  {
    name = "simplify";
    weight = 1;
    check =
      (fun seed ->
        let rng = Random.State.make [| 0x51e9; seed |] in
        let sort = if Random.State.int rng 4 = 0 then `Bool else `Real in
        let g = Genome_gen.genome rng ~sort in
        let envs = Genome_gen.envs rng ~n:8 in
        check_generated ~oracle:"simplify" ~seed ~candidates:Genome_gen.shrink
          ~describe:(Gp.Sexp.to_string Genome_gen.fs)
          ~diverges:(simplify_diverges envs) g);
  }

(* --- checkpoint --------------------------------------------------------- *)

exception Abort_for_fuzz

let evolve_result_sig (r : Gp.Evolve.result) =
  ( Gp.Sexp.to_string Genome_gen.fs r.Gp.Evolve.best,
    bits r.Gp.Evolve.best_fitness,
    Array.map (fun (n, v) -> (n, bits v)) r.Gp.Evolve.per_case,
    List.map
      (fun (s : Gp.Evolve.generation_stats) ->
        (s.Gp.Evolve.gen, bits s.Gp.Evolve.best_fitness,
         bits s.Gp.Evolve.mean_fitness, s.Gp.Evolve.best_size,
         s.Gp.Evolve.subset, s.Gp.Evolve.best_expr))
      r.Gp.Evolve.history )

let checkpoint_diverges seed () : string option =
  let env_rng = Random.State.make [| 0xcfe0; seed |] in
  let case_envs = Array.init 3 (fun _ -> Genome_gen.env env_rng) in
  let evaluator =
    Gp.Evolve.evaluator_of_fn (fun g case ->
        match Gp.Eval.genome case_envs.(case) g with
        | `Real v -> 1.0 /. (1.0 +. Float.abs (v -. 10.0))
        | `Bool _ -> 0.0)
  in
  let problem () =
    {
      Gp.Evolve.fs = Genome_gen.fs;
      sort = `Real;
      baseline = None;
      n_cases = 3;
      case_name = string_of_int;
      evaluator;
    }
  in
  let params = { Gp.Params.tiny with Gp.Params.rng_seed = 7000 + seed } in
  let straight = Gp.Evolve.run ~params (problem ()) in
  let dir = fresh_dir "ckpt" seed in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (match
     Gp.Evolve.run ~params
       ~on_generation:(fun s ->
         if s.Gp.Evolve.gen = 2 then raise Abort_for_fuzz)
       ~checkpoint_dir:dir (problem ())
   with
  | _ -> ()
  | exception Abort_for_fuzz -> ());
  let resumed = Gp.Evolve.run ~params ~checkpoint_dir:dir (problem ()) in
  if evolve_result_sig resumed = evolve_result_sig straight then None
  else
    Some
      (Printf.sprintf
         "straight best %s (fitness %Lx) / resumed best %s (fitness %Lx)"
         (Gp.Sexp.to_string Genome_gen.fs straight.Gp.Evolve.best)
         (bits straight.Gp.Evolve.best_fitness)
         (Gp.Sexp.to_string Genome_gen.fs resumed.Gp.Evolve.best)
         (bits resumed.Gp.Evolve.best_fitness))

let checkpoint_oracle =
  {
    name = "checkpoint";
    weight = 25;
    check =
      (fun seed ->
        match checkpoint_diverges seed () with
        | None -> Pass
        | Some desc ->
          Fail
            (report ~oracle:"checkpoint" ~seed
               ~detail:[ Printf.sprintf "mismatch: %s" desc ]
               ~body:"")
        | exception e ->
          Fail
            (report ~oracle:"checkpoint" ~seed
               ~detail:
                 [ Printf.sprintf "unexpected exception: %s"
                     (Printexc.to_string e) ]
               ~body:""));
  }

(* --- parmap ------------------------------------------------------------- *)

let outcome_bits =
  Array.map (function Gp.Parmap.Ok v -> Some (bits v) | _ -> None)

(* The in-process [`Seq] pool: the reference the fork pool is compared
   against. *)
let seq_reference f tasks =
  outcome_bits
    (fst (Gp.Parmap.run_supervised (Gp.Parmap.pool ~backend:`Seq ()) f tasks))

(* The fork pool's contract: one warm handle, at a random width, serves
   three batches and then the first batch again, and every batch must
   be bit-identical to the [`Seq] reference.  The third batch is longer,
   and one task past the others' end naps on its first attempt: a
   straggler holding its worker while the rest of the pool drains the
   queue.  Resident worker state and the straggler reorder completion;
   the reassembled results must not show it. *)
let parmap_diverges seed (g : Gp.Expr.genome) : string option =
  let rng = Random.State.make [| 0x9a21; seed |] in
  let f x =
    let env = Gp.Feature_set.empty_env Genome_gen.fs in
    env.Gp.Feature_set.real_values.(0) <- x;
    match Gp.Eval.genome env g with
    | `Real v -> v
    | `Bool b -> if b then 1.0 else 0.0
  in
  let jobs = 2 + Random.State.int rng 3 in
  let short = 24 in
  let batch n = Array.init n (fun _ -> Genome_gen.random_value rng) in
  let first = batch short in
  let batches = [ first; batch short; batch (2 * short); first ] in
  let victim = short + Random.State.int rng short in
  (* The references run before the plan is armed. *)
  let expect = List.map (seq_reference f) batches in
  let plan =
    {
      Gp.Chaos.rules =
        [
          {
            Gp.Chaos.r_site = Gp.Chaos.site_parmap_task;
            r_key = Some victim;
            r_attempt = Some 1;
            r_fault = Gp.Chaos.Slow 0.05;
          };
        ];
    }
  in
  let pool = Gp.Parmap.pool ~backend:`Fork ~jobs ~retries:0 () in
  let h = Gp.Parmap.create pool ~f in
  (* Armed before the first batch forks the workers, which inherit it. *)
  Gp.Chaos.arm plan;
  Fun.protect
    ~finally:(fun () ->
      Gp.Chaos.disarm ();
      Gp.Parmap.shutdown h)
  @@ fun () ->
  let rec go i = function
    | [] -> None
    | (xs, want) :: rest ->
      if outcome_bits (fst (Gp.Parmap.run_batch h xs)) <> want then
        Some
          (Printf.sprintf
             "fork -j%d, batch %d of 4 (%d tasks, straggler task %d in \
              batch 3) differs from the seq reference"
             jobs i (Array.length xs) victim)
      else go (i + 1) rest
  in
  go 1 (List.combine batches expect)

let fork_unavailable = Skip "fork backend unavailable"

let parmap_oracle =
  {
    name = "parmap";
    weight = 3;
    check =
      (fun seed ->
        if not Gp.Parmap.available then fork_unavailable
        else
          let rng = Random.State.make [| 0x9a22; seed |] in
          let g = Genome_gen.genome rng ~sort:`Real in
          check_generated ~oracle:"parmap" ~seed
            ~candidates:Genome_gen.shrink
            ~describe:(Gp.Sexp.to_string Genome_gen.fs)
            ~diverges:(parmap_diverges seed) g);
  }

(* --- compiled_vs_walk ---------------------------------------------------- *)

(* Evalc compiled bytecode = the Eval tree-walker: the genome compiled
   once and run over all the envs in one call to the batch engine of its
   sort ([run_batch] or [run_batch_bool]), compared env by env. *)
let compiled_vs_walk_diverges envs (g : Gp.Expr.genome) : string option =
  let arr = Array.of_list envs in
  let p = Gp.Evalc.compile g in
  let compiled =
    match g with
    | Gp.Expr.Real _ ->
      Array.map
        (fun v -> Printf.sprintf "real:%Lx (%h)" (bits v) v)
        (Gp.Evalc.run_batch p arr)
    | Gp.Expr.Bool _ ->
      Array.map (Printf.sprintf "bool:%b") (Gp.Evalc.run_batch_bool p arr)
  in
  let rec find i =
    if i >= Array.length arr then None
    else
      let w = eval_sig arr.(i) g in
      if w <> compiled.(i) then
        Some
          (Printf.sprintf "env %d: Eval %s / Evalc %s on %s" i w compiled.(i)
             (show_env arr.(i)))
      else find (i + 1)
  in
  find 0

let compiled_vs_walk_oracle =
  {
    name = "compiled_vs_walk";
    weight = 1;
    check =
      (fun seed ->
        let rng = Random.State.make [| 0xeca1c; seed |] in
        let sort = if Random.State.int rng 4 = 0 then `Bool else `Real in
        let g = Genome_gen.genome rng ~sort in
        let envs = Genome_gen.envs rng ~n:8 in
        check_generated ~oracle:"compiled_vs_walk" ~seed
          ~candidates:Genome_gen.shrink
          ~describe:(Gp.Sexp.to_string Genome_gen.fs)
          ~diverges:(compiled_vs_walk_diverges envs) g);
  }

(* --- chaos_vs_clean ------------------------------------------------------ *)

(* The robustness contract in one line: a study injected with
   recoverable faults must be bit-identical to the fault-free run.
   The clean leg is the [`Seq] -j1 reference; the faulted leg runs the
   same evolution on the supervised [`Fork] pool with the seed's
   {!Gp.Chaos.seeded} plan armed — every task fails its first attempt
   (a crash or a short nap, one task napping past the deadline), a
   cache append is torn, a checkpoint is truncated — and retries,
   deadline kills and the strict loaders must absorb all of it.  A
   third leg resumes from the faulted run's checkpoint directory, where
   the newest file may be the truncated one: the loader must skip it to
   an older valid checkpoint and still converge to the same result. *)
let chaos_trial ?plan seed : string option =
  let plan =
    match plan with Some p -> p | None -> Gp.Chaos.seeded ~seed
  in
  let env_rng = Random.State.make [| 0xc4a05; seed |] in
  let case_envs = Array.init 3 (fun _ -> Genome_gen.env env_rng) in
  let eval g case =
    match Gp.Eval.genome case_envs.(case) g with
    | `Real v -> 1.0 /. (1.0 +. Float.abs (v -. 10.0))
    | `Bool _ -> 0.0
  in
  let params = { Gp.Params.tiny with Gp.Params.rng_seed = 9000 + seed } in
  let run_leg ?cache_dir ?checkpoint_dir pool =
    let store = Option.map Driver.Shardstore.open_store cache_dir in
    let ev =
      Driver.Evaluator.create ~pool ?store ~fs:Genome_gen.fs
        ~scope:"chaos" ~case_name:string_of_int ~eval ()
    in
    let problem =
      {
        Gp.Evolve.fs = Genome_gen.fs;
        sort = `Real;
        baseline = None;
        n_cases = 3;
        case_name = string_of_int;
        evaluator = Driver.Evaluator.evolve_evaluator ev;
      }
    in
    Gp.Evolve.run ~params ?checkpoint_dir problem
  in
  let seq = Gp.Parmap.pool ~backend:`Seq ~retries:0 () in
  let clean = run_leg seq in
  let dir = fresh_dir "chaos" seed in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache_dir = Filename.concat dir "cache" in
  let ckpt_dir = Filename.concat dir "ckpt" in
  let faulted =
    Gp.Chaos.arm plan;
    Fun.protect ~finally:Gp.Chaos.disarm (fun () ->
        run_leg ~cache_dir ~checkpoint_dir:ckpt_dir
          (Gp.Parmap.pool ~backend:`Fork ~jobs:2 ~timeout_s:0.5 ~retries:2 ()))
  in
  if evolve_result_sig faulted <> evolve_result_sig clean then
    Some
      (Printf.sprintf
         "faulted fork run diverges from clean -j1: clean best %s \
          (fitness %Lx) / faulted best %s (fitness %Lx) under plan %s"
         (Gp.Sexp.to_string Genome_gen.fs clean.Gp.Evolve.best)
         (bits clean.Gp.Evolve.best_fitness)
         (Gp.Sexp.to_string Genome_gen.fs faulted.Gp.Evolve.best)
         (bits faulted.Gp.Evolve.best_fitness)
         (Gp.Chaos.plan_to_string plan))
  else begin
    (* Resume over the faulted run's artifacts: a truncated newest
       checkpoint must be skipped, a torn cache line must be ignored,
       and the result must still match. *)
    let resumed = run_leg ~cache_dir ~checkpoint_dir:ckpt_dir seq in
    if evolve_result_sig resumed <> evolve_result_sig clean then
      Some
        (Printf.sprintf
           "resume over faulted artifacts diverges: clean best %s (fitness \
            %Lx) / resumed best %s (fitness %Lx) under plan %s"
           (Gp.Sexp.to_string Genome_gen.fs clean.Gp.Evolve.best)
           (bits clean.Gp.Evolve.best_fitness)
           (Gp.Sexp.to_string Genome_gen.fs resumed.Gp.Evolve.best)
           (bits resumed.Gp.Evolve.best_fitness)
           (Gp.Chaos.plan_to_string plan))
    else None
  end

let chaos_vs_clean_oracle =
  {
    name = "chaos_vs_clean";
    weight = 25;
    check =
      (fun seed ->
        match chaos_trial seed with
        | None -> Pass
        | Some desc ->
          Fail
            (report ~oracle:"chaos_vs_clean" ~seed
               ~detail:[ Printf.sprintf "mismatch: %s" desc ]
               ~body:"")
        | exception e ->
          Fail
            (report ~oracle:"chaos_vs_clean" ~seed
               ~detail:
                 [ Printf.sprintf "unexpected exception: %s"
                     (Printexc.to_string e) ]
               ~body:""));
  }

(* --- served_vs_local ------------------------------------------------------ *)

(* The evaluation-as-a-service contract: a study evaluated against a
   [metaopt serve] daemon must be bit-identical to the same study run
   with a local pool — every speedup and every generation of history —
   including when a chaos plan kills a worker inside the daemon (the
   daemon's pool retries absorb it; nothing leaks to the client).  The
   daemon runs in a forked child on a per-trial socket with its own
   store; the client legs run inline, so the whole trial needs the fork
   backend. *)

let specialization_sig (r : Driver.Study.specialization) =
  ( r.Driver.Study.bench,
    bits r.Driver.Study.train_speedup,
    bits r.Driver.Study.novel_speedup,
    r.Driver.Study.best_expr,
    List.map
      (fun (s : Gp.Evolve.generation_stats) ->
        (s.Gp.Evolve.gen, bits s.Gp.Evolve.best_fitness,
         bits s.Gp.Evolve.mean_fitness, s.Gp.Evolve.best_size,
         s.Gp.Evolve.subset, s.Gp.Evolve.best_expr))
      r.Driver.Study.history )

(* Block until the daemon child accepts connections (it unlinks any
   stale socket first, so a successful connect means the new listener).
   Fails fast if the child dies before listening. *)
let wait_for_daemon ~socket ~pid =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec poll () =
    let up =
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match
            Gp.Parmap.retry_eintr (fun () ->
                Unix.connect fd (Unix.ADDR_UNIX socket))
          with
          | () -> true
          | exception Unix.Unix_error _ -> false)
    in
    if up then ()
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _, status ->
        failwith
          (Printf.sprintf "serve daemon child died before listening (%s)"
             (match status with
             | Unix.WEXITED n -> Printf.sprintf "exit %d" n
             | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
             | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)));
      if Unix.gettimeofday () > deadline then
        failwith "serve daemon did not come up within 30s"
      else begin
        ignore (Unix.select [] [] [] 0.05);
        poll ()
      end
    end
  in
  poll ()

let served_vs_local_trial seed : string option =
  let kind, bench =
    match abs seed mod 3 with
    | 0 -> (Driver.Study.Hyperblock_study, "codrle4")
    | 1 -> (Driver.Study.Regalloc_study, "decodrle4")
    | _ -> (Driver.Study.Sched_study, "codrle4")
  in
  (* Odd seeds kill one worker's first attempt inside the daemon: the
     served results must not know it happened. *)
  let chaos_in_daemon = seed land 1 = 1 in
  let dir = fresh_dir "serve" seed in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let socket = Filename.concat dir "sock" in
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       if chaos_in_daemon then
         Gp.Chaos.arm
           {
             Gp.Chaos.rules =
               [
                 {
                   Gp.Chaos.r_site = Gp.Chaos.site_parmap_task;
                   r_key = Some 0;
                   r_attempt = Some 1;
                   r_fault = Gp.Chaos.Kill Sys.sigkill;
                 };
               ];
           };
       Serve.Server.run
         {
           (Serve.Server.default_config ~socket) with
           Serve.Server.cache_dir = Some (Filename.concat dir "cache");
         }
     with _ -> ());
    Unix._exit 0
  end
  else begin
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try ignore (Gp.Parmap.retry_eintr (fun () -> Unix.waitpid [] pid))
        with Unix.Unix_error _ -> ())
    @@ fun () ->
    wait_for_daemon ~socket ~pid;
    let cfg =
      {
        Driver.Study.default_config with
        Driver.Study.params =
          { Gp.Params.tiny with Gp.Params.rng_seed = 7000 + seed };
        backend = `Fork;
        jobs = 2;
      }
    in
    let local = Driver.Study.specialize_with cfg kind bench in
    Serve.Client.register ();
    let served =
      Driver.Study.specialize_with
        { cfg with Driver.Study.remote = Some socket }
        kind bench
    in
    if specialization_sig served <> specialization_sig local then
      Some
        (Printf.sprintf
           "served run diverges from local on %s %s%s: local train %h novel \
            %h best %s / served train %h novel %h best %s"
           (Driver.Study.kind_name kind)
           bench
           (if chaos_in_daemon then " (worker kill injected in daemon)"
            else "")
           local.Driver.Study.train_speedup local.Driver.Study.novel_speedup
           local.Driver.Study.best_expr served.Driver.Study.train_speedup
           served.Driver.Study.novel_speedup served.Driver.Study.best_expr)
    else None
  end

let served_vs_local_oracle =
  {
    name = "served_vs_local";
    weight = 25;
    check =
      (fun seed ->
        if not Gp.Parmap.available then
          Skip "fork backend unavailable (daemon runs in a forked child)"
        else
          match served_vs_local_trial seed with
          | None -> Pass
          | Some desc ->
            Fail
              (report ~oracle:"served_vs_local" ~seed
                 ~detail:[ Printf.sprintf "mismatch: %s" desc ]
                 ~body:"")
          | exception e ->
            Fail
              (report ~oracle:"served_vs_local" ~seed
                 ~detail:
                   [ Printf.sprintf "unexpected exception: %s"
                       (Printexc.to_string e) ]
                 ~body:""));
  }

(* --- Registry ----------------------------------------------------------- *)

let engine_oracle = prog_oracle ~name:"engine" ~weight:1 engine_diverges
let replay_oracle = prog_oracle ~name:"replay" ~weight:1 replay_diverges

let all =
  [
    engine_oracle; replay_oracle; cache_oracle; simplify_oracle;
    checkpoint_oracle; parmap_oracle; compiled_vs_walk_oracle;
    chaos_vs_clean_oracle; served_vs_local_oracle;
  ]

let find name = List.find_opt (fun o -> o.name = name) all
let names = List.map (fun o -> o.name) all
