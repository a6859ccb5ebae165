(* The fuzzing subsystem's own tests, plus the regression tests for the
   engine-equivalence soft spots the fuzzer targets: partial runs in the
   simulation cache, evaluator disk-cache hygiene, and the
   [Eval = Eval . Simplify = Evalc] property at scale. *)

let bits = Int64.bits_of_float

(* --- generator validity -------------------------------------------------- *)

(* Every generated program must compile and terminate; its semantics are
   whatever the printed source means, so compilation is the contract. *)
let test_generator_validity () =
  for seed = 0 to 149 do
    let p = Fuzz.Minic_gen.generate seed in
    let src = Fuzz.Minic_gen.source p in
    (match Frontend.Minic.compile src with
    | _ -> ()
    | exception e ->
      Alcotest.failf "seed %d does not compile: %s\n%s" seed
        (Printexc.to_string e) src);
    let layout = Profile.Layout.prepare (Frontend.Minic.compile src) in
    (match Profile.Interp.run ~overrides:p.Fuzz.Minic_gen.train layout with
    | _ -> ()
    | exception e ->
      Alcotest.failf "seed %d does not run: %s\n%s" seed
        (Printexc.to_string e) src)
  done

(* Shrink candidates must stay compilable: the shrinker's contract is
   well-typedness, divergence-preservation is re-checked by the oracle. *)
let test_shrink_candidates_compile () =
  for seed = 0 to 19 do
    let p = Fuzz.Minic_gen.generate seed in
    List.iter
      (fun c ->
        match Frontend.Minic.compile (Fuzz.Minic_gen.source c) with
        | _ -> ()
        | exception e ->
          Alcotest.failf "seed %d shrink candidate does not compile: %s\n%s"
            seed (Printexc.to_string e)
            (Fuzz.Minic_gen.source c))
      (Fuzz.Minic_gen.candidates p)
  done

(* --- greedy shrinker ----------------------------------------------------- *)

let test_shrinker_minimizes () =
  (* ints shrink by halving or decrement (greedy takes the first failing
     candidate); failure = "n >= 5": greedy must land exactly on 5 *)
  let candidates n = List.filter (fun c -> c >= 0) [ n / 2; n - 1 ] in
  let fails n = n >= 5 in
  let small, steps = Fuzz.Shrink.greedy ~candidates ~fails 1000 in
  Alcotest.(check int) "local minimum" 5 small;
  Alcotest.(check bool) "made progress" true (steps > 0);
  (* a raising predicate counts as not failing — shrinking must not
     escape into the raising region *)
  let fails n = if n < 100 then failwith "boom" else true in
  let small, _ = Fuzz.Shrink.greedy ~candidates ~fails 1000 in
  Alcotest.(check bool) "stays in non-raising region" true (small >= 100)

(* --- oracle smoke -------------------------------------------------------- *)

let test_oracles_pass_on_seeds () =
  List.iter
    (fun (o : Fuzz.Oracle.t) ->
      for seed = 0 to 2 do
        match o.Fuzz.Oracle.check seed with
        | Fuzz.Oracle.Pass | Fuzz.Oracle.Skip _ -> ()
        | Fuzz.Oracle.Fail report ->
          Alcotest.failf "oracle %s diverges at seed %d:\n%s"
            o.Fuzz.Oracle.name seed report
      done)
    Fuzz.Oracle.all

let test_campaign_summary () =
  let s = Fuzz.run ~oracles:[ Fuzz.Oracle.all |> List.hd ] ~seed:0 ~count:2 () in
  Alcotest.(check int) "no divergences" 0 (Fuzz.divergences s);
  Alcotest.(check bool) "summary renders" true
    (String.length (Fuzz.to_string s) > 0)

(* --- satellite: partial runs never answer later queries --------------- *)

let sim_sig (r : Machine.Simulate.result) =
  ( bits r.Machine.Simulate.cycles,
    List.map bits r.Machine.Simulate.output,
    r.Machine.Simulate.checksum,
    r.Machine.Simulate.dynamic_instrs )

exception Stopped

(* Run [f] under a one-shot real-time timer whose SIGALRM handler raises
   [Stopped] [after] seconds in: [true] when the timer stopped it. *)
let stopped_by_timer ~after f =
  let live = ref true in
  let old =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> if !live then raise Stopped))
  in
  let arm v =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.0; it_value = v })
  in
  Fun.protect
    ~finally:(fun () ->
      live := false;
      arm 0.0;
      Sys.set_signal Sys.sigalrm old)
    (fun () ->
      arm after;
      match f () with () -> false | exception Stopped -> true)

(* A run cut short must leave nothing a later query could be answered
   from, and an evicting cache must answer like a fresh simulation.  The
   run is stopped from outside, by a timer a quarter of the way into its
   simulation. *)
let test_partial_runs_never_answer () =
  let prepared = Driver.Compiler.prepare (Benchmarks.Registry.find "codrle4") in
  let machine = Machine.Config.table3 in
  let c =
    Driver.Compiler.compile ~machine
      ~heuristics:(Driver.Compiler.baseline ())
      prepared
  in
  let dataset = Benchmarks.Bench.Train in
  let overrides =
    Benchmarks.Bench.overrides prepared.Driver.Compiler.bench dataset
  in
  let reschedule k =
    {
      c with
      Driver.Compiler.schedule_cycles =
        Array.map (fun l -> l + k) c.Driver.Compiler.schedule_cycles;
    }
  in
  let check name sim k =
    let ck = reschedule k in
    Alcotest.(check bool) name true
      (sim_sig (Driver.Simcache.simulate sim ~machine ~dataset prepared ck)
      = sim_sig
          (Machine.Simulate.run ~overrides ~config:machine
             ~schedule_cycles:ck.Driver.Compiler.schedule_cycles
             ck.Driver.Compiler.layout))
  in
  let simulate sim () =
    ignore (Driver.Simcache.simulate sim ~machine ~dataset prepared c)
  in
  (* The best of three timings of the whole call and of the simulation
     inside it place the timer a quarter of the way into the latter. *)
  let best f =
    List.fold_left min infinity
      (List.init 3 (fun _ ->
           let t0 = Unix.gettimeofday () in
           f ();
           Unix.gettimeofday () -. t0))
  in
  let whole = best (fun () -> simulate (Driver.Simcache.create ()) ()) in
  let engine =
    best (fun () ->
        ignore
          (Machine.Simulate.summarize ~config:machine ~overrides
             c.Driver.Compiler.layout))
  in
  let after = Float.max (engine /. 4.0) (whole -. (0.75 *. engine)) in
  (* A try counts once the timer stopped a call whose simulation had
     begun; timing noise may spoil a try, so allow a few. *)
  let rec stop_part_way tries =
    let sim = Driver.Simcache.create () in
    let stopped = stopped_by_timer ~after (simulate sim) in
    if stopped && (Driver.Simcache.stats sim).Driver.Simcache.simulations = 1
    then sim
    else if tries > 1 then stop_part_way (tries - 1)
    else
      Alcotest.failf "no timer at %.2f ms stopped a %.2f ms simulation"
        (1000.0 *. after) (1000.0 *. engine)
  in
  let sim = stop_part_way 5 in
  check "after a stopped run, the next schedule is exact" sim 1;
  let st = Driver.Simcache.stats sim in
  Alcotest.(check (list int))
    "no summary survived the stopped run: simulations, replays"
    [ 2; 0 ]
    Driver.Simcache.[ st.simulations; st.replays ];
  let tiny = Driver.Simcache.create ~max_artifacts:1 () in
  List.iteri
    (fun i k ->
      check (Printf.sprintf "evicting cache, query %d exact" i) tiny k)
    [ 0; 1; 2; 1 ];
  let st = Driver.Simcache.stats tiny in
  Alcotest.(check (list int))
    "the summary outlives evicted artifacts: simulations, replays" [ 1; 3 ]
    Driver.Simcache.[ st.simulations; st.replays ]

(* --- satellite: evaluator disk cache vs non-finite values ---------------- *)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "metaopt-test-evcache-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove path with Sys_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_evaluator_nonfinite_roundtrip () =
  with_temp_dir @@ fun dir ->
  let fs = Fuzz.Genome_gen.fs in
  let genomes =
    Array.map
      (fun s -> Gp.Sexp.parse_genome fs ~sort:`Real s)
      [| "x"; "(add x 1.0)"; "(mul x 2.0)" |]
  in
  (* an eval whose raw values include NaN and infinities *)
  let eval g _case =
    let env = Gp.Feature_set.empty_env fs in
    env.Gp.Feature_set.real_values.(0) <- 3.0;
    match Gp.Eval.genome env g with
    | `Real 3.0 -> Float.nan
    | `Real 4.0 -> Float.infinity
    | `Real 6.0 -> Float.neg_infinity
    | `Real v -> v
    | `Bool _ -> 0.0
  in
  let mk () =
    Driver.Evaluator.create ~cache_dir:dir ~fs ~scope:"nonfinite-test"
      ~case_name:string_of_int ~eval ()
  in
  let a = Driver.Evaluator.evaluate_batch (mk ()) genomes ~cases:[ 0 ] in
  Array.iter
    (fun row ->
      Array.iter
        (fun v ->
          Alcotest.(check (float 0.0)) "sanitized to 0" 0.0 v;
          Alcotest.(check bool) "finite" true (Float.is_finite v))
        row)
    a;
  (* whatever was persisted must round-trip: a fresh engine over the same
     cache dir must serve the same sanitized values without choking *)
  let ev2 = mk () in
  let b = Driver.Evaluator.evaluate_batch ev2 genomes ~cases:[ 0 ] in
  Alcotest.(check bool) "disk round-trip identical" true (a = b);
  (* and the cache file itself contains only finite values *)
  Sys.readdir dir |> Array.iter (fun f ->
      let ic = open_in (Filename.concat dir f) in
      (try
         while true do
           let line = input_line ic in
           match String.index_opt line ' ' with
           | Some i ->
             let v =
               float_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))
             in
             (match v with
             | Some v ->
               Alcotest.(check bool) "persisted value finite" true
                 (Float.is_finite v)
             | None -> ())
           | None -> ()
         done
       with End_of_file -> ());
      close_in ic)

(* --- satellite: Eval = Eval . Simplify = Evalc at scale ------------------ *)

(* One rng-stream extension of the original 1000-genome Simplify suite:
   every genome is additionally compiled by Evalc and the batch engine of
   its sort must agree with the tree-walker bit-for-bit on each of the
   genome's envs — on the raw genome and on its simplified form
   (exercising whatever shapes Simplify produces).  Then one genome of
   each sort whose value varies across its envs runs over 2500 envs: two
   full batch chunks and a partial one, compared env by env. *)
let test_eval_simplify_equivalence_1000 () =
  let rng = Random.State.make [| 0xe15e; 42 |] in
  let mismatches = ref [] and evaluations = ref 0 in
  let show = function
    | `Real v -> Printf.sprintf "%Lx" (bits v)
    | `Bool b -> string_of_bool b
  in
  let batch g envs =
    let p = Gp.Evalc.compile g in
    match g with
    | Gp.Expr.Real _ ->
      Array.map (fun v -> show (`Real v)) (Gp.Evalc.run_batch p envs)
    | Gp.Expr.Bool _ ->
      Array.map (fun b -> show (`Bool b)) (Gp.Evalc.run_batch_bool p envs)
  in
  let check i g envs =
    let s = Gp.Simplify.genome g in
    let raw = batch g envs and simplified = batch s envs in
    Array.iteri
      (fun k env ->
        let record tag a b sub =
          incr evaluations;
          if a <> b then
            mismatches :=
              Printf.sprintf "genome %d env %d (%s): %s <> %s for %s" i k tag
                a b
                (Gp.Sexp.to_string Fuzz.Genome_gen.fs sub)
              :: !mismatches
        in
        let a = show (Gp.Eval.genome env g) in
        record "simplify" a (show (Gp.Eval.genome env s)) s;
        record "evalc raw" a raw.(k) g;
        record "evalc simplified" a simplified.(k) s)
      envs
  in
  for i = 0 to 999 do
    let sort = if i mod 4 = 0 then `Bool else `Real in
    let g = Fuzz.Genome_gen.genome rng ~sort in
    check i g (Array.of_list (Fuzz.Genome_gen.envs rng ~n:4))
  done;
  List.iteri
    (fun j sort ->
      let envs = Array.of_list (Fuzz.Genome_gen.envs rng ~n:2500) in
      (* A genome that is constant over the envs would pass with its
         chunks' rows copied to the wrong offsets. *)
      let rec varying tries =
        let g = Fuzz.Genome_gen.genome rng ~sort in
        let values =
          List.sort_uniq compare
            (Array.to_list
               (Array.map (fun env -> show (Gp.Eval.genome env g)) envs))
        in
        if List.length values > 1 then g
        else if tries > 1 then varying (tries - 1)
        else Alcotest.failf "no varying genome drawn for chunked check %d" j
      in
      check (1000 + j) (varying 100) envs)
    [ `Real; `Bool ];
  match !mismatches with
  | [] -> ()
  | ms ->
    Alcotest.failf "%d/%d evaluations diverge across Simplify/Evalc:\n%s"
      (List.length ms) !evaluations
      (String.concat "\n" (List.filteri (fun i _ -> i < 5) ms))

let suite =
  [
    Alcotest.test_case "generated programs compile and run" `Quick
      test_generator_validity;
    Alcotest.test_case "shrink candidates stay well-typed" `Quick
      test_shrink_candidates_compile;
    Alcotest.test_case "greedy shrinker minimizes" `Quick
      test_shrinker_minimizes;
    Alcotest.test_case "all oracles pass on seeds 0-2" `Slow
      test_oracles_pass_on_seeds;
    Alcotest.test_case "campaign summary" `Quick test_campaign_summary;
    Alcotest.test_case "partial runs never answer queries" `Quick
      test_partial_runs_never_answer;
    Alcotest.test_case "evaluator non-finite round-trip" `Quick
      test_evaluator_nonfinite_roundtrip;
    Alcotest.test_case "eval = simplify = evalc on 1000 genomes" `Quick
      test_eval_simplify_equivalence_1000;
  ]
