(* Quickstart: evolve an application-specific hyperblock priority function
   for one benchmark, end to end, exactly the paper's Figure 4 protocol in
   miniature:

     1. pick a benchmark and a study (hyperblock formation),
     2. run the GP search — fitness of a candidate priority function is
        the speedup of the compiled benchmark over the baseline compiler,
     3. report the evolved expression and its speedup on the training and
        on the novel dataset.

   Run with:  dune exec examples/quickstart.exe  [benchmark] [jobs]

   The second argument fans candidate evaluation out over that many
   forked workers (the single-machine analogue of the paper's 15-20
   machine cluster); results are identical at any worker count. *)

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "rawcaudio" in
  let jobs =
    if Array.length Sys.argv > 2 then
      try int_of_string Sys.argv.(2) with _ -> 1
    else 1
  in
  Fmt.pr "=== Meta Optimization quickstart: %s ===@.@." bench;
  let b = Benchmarks.Registry.find bench in
  Fmt.pr "benchmark : %s (%s, %s)@." b.Benchmarks.Bench.name
    (Benchmarks.Bench.string_of_suite b.Benchmarks.Bench.suite)
    b.Benchmarks.Bench.description;
  Fmt.pr "baseline  : %s@.@." Hyperblock.Baseline.source;
  (* A small GP run; raise these toward Table 2 (400 x 50) for real use. *)
  let params =
    {
      Gp.Params.scaled with
      Gp.Params.population_size = 24;
      generations = 8;
    }
  in
  Fmt.pr "evolving (population %d, %d generations, %d worker(s))...@."
    params.Gp.Params.population_size params.Gp.Params.generations jobs;
  let result =
    Driver.Study.specialize_with
      { Driver.Study.default_config with Driver.Study.params; jobs }
      Driver.Study.Hyperblock_study bench
  in
  Fmt.pr "@.generation history (best fitness = speedup over baseline):@.";
  List.iter
    (fun (s : Gp.Evolve.generation_stats) ->
      Fmt.pr "  gen %2d   best %.3f   mean %.3f   best size %d@."
        s.Gp.Evolve.gen s.Gp.Evolve.best_fitness s.Gp.Evolve.mean_fitness
        s.Gp.Evolve.best_size)
    result.Driver.Study.history;
  Fmt.pr "@.best evolved priority function:@.  %s@.@."
    result.Driver.Study.best_expr;
  Fmt.pr "speedup on training data : %.3f@." result.Driver.Study.train_speedup;
  Fmt.pr "speedup on novel data    : %.3f@." result.Driver.Study.novel_speedup
