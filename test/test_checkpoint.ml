(* Checkpoint/resume tests: an evolution run killed mid-flight must
   resume from the newest valid checkpoint and finish bit-identically to
   an uninterrupted run with the same seed.  Interruption is simulated by
   an [on_generation] callback that raises — equivalent to the process
   dying between generations, since checkpoints are written after each
   completed generation. *)

exception Abort

let with_dir tag f =
  let dir = Gp.Chaos.Ledger.fresh_dir tag in
  Fun.protect ~finally:(fun () -> Gp.Chaos.Ledger.cleanup dir) (fun () -> f dir)

let params =
  { Gp.Params.tiny with Gp.Params.population_size = 20; generations = 6 }

let expr_of g = Gp.Sexp.to_string Test_gp.fs g

let check_same_result name (a : Gp.Evolve.result) (b : Gp.Evolve.result) =
  Alcotest.(check string)
    (name ^ ": best genome")
    (expr_of a.Gp.Evolve.best) (expr_of b.Gp.Evolve.best);
  Alcotest.(check (float 0.0))
    (name ^ ": best fitness")
    a.Gp.Evolve.best_fitness b.Gp.Evolve.best_fitness;
  Alcotest.(check (array (pair string (float 0.0))))
    (name ^ ": per-case") a.Gp.Evolve.per_case b.Gp.Evolve.per_case;
  Alcotest.(check int)
    (name ^ ": history length")
    (List.length a.Gp.Evolve.history)
    (List.length b.Gp.Evolve.history);
  List.iter2
    (fun (x : Gp.Evolve.generation_stats) (y : Gp.Evolve.generation_stats) ->
      Alcotest.(check int) (name ^ ": gen") x.Gp.Evolve.gen y.Gp.Evolve.gen;
      Alcotest.(check (float 0.0))
        (name ^ ": gen best")
        x.Gp.Evolve.best_fitness y.Gp.Evolve.best_fitness;
      Alcotest.(check (float 0.0))
        (name ^ ": gen mean")
        x.Gp.Evolve.mean_fitness y.Gp.Evolve.mean_fitness;
      Alcotest.(check (list int))
        (name ^ ": gen subset")
        x.Gp.Evolve.subset y.Gp.Evolve.subset;
      Alcotest.(check string)
        (name ^ ": gen expr")
        x.Gp.Evolve.best_expr y.Gp.Evolve.best_expr)
    a.Gp.Evolve.history b.Gp.Evolve.history

let abort_at gen (s : Gp.Evolve.generation_stats) =
  if s.Gp.Evolve.gen = gen then raise Abort

let test_interrupted_resume_identical () =
  with_dir "resume" (fun dir ->
      let straight = Gp.Evolve.run ~params (Test_gp.synthetic_problem ()) in
      (try
         ignore
           (Gp.Evolve.run ~params ~checkpoint_dir:dir
              ~on_generation:(abort_at 3)
              (Test_gp.synthetic_problem ()))
       with Abort -> ());
      Alcotest.(check bool) "checkpoints were written" true
        (Array.exists
           (fun f -> Filename.check_suffix f ".ckpt")
           (Sys.readdir dir));
      let resumed =
        Gp.Evolve.run ~params ~checkpoint_dir:dir (Test_gp.synthetic_problem ())
      in
      check_same_result "interrupted + resumed == uninterrupted" straight
        resumed)

(* Re-running over a directory whose run already finished skips every
   generation and just re-scores the final population. *)
let test_resume_after_complete () =
  with_dir "rerun" (fun dir ->
      let first =
        Gp.Evolve.run ~params ~checkpoint_dir:dir (Test_gp.synthetic_problem ())
      in
      let second =
        Gp.Evolve.run ~params ~checkpoint_dir:dir (Test_gp.synthetic_problem ())
      in
      check_same_result "re-run over finished checkpoints" first second;
      Alcotest.(check bool) "the re-run evaluated less" true
        (second.Gp.Evolve.evaluations <= first.Gp.Evolve.evaluations))

(* [--checkpoint-dir] under parents that do not exist yet: the writer
   creates them, so an interrupted run still resumes. *)
let test_checkpoint_dir_parents_created () =
  with_dir "parents" (fun dir ->
      let parent = Filename.concat dir "a" in
      let nested = Filename.concat parent "b" in
      let remove () =
        if Sys.file_exists nested then begin
          Array.iter
            (fun f -> Sys.remove (Filename.concat nested f))
            (Sys.readdir nested);
          Unix.rmdir nested
        end;
        if Sys.file_exists parent then Unix.rmdir parent
      in
      Fun.protect ~finally:remove (fun () ->
          let straight = Gp.Evolve.run ~params (Test_gp.synthetic_problem ()) in
          (try
             ignore
               (Gp.Evolve.run ~params ~checkpoint_dir:nested
                  ~on_generation:(abort_at 3)
                  (Test_gp.synthetic_problem ()))
           with Abort -> ());
          Alcotest.(check bool) "checkpoints were written" true
            (Sys.file_exists nested
            && Array.exists
                 (fun f -> Filename.check_suffix f ".ckpt")
                 (Sys.readdir nested));
          let resumed =
            Gp.Evolve.run ~params ~checkpoint_dir:nested
              (Test_gp.synthetic_problem ())
          in
          check_same_result "resumed under created parents" straight resumed))

(* The loader walks newest-first: trashing the newest checkpoint costs
   at most one generation of recomputation, never the run. *)
let test_corrupt_checkpoint_skipped () =
  with_dir "corrupt" (fun dir ->
      let straight = Gp.Evolve.run ~params (Test_gp.synthetic_problem ()) in
      (try
         ignore
           (Gp.Evolve.run ~params ~checkpoint_dir:dir
              ~on_generation:(abort_at 4)
              (Test_gp.synthetic_problem ()))
       with Abort -> ());
      let newest =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
        |> List.sort (fun a b -> compare b a)
        |> List.hd
      in
      let oc = open_out (Filename.concat dir newest) in
      output_string oc "not a checkpoint";
      close_out oc;
      let resumed =
        Gp.Evolve.run ~params ~checkpoint_dir:dir (Test_gp.synthetic_problem ())
      in
      check_same_result "fell back past the corrupt file" straight resumed)

(* Checkpoints are fingerprinted over (params, n_cases, sort): a
   directory holding another configuration's files is ignored, and the
   run starts fresh instead of resuming into the wrong state. *)
let test_mismatched_config_starts_fresh () =
  with_dir "mismatch" (fun dir ->
      ignore
        (Gp.Evolve.run ~params ~checkpoint_dir:dir
           (Test_gp.synthetic_problem ()));
      let params' = { params with Gp.Params.population_size = 24 } in
      let fresh = Gp.Evolve.run ~params:params' (Test_gp.synthetic_problem ()) in
      let over =
        Gp.Evolve.run ~params:params' ~checkpoint_dir:dir
          (Test_gp.synthetic_problem ())
      in
      check_same_result "old-config checkpoints ignored" fresh over)

(* DSS state rides the checkpoint too: with >= 4 cases the driver picks
   per-generation subsets and updates per-case difficulty, all of which
   must resume exactly for the remaining subsets to match. *)
let test_dss_state_checkpointed () =
  let problem () =
    let eval g case =
      match g with
      | Gp.Expr.Bool _ -> 0.0
      | Gp.Expr.Real e ->
        let target = float_of_int (case + 1) in
        let err = ref 0.0 in
        for i = 0 to 7 do
          let x = float_of_int i and y = float_of_int (i mod 3) in
          let env = Test_gp.env_with ~x ~y () in
          err := !err +. Float.abs (Gp.Eval.real env e -. ((x *. y) +. target))
        done;
        1.0 /. (1.0 +. !err)
    in
    {
      (Test_gp.synthetic_problem_of eval) with
      Gp.Evolve.n_cases = 6;
      case_name = (fun i -> "case" ^ string_of_int i);
    }
  in
  with_dir "dss" (fun dir ->
      let straight = Gp.Evolve.run ~params (problem ()) in
      (try
         ignore
           (Gp.Evolve.run ~params ~checkpoint_dir:dir
              ~on_generation:(abort_at 3) (problem ()))
       with Abort -> ());
      let resumed = Gp.Evolve.run ~params ~checkpoint_dir:dir (problem ()) in
      check_same_result "dss run resumes identically" straight resumed)

(* End-to-end through the study driver: a specialization killed between
   generations resumes to the same evolved heuristic and speedups. *)
let test_study_checkpoint_resume () =
  let tiny =
    { Gp.Params.tiny with Gp.Params.population_size = 8; generations = 4 }
  in
  let cfg = { Driver.Study.default_config with Driver.Study.params = tiny } in
  with_dir "study" (fun dir ->
      let straight =
        Driver.Study.specialize_with cfg Driver.Study.Hyperblock_study
          "codrle4"
      in
      let resumable = { cfg with Driver.Study.checkpoint_dir = Some dir } in
      (try
         ignore
           (Driver.Study.specialize_with ~on_generation:(abort_at 2) resumable
              Driver.Study.Hyperblock_study "codrle4")
       with Abort -> ());
      let resumed =
        Driver.Study.specialize_with resumable Driver.Study.Hyperblock_study
          "codrle4"
      in
      Alcotest.(check string) "best expr" straight.Driver.Study.best_expr
        resumed.Driver.Study.best_expr;
      Alcotest.(check (float 0.0)) "train speedup"
        straight.Driver.Study.train_speedup resumed.Driver.Study.train_speedup;
      Alcotest.(check (float 0.0)) "novel speedup"
        straight.Driver.Study.novel_speedup resumed.Driver.Study.novel_speedup)

let suite =
  [
    Alcotest.test_case "interrupted run resumes identically" `Quick
      test_interrupted_resume_identical;
    Alcotest.test_case "re-run after completion" `Quick
      test_resume_after_complete;
    Alcotest.test_case "corrupt newest checkpoint skipped" `Quick
      test_corrupt_checkpoint_skipped;
    Alcotest.test_case "mismatched config starts fresh" `Quick
      test_mismatched_config_starts_fresh;
    Alcotest.test_case "dss state checkpointed" `Quick
      test_dss_state_checkpointed;
    Alcotest.test_case "study-level checkpoint resume" `Slow
      test_study_checkpoint_resume;
    Alcotest.test_case "checkpoint dir parents created" `Quick
      test_checkpoint_dir_parents_created;
  ]
