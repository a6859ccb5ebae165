(* Tests for the GP engine: expressions, evaluation, syntax, tree
   navigation, genetic operators, DSS and the evolution driver. *)

let fs =
  Gp.Feature_set.make
    ~reals:[ "x"; "y"; "z" ]
    ~bools:[ "p"; "q" ]

let env_with ?(x = 0.0) ?(y = 0.0) ?(z = 0.0) ?(p = false) ?(q = false) () =
  let env = Gp.Feature_set.empty_env fs in
  Gp.Feature_set.set_real fs env "x" x;
  Gp.Feature_set.set_real fs env "y" y;
  Gp.Feature_set.set_real fs env "z" z;
  Gp.Feature_set.set_bool fs env "p" p;
  Gp.Feature_set.set_bool fs env "q" q;
  env

let parse_r s = Gp.Sexp.parse_real fs s
let parse_b s = Gp.Sexp.parse_bool fs s

let check_eval name src env expected =
  Alcotest.(check (float 1e-9)) name expected (Gp.Eval.real env (parse_r src))

(* --- Evaluation semantics (Table 1) ------------------------------------- *)

let test_eval_arith () =
  let env = env_with ~x:3.0 ~y:4.0 () in
  check_eval "add" "(add x y)" env 7.0;
  check_eval "sub" "(sub x y)" env (-1.0);
  check_eval "mul" "(mul x y)" env 12.0;
  check_eval "div" "(div y x)" env (4.0 /. 3.0);
  check_eval "sqrt" "(sqrt (mul x x))" env 3.0;
  check_eval "nested" "(add (mul x x) (mul y y))" env 25.0

let test_eval_protected () =
  let env = env_with ~x:5.0 () in
  (* Protected division returns the numerator when dividing by ~0. *)
  check_eval "div by zero" "(div x 0.0)" env 5.0;
  check_eval "div by tiny" "(div x 1e-30)" env 5.0;
  (* Protected sqrt takes the absolute value. *)
  check_eval "sqrt of negative" "(sqrt (sub 0.0 9.0))" env 3.0

let test_eval_conditionals () =
  let env_t = env_with ~x:2.0 ~y:10.0 ~p:true () in
  let env_f = env_with ~x:2.0 ~y:10.0 ~p:false () in
  check_eval "tern true" "(tern p x y)" env_t 2.0;
  check_eval "tern false" "(tern p x y)" env_f 10.0;
  (* cmul: Real1 * Real2 if Bool1, else Real2 (Table 1). *)
  check_eval "cmul true" "(cmul p x y)" env_t 20.0;
  check_eval "cmul false" "(cmul p x y)" env_f 10.0

let test_eval_bool () =
  let ev src env = Gp.Eval.bool env (parse_b src) in
  let env = env_with ~x:1.0 ~y:2.0 ~p:true ~q:false () in
  Alcotest.(check bool) "and" false (ev "(and p q)" env);
  Alcotest.(check bool) "or" true (ev "(or p q)" env);
  Alcotest.(check bool) "not" true (ev "(not q)" env);
  Alcotest.(check bool) "lt" true (ev "(lt x y)" env);
  Alcotest.(check bool) "gt" false (ev "(gt x y)" env);
  Alcotest.(check bool) "eq" true (ev "(eq x 1.0)" env);
  Alcotest.(check bool) "bconst" true (ev "(bconst true)" env);
  Alcotest.(check bool) "barg" false (ev "(barg q)" env)

(* The baseline hyperblock priority function (Equation 1) evaluates to the
   paper's values on hand-computed feature settings. *)
let test_equation_1 () =
  let hb_fs = Hyperblock.Features.feature_set in
  let env = Gp.Feature_set.empty_env hb_fs in
  Gp.Feature_set.set_real hb_fs env "exec_ratio" 0.5;
  Gp.Feature_set.set_real hb_fs env "d_ratio" 0.6;
  Gp.Feature_set.set_real hb_fs env "o_ratio" 0.4;
  Gp.Feature_set.set_bool hb_fs env "has_pointer_deref" false;
  Gp.Feature_set.set_bool hb_fs env "has_unsafe_jsr" false;
  Alcotest.(check (float 1e-9)) "hazard-free"
    (0.5 *. 1.0 *. (2.1 -. 0.6 -. 0.4))
    (Gp.Eval.real env Hyperblock.Baseline.expr);
  Gp.Feature_set.set_bool hb_fs env "has_pointer_deref" true;
  Alcotest.(check (float 1e-9)) "with hazard"
    (0.5 *. 0.25 *. (2.1 -. 0.6 -. 0.4))
    (Gp.Eval.real env Hyperblock.Baseline.expr)

(* --- Parsing / printing -------------------------------------------------- *)

let test_parse_errors () =
  let fails s =
    Alcotest.check_raises ("reject " ^ s) (Gp.Sexp.Parse_error "")
      (fun () ->
        try ignore (parse_r s)
        with Gp.Sexp.Parse_error _ -> raise (Gp.Sexp.Parse_error ""))
  in
  fails "(add x)";
  fails "(add x y z)";
  fails "(unknown x y)";
  fails "(add x unknown_feature)";
  fails "(add x y";
  fails ""

let test_parse_forms () =
  (* rconst / rarg / barg explicit forms, plus bare atoms. *)
  let env = env_with ~x:7.0 () in
  check_eval "rconst form" "(rconst 2.5)" env 2.5;
  check_eval "rarg form" "(rarg x)" env 7.0;
  check_eval "bare float" "3.25" env 3.25;
  check_eval "bare feature" "x" env 7.0;
  Alcotest.(check bool) "barg form" false
    (Gp.Eval.bool env (parse_b "(barg q)"))

let genome_gen =
  let cfg = Gp.Gen.default_config fs in
  QCheck.Gen.(
    map
      (fun (seed, sort, depth) ->
        let rng = Random.State.make [| seed |] in
        Gp.Gen.genome cfg rng
          ~sort:(if sort then `Real else `Bool)
          ~full:false
          (2 + (depth mod 5)))
      (triple int bool int))

let arbitrary_genome =
  QCheck.make
    ~print:(fun g -> Gp.Sexp.to_string fs g)
    genome_gen

let qcheck_roundtrip =
  QCheck.Test.make ~name:"sexp print/parse round-trips" ~count:300
    arbitrary_genome (fun g ->
      let s = Gp.Sexp.to_string fs g in
      let sort = match g with Gp.Expr.Real _ -> `Real | Gp.Expr.Bool _ -> `Bool in
      let g' = Gp.Sexp.parse_genome fs ~sort s in
      Gp.Sexp.to_string fs g' = s)

let qcheck_eval_total =
  QCheck.Test.make ~name:"evaluation is total and finite" ~count:300
    QCheck.(pair arbitrary_genome (triple float float float))
    (fun (g, (x, y, z)) ->
      let clean v = if Float.is_nan v then 0.0 else v in
      let env = env_with ~x:(clean x) ~y:(clean y) ~z:(clean z) () in
      match Gp.Eval.genome env g with
      | `Real v -> Float.is_finite v
      | `Bool _ -> true)

(* --- Tree navigation & genetic operators --------------------------------- *)

let test_tree_nodes () =
  let g = Gp.Expr.Real (parse_r "(add (mul x y) (tern p z 1.0))") in
  let nodes = Gp.Tree.nodes g in
  (* add, mul, x, y, tern, p, z, 1.0 *)
  Alcotest.(check int) "node count" 8 (List.length nodes);
  Alcotest.(check int) "size agrees" (Gp.Expr.size g) (List.length nodes);
  let root = List.hd nodes in
  Alcotest.(check bool) "root is real" true (root.Gp.Tree.sort = Gp.Tree.S_real)

let test_tree_replace () =
  let g = Gp.Expr.Real (parse_r "(add x y)") in
  let g' = Gp.Tree.replace g [ 1 ] (Gp.Expr.Real (parse_r "z")) in
  Alcotest.(check string) "replaced right child" "(add x z)"
    (Gp.Sexp.to_string fs g')

let qcheck_crossover_wellformed =
  QCheck.Test.make ~name:"crossover produces same-sort printable offspring"
    ~count:300
    QCheck.(triple arbitrary_genome arbitrary_genome small_int)
    (fun (a, b, seed) ->
      let rng = Random.State.make [| seed |] in
      match (a, b) with
      | Gp.Expr.Real _, Gp.Expr.Real _ | Gp.Expr.Bool _, Gp.Expr.Bool _ ->
        let child = Gp.Genetic_ops.crossover rng a b in
        let same_sort =
          match (a, child) with
          | Gp.Expr.Real _, Gp.Expr.Real _ | Gp.Expr.Bool _, Gp.Expr.Bool _ ->
            true
          | _ -> false
        in
        same_sort && String.length (Gp.Sexp.to_string fs child) > 0
      | _ -> QCheck.assume_fail ())

let qcheck_crossover_depth_bound =
  QCheck.Test.make ~name:"bounded crossover respects the depth cap" ~count:300
    QCheck.(triple arbitrary_genome arbitrary_genome small_int)
    (fun (a, b, seed) ->
      let rng = Random.State.make [| seed |] in
      match (a, b) with
      | Gp.Expr.Real _, Gp.Expr.Real _ | Gp.Expr.Bool _, Gp.Expr.Bool _ ->
        let child = Gp.Genetic_ops.crossover_bounded rng ~max_depth:9 a b in
        Gp.Expr.depth child <= max 9 (Gp.Expr.depth a)
      | _ -> QCheck.assume_fail ())

let qcheck_mutation_wellformed =
  QCheck.Test.make ~name:"mutation keeps sort and depth cap" ~count:300
    QCheck.(pair arbitrary_genome small_int)
    (fun (g, seed) ->
      let rng = Random.State.make [| seed |] in
      let cfg = Gp.Gen.default_config fs in
      let m = Gp.Genetic_ops.mutate cfg rng ~max_depth:12 g in
      let same_sort =
        match (g, m) with
        | Gp.Expr.Real _, Gp.Expr.Real _ | Gp.Expr.Bool _, Gp.Expr.Bool _ ->
          true
        | _ -> false
      in
      same_sort && Gp.Expr.depth m <= max 12 (Gp.Expr.depth g))

(* --- Ramped initialization ------------------------------------------------ *)

let test_ramped () =
  let cfg = Gp.Gen.default_config fs in
  let rng = Random.State.make [| 7 |] in
  let pop = Gp.Gen.ramped cfg rng ~sort:`Real ~count:100 in
  Alcotest.(check int) "population size" 100 (List.length pop);
  List.iter
    (fun g ->
      Alcotest.(check bool) "depth within ramp" true
        (Gp.Expr.depth g <= cfg.Gp.Gen.max_depth))
    pop;
  (* Some diversity is expected. *)
  let distinct =
    List.sort_uniq compare (List.map (Gp.Sexp.to_string fs) pop)
  in
  Alcotest.(check bool) "diverse initial population" true
    (List.length distinct > 30)

(* --- DSS ------------------------------------------------------------------ *)

let test_dss_subset () =
  let d = Gp.Dss.create ~n_cases:10 ~subset_size:4 () in
  let rng = Random.State.make [| 3 |] in
  let subset = Gp.Dss.select d rng in
  Alcotest.(check int) "subset size" 4 (List.length subset);
  Alcotest.(check int) "no duplicates" 4
    (List.length (List.sort_uniq compare subset));
  List.iter
    (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < 10))
    subset

let test_dss_difficulty_bias () =
  (* A case that always fails should be selected far more often than one
     that always succeeds. *)
  let d = Gp.Dss.create ~n_cases:2 ~subset_size:1 () in
  let rng = Random.State.make [| 5 |] in
  let hard_picks = ref 0 in
  for _ = 1 to 200 do
    let subset = Gp.Dss.select d rng in
    if List.mem 0 subset then incr hard_picks;
    Gp.Dss.update d ~subset ~failure_rate:(fun i ->
        if i = 0 then 1.0 else 0.0)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "hard case dominates selection (%d/200)" !hard_picks)
    true (!hard_picks > 120)

(* --- Evolution on a synthetic problem ------------------------------------- *)

(* Fitness: how well the expression approximates x*y + 1 over sample
   points; the optimum is reachable and random search plus crossover finds
   a good approximation quickly. *)
let synthetic_eval g _case =
  let samples =
    List.init 16 (fun i ->
        let x = float_of_int (i mod 4) and y = float_of_int (i / 4) in
        (x, y, (x *. y) +. 1.0))
  in
  match g with
  | Gp.Expr.Bool _ -> 0.0
  | Gp.Expr.Real e ->
    let err =
      List.fold_left
        (fun acc (x, y, want) ->
          let env = env_with ~x ~y () in
          acc +. Float.abs (Gp.Eval.real env e -. want))
        0.0 samples
    in
    1.0 /. (1.0 +. err)

let synthetic_problem_of eval =
  {
    Gp.Evolve.fs;
    sort = `Real;
    baseline = Some (Gp.Expr.Real (parse_r "(add x y)"));
    n_cases = 1;
    case_name = (fun _ -> "synthetic");
    evaluator = Gp.Evolve.evaluator_of_fn eval;
  }

let synthetic_problem () = synthetic_problem_of synthetic_eval

let test_evolve_improves () =
  let p = synthetic_problem () in
  let params = { Gp.Params.tiny with Gp.Params.population_size = 60;
                 generations = 15 } in
  let r = Gp.Evolve.run ~params p in
  let baseline_fitness = synthetic_eval (Option.get p.Gp.Evolve.baseline) 0 in
  Alcotest.(check bool)
    (Printf.sprintf "evolved (%.3f) beats seed (%.3f)" r.Gp.Evolve.best_fitness
       baseline_fitness)
    true
    (r.Gp.Evolve.best_fitness >= baseline_fitness);
  Alcotest.(check int) "history has one entry per generation" 15
    (List.length r.Gp.Evolve.history);
  (* Best-of-generation fitness never decreases with elitism on a single
     static case. *)
  let rec monotone : Gp.Evolve.generation_stats list -> bool = function
    | a :: (b :: _ as rest) ->
      a.Gp.Evolve.best_fitness <= b.Gp.Evolve.best_fitness +. 1e-9
      && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "elitist best fitness is monotone" true
    (monotone r.Gp.Evolve.history)

let test_evolve_memoizes () =
  let count = ref 0 in
  let p =
    synthetic_problem_of (fun g _ ->
        incr count;
        match g with
        | Gp.Expr.Real e ->
          let env = env_with ~x:2.0 ~y:3.0 () in
          1.0 /. (1.0 +. Float.abs (Gp.Eval.real env e -. 7.0))
        | Gp.Expr.Bool _ -> 0.0)
  in
  let params = Gp.Params.tiny in
  let r = Gp.Evolve.run ~params p in
  (* result.evaluations counts exactly the non-memoized evaluations, and
     those are bounded by distinct genomes, far fewer than generations *
     population re-evaluations. *)
  Alcotest.(check int) "evaluations counts only non-memoized calls" !count
    r.Gp.Evolve.evaluations;
  Alcotest.(check bool)
    (Printf.sprintf "memoized (%d calls)" !count)
    true
    (!count
    <= params.Gp.Params.population_size
       * (params.Gp.Params.generations + 2))

(* The bugfix satellite: memoization is keyed on the *simplified* genome,
   so a crossover product that reduces to an already-seen expression is a
   cache hit, not a recompile. *)
let test_batch_memo_on_simplified_genome () =
  let count = ref 0 in
  let ev =
    Gp.Evolve.evaluator_of_fn (fun g _ ->
        incr count;
        match g with
        | Gp.Expr.Real e -> Gp.Eval.real (env_with ~x:4.0 ()) e
        | Gp.Expr.Bool _ -> 0.0)
  in
  let plain = Gp.Expr.Real (parse_r "x") in
  (* -0.0 * sqrt(y) is provably -0.0, and -0.0 + x = x bit-exactly for
     every finite x — so this intron soundly reduces to plain [x]. *)
  let intron = Gp.Expr.Real (parse_r "(add (mul -0.0 (sqrt y)) x)") in
  let m = ev.Gp.Evolve.evaluate_batch [| intron; plain |] ~cases:[ 0 ] in
  Alcotest.(check int) "rows" 2 (Array.length m);
  Alcotest.(check (float 1e-9)) "intron row" 4.0 m.(0).(0);
  Alcotest.(check (float 1e-9)) "plain row" 4.0 m.(1).(0);
  Alcotest.(check int) "one evaluation for both" 1 !count;
  Alcotest.(check int) "evaluations() agrees" 1 (ev.Gp.Evolve.evaluations ());
  (* A second batch over the same semantics costs nothing. *)
  let m2 = ev.Gp.Evolve.evaluate_batch [| plain |] ~cases:[ 0 ] in
  Alcotest.(check (float 1e-9)) "cache hit" 4.0 m2.(0).(0);
  Alcotest.(check int) "still one evaluation" 1 !count

let test_batch_shape () =
  let ev =
    Gp.Evolve.evaluator_of_fn (fun g c ->
        match g with
        | Gp.Expr.Real e ->
          Gp.Eval.real (env_with ~x:(float_of_int c) ()) e +. 1.0
        | Gp.Expr.Bool _ -> 0.0)
  in
  let m =
    ev.Gp.Evolve.evaluate_batch
      [| Gp.Expr.Real (parse_r "x"); Gp.Expr.Real (parse_r "(mul x 2.0)") |]
      ~cases:[ 2; 0; 1 ]
  in
  (* Row per genome, column per case, in the order given. *)
  Alcotest.(check (float 1e-9)) "row0 case2" 3.0 m.(0).(0);
  Alcotest.(check (float 1e-9)) "row0 case0" 1.0 m.(0).(1);
  Alcotest.(check (float 1e-9)) "row0 case1" 2.0 m.(0).(2);
  Alcotest.(check (float 1e-9)) "row1 case2" 5.0 m.(1).(0);
  Alcotest.(check (float 1e-9)) "row1 case1" 3.0 m.(1).(2)

(* The paper: "GP can handle noisy environments, as long as the level of
   noise is smaller than attainable speedups" — verify on the synthetic
   problem with multiplicative noise injected into fitness. *)
let test_evolve_under_noise () =
  let noise_rng = Random.State.make [| 99 |] in
  let noisy =
    synthetic_problem_of (fun g c ->
        let v = synthetic_eval g c in
        v *. (1.0 +. (0.02 *. (Random.State.float noise_rng 2.0 -. 1.0))))
  in
  let params =
    { Gp.Params.tiny with Gp.Params.population_size = 40; generations = 10 }
  in
  let r = Gp.Evolve.run ~params noisy in
  let baseline_clean =
    synthetic_eval (Option.get noisy.Gp.Evolve.baseline) 0
  in
  let best_clean = synthetic_eval r.Gp.Evolve.best 0 in
  Alcotest.(check bool)
    (Printf.sprintf "evolved under noise still good (%.3f vs seed %.3f)"
       best_clean baseline_clean)
    true
    (best_clean >= baseline_clean -. 0.02)

let test_parsimony_prefers_small () =
  (* Two expressions with equal fitness: tournament must prefer smaller. *)
  let a = { Gp.Evolve.genome = Gp.Expr.Real (parse_r "x"); fitness = 1.0;
            size = 1 } in
  let b =
    { Gp.Evolve.genome = Gp.Expr.Real (parse_r "(add x 0.0)"); fitness = 1.0;
      size = 3 }
  in
  Alcotest.(check bool) "smaller wins tie" true
    (Gp.Evolve.better ~eps:1e-4 a b);
  Alcotest.(check bool) "bigger loses tie" false
    (Gp.Evolve.better ~eps:1e-4 b a);
  Alcotest.(check bool) "fitness dominates size" true
    (Gp.Evolve.better ~eps:1e-4 { b with Gp.Evolve.fitness = 1.1 } a)

(* The tiny-population bugfix: population_size = 1 used to ask Gen.ramped
   for a negative number of random individuals (the baseline seed alone
   already filled the population) and die in List.init.  The seed list is
   now truncated and the random count clamped to 0. *)
let test_population_of_one () =
  let params =
    { Gp.Params.tiny with Gp.Params.population_size = 1; generations = 2 }
  in
  let r = Gp.Evolve.run ~params (synthetic_problem ()) in
  Alcotest.(check int) "one stats entry per generation" 2
    (List.length r.Gp.Evolve.history);
  (* The only individual is the baseline seed, so the champion is at least
     as fit as the baseline (mutation may improve it). *)
  let baseline_fitness =
    synthetic_eval (Option.get (synthetic_problem ()).Gp.Evolve.baseline) 0
  in
  Alcotest.(check bool) "champion no worse than the seed" true
    (r.Gp.Evolve.best_fitness >= baseline_fitness -. 1e-9);
  (* Without the baseline seed the single slot is a random individual. *)
  let unseeded =
    { params with Gp.Params.seed_baseline = false; rng_seed = 5 }
  in
  let r2 = Gp.Evolve.run ~params:unseeded (synthetic_problem ()) in
  Alcotest.(check bool) "unseeded run completes" true
    (Float.is_finite r2.Gp.Evolve.best_fitness);
  (* One is the smallest population: none is rejected by name. *)
  Alcotest.check_raises "population of zero"
    (Invalid_argument "Evolve.run: population_size must be >= 1 (got 0)")
    (fun () ->
      ignore
        (Gp.Evolve.run
           ~params:{ params with Gp.Params.population_size = 0 }
           (synthetic_problem ())))

(* The tournament sampler: distinct contestants whenever the population
   can supply them. *)
let test_sample_distinct () =
  let rng = Random.State.make [| 1234 |] in
  for _ = 1 to 200 do
    let n = 1 + Random.State.int rng 20 in
    let k = Random.State.int rng (n + 1) in
    let out = Gp.Evolve.sample_distinct rng ~n ~k in
    Alcotest.(check int) "length" k (Array.length out);
    let seen = Hashtbl.create 8 in
    Array.iter
      (fun i ->
        Alcotest.(check bool) "in range" true (i >= 0 && i < n);
        if Hashtbl.mem seen i then Alcotest.failf "duplicate index %d" i;
        Hashtbl.add seen i ())
      out
  done;
  Alcotest.(check (array int)) "k = 0" [||]
    (Gp.Evolve.sample_distinct rng ~n:5 ~k:0);
  let perm = Gp.Evolve.sample_distinct rng ~n:6 ~k:6 in
  let sorted = Array.copy perm in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "k = n is a permutation" (Array.init 6 Fun.id)
    sorted;
  (* The first draw of each slot is the with-replacement sampler's draw,
     so collision-free tournaments consume the RNG identically to the old
     code. *)
  let r1 = Random.State.make [| 7 |] and r2 = Random.State.make [| 7 |] in
  let one = Gp.Evolve.sample_distinct r1 ~n:50 ~k:1 in
  Alcotest.(check int) "first draw matches a plain draw"
    (Random.State.int r2 50) one.(0);
  Alcotest.check_raises "k > n" (Invalid_argument "Evolve.sample_distinct: k > n")
    (fun () -> ignore (Gp.Evolve.sample_distinct rng ~n:3 ~k:4));
  Alcotest.check_raises "k < 0"
    (Invalid_argument "Evolve.sample_distinct: negative k") (fun () ->
      ignore (Gp.Evolve.sample_distinct rng ~n:3 ~k:(-1)))

(* Golden determinism: the tournament rework must not make runs depend on
   anything but the seed — two identical runs produce identical output,
   including when the tournament is larger than the population (the
   with-replacement path). *)
let test_evolve_reproducible () =
  let check_twice params =
    let run () = Gp.Evolve.run ~params (synthetic_problem ()) in
    let a = run () and b = run () in
    Alcotest.(check (float 0.0)) "same best fitness" a.Gp.Evolve.best_fitness
      b.Gp.Evolve.best_fitness;
    Alcotest.(check int) "same evaluation count" a.Gp.Evolve.evaluations
      b.Gp.Evolve.evaluations;
    List.iter2
      (fun (x : Gp.Evolve.generation_stats) (y : Gp.Evolve.generation_stats) ->
        Alcotest.(check string) "same champion" x.Gp.Evolve.best_expr
          y.Gp.Evolve.best_expr;
        Alcotest.(check (float 0.0)) "same mean" x.Gp.Evolve.mean_fitness
          y.Gp.Evolve.mean_fitness)
      a.Gp.Evolve.history b.Gp.Evolve.history
  in
  check_twice Gp.Params.tiny;
  (* Tournament larger than the population: sampling falls back to
     with-replacement draws. *)
  check_twice
    { Gp.Params.tiny with Gp.Params.population_size = 4; tournament_size = 9 }

(* --- Simplification ------------------------------------------------------ *)

let test_simplify_rules () =
  let simp src = Gp.Sexp.real_to_string fs (Gp.Simplify.rexpr (parse_r src)) in
  (* x can evaluate to -0.0, so +0.0 may neither be dropped from x+0
     (+0 + -0 = +0) nor absorb x*0 (0 * -1 = -0): bit-exactness keeps
     both.  Subtraction of +0.0 is the always-sound direction. *)
  Alcotest.(check string) "x+0 stays" "(add x 0.0000)" (simp "(add x 0.0)");
  Alcotest.(check string) "x-0" "x" (simp "(sub x 0.0)");
  Alcotest.(check string) "x*1" "x" (simp "(mul x 1.0)");
  Alcotest.(check string) "x*0 stays" "(mul x 0.0000)" (simp "(mul x 0.0)");
  Alcotest.(check string) "x-x" "0.0000" (simp "(sub x x)");
  Alcotest.(check string) "const fold" "7.0000" (simp "(add 3.0 4.0)");
  Alcotest.(check string) "tern true" "x" (simp "(tern (bconst true) x y)");
  Alcotest.(check string) "tern same" "x" (simp "(tern p x x)");
  Alcotest.(check string) "cmul false" "y" (simp "(cmul (bconst false) x y)");
  (* sqrt is provably >= 0 and never -0.0, so the zero rules fire. *)
  Alcotest.(check string) "0*sqrt" "0.0000" (simp "(mul 0.0 (sqrt y))");
  Alcotest.(check string) "nested intron"
    "1.0000" (simp "(add (mul 0.0 (sqrt y)) 1.0)");
  (* x/x must NOT fold to 1 (protected semantics). *)
  Alcotest.(check string) "x/x stays" "(div x x)" (simp "(div x x)");
  let simpb src = Gp.Sexp.bool_to_string fs (Gp.Simplify.bexpr (parse_b src)) in
  Alcotest.(check string) "not not" "p" (simpb "(not (not p))");
  Alcotest.(check string) "and false" "false" (simpb "(and p (bconst false))");
  Alcotest.(check string) "or true" "true" (simpb "(or (bconst true) q)");
  Alcotest.(check string) "x<x" "false" (simpb "(lt x x)")

(* Regression: the old [Rconst 0.0] patterns also matched -0.0, so
   simplification could flip the sign bit of a zero result vs [Eval] —
   breaking the [Int64.bits_of_float] equivalence the evaluator cache
   key relies on.  Each case pins the exact bits on a witness env. *)
let test_simplify_signed_zero () =
  let bits = Int64.bits_of_float in
  let check_case name src ~x =
    let e = parse_r src in
    let env = env_with ~x () in
    let raw = Gp.Eval.real env e in
    let simplified = Gp.Eval.real env (Gp.Simplify.rexpr e) in
    Alcotest.(check int64)
      (name ^ " bits")
      (bits raw) (bits simplified)
  in
  (* -0 + x: always droppable; must still yield -0.0 when x = -0.0. *)
  check_case "-0+x" "(add -0.0 x)" ~x:(-0.0);
  (* +0 + x is NOT droppable: +0 + -0 = +0 but x alone is -0. *)
  check_case "+0+x" "(add 0.0 x)" ~x:(-0.0);
  (* 0 * x would flip the zero's sign for negative x. *)
  check_case "0*x" "(mul 0.0 x)" ~x:(-1.0);
  check_case "-0*x" "(mul -0.0 x)" ~x:(2.0);
  (* x - -0.0 normalizes a -0.0 minuend to +0.0. *)
  check_case "x--0" "(sub x -0.0)" ~x:(-0.0);
  (* a - b with trees equal up to a zero's sign must not fold to 0.0:
     (x + -0) - (x + +0) = -0.0 when x = -0.0. *)
  check_case "sub of sign-twins" "(sub (add x -0.0) (add x 0.0))" ~x:(-0.0);
  (* The sound directions must still fire (and still be bit-right). *)
  let shows src expect =
    Alcotest.(check string) src expect
      (Gp.Sexp.real_to_string fs (Gp.Simplify.rexpr (parse_r src)))
  in
  shows "(add -0.0 x)" "x";
  shows "(sub x 0.0)" "x";
  shows "(mul 0.0 (sqrt x))" "0.0000";
  shows "(mul -0.0 (sqrt x))" "-0.0000";
  shows "(add 0.0 (sqrt x))" "(sqrt x)"

let qcheck_simplify_preserves_value =
  QCheck.Test.make ~name:"simplification preserves evaluation" ~count:500
    QCheck.(pair arbitrary_genome (triple (float_range (-100.) 100.)
                                     (float_range (-100.) 100.)
                                     (float_range (-100.) 100.)))
    (fun (g, (x, y, z)) ->
      let env = env_with ~x ~y ~z ~p:true ~q:false () in
      let s = Gp.Simplify.genome g in
      match (Gp.Eval.genome env g, Gp.Eval.genome env s) with
      | `Real a, `Real b ->
        a = b || Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)
      | `Bool a, `Bool b -> a = b
      | _ -> false)

let qcheck_simplify_never_grows =
  QCheck.Test.make ~name:"simplification never grows expressions" ~count:500
    arbitrary_genome (fun g ->
      Gp.Expr.size (Gp.Simplify.genome g) <= Gp.Expr.size g)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_roundtrip;
      qcheck_eval_total;
      qcheck_crossover_wellformed;
      qcheck_crossover_depth_bound;
      qcheck_mutation_wellformed;
      qcheck_simplify_preserves_value;
      qcheck_simplify_never_grows;
    ]

let suite =
  [
    Alcotest.test_case "arith evaluation" `Quick test_eval_arith;
    Alcotest.test_case "protected operators" `Quick test_eval_protected;
    Alcotest.test_case "tern and cmul" `Quick test_eval_conditionals;
    Alcotest.test_case "boolean operators" `Quick test_eval_bool;
    Alcotest.test_case "equation 1 baseline" `Quick test_equation_1;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse explicit forms" `Quick test_parse_forms;
    Alcotest.test_case "tree node enumeration" `Quick test_tree_nodes;
    Alcotest.test_case "tree replace" `Quick test_tree_replace;
    Alcotest.test_case "ramped half-and-half" `Quick test_ramped;
    Alcotest.test_case "dss subset selection" `Quick test_dss_subset;
    Alcotest.test_case "dss difficulty bias" `Quick test_dss_difficulty_bias;
    Alcotest.test_case "evolution improves fitness" `Slow test_evolve_improves;
    Alcotest.test_case "fitness memoization" `Quick test_evolve_memoizes;
    Alcotest.test_case "batch memo keys on simplified genome" `Quick
      test_batch_memo_on_simplified_genome;
    Alcotest.test_case "batch evaluator shape" `Quick test_batch_shape;
    Alcotest.test_case "parsimony pressure" `Quick test_parsimony_prefers_small;
    Alcotest.test_case "population of one" `Quick test_population_of_one;
    Alcotest.test_case "tournament sampling without replacement" `Quick
      test_sample_distinct;
    Alcotest.test_case "evolution reproducible" `Quick test_evolve_reproducible;
    Alcotest.test_case "simplification rules" `Quick test_simplify_rules;
    Alcotest.test_case "simplification signed zeros" `Quick
      test_simplify_signed_zero;
    Alcotest.test_case "evolution under noise" `Slow test_evolve_under_noise;
  ]
  @ qcheck_tests
