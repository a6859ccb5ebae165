(* Tests for the telemetry core and its instrumentation hooks: the
   disabled path must be a strict no-op, JSONL records must round-trip
   through the bundled JSON codec, histogram percentiles are exact, and
   the records emitted by the evolution/pool/evaluator layers must agree
   with what those layers report in-process. *)

module T = Gp.Telemetry

(* Every test leaves the process with no sink installed — the sink is
   global state shared with every other suite in this binary. *)
let with_memory_sink f =
  let sink, records = T.memory_sink () in
  T.set_sink (Some sink);
  Fun.protect ~finally:(fun () -> T.set_sink None) (fun () -> f records)

(* --- Disabled path ------------------------------------------------------- *)

let test_disabled_is_noop () =
  T.set_sink None;
  Alcotest.(check bool) "disabled without a sink" false (T.enabled ());
  (* Entry points must not touch the registry when disabled. *)
  T.reset ();
  T.incr "noop.counter";
  T.observe "noop.hist" 1.0;
  Alcotest.(check int) "incr is a no-op" 0
    (T.Counter.value (T.counter "noop.counter"));
  Alcotest.(check int) "observe is a no-op" 0
    (T.Histogram.count (T.histogram "noop.hist"));
  (* span is exactly [f ()]: value, exceptions, no histogram sample. *)
  Alcotest.(check int) "span returns f's value" 41 (T.span "noop.span" (fun () -> 41));
  Alcotest.check_raises "span propagates" (Failure "boom") (fun () ->
      T.span "noop.span" (fun () -> failwith "boom"));
  Alcotest.(check int) "span recorded nothing" 0
    (T.Histogram.count (T.histogram "noop.span"))

let test_enabled_records () =
  with_memory_sink (fun records ->
      Alcotest.(check bool) "enabled with a sink" true (T.enabled ());
      T.incr ~by:3 "on.counter";
      T.observe "on.hist" 2.5;
      Alcotest.(check int) "counter bumped" 3
        (T.Counter.value (T.counter "on.counter"));
      Alcotest.(check int) "histogram fed" 1
        (T.Histogram.count (T.histogram "on.hist"));
      ignore (T.span "on.span" (fun () -> ()));
      Alcotest.(check int) "span feeds its histogram" 1
        (T.Histogram.count (T.histogram "on.span"));
      T.emit ~kind:"probe" [ ("answer", T.Int 42) ];
      match records () with
      | [ r ] ->
        Alcotest.(check bool) "kind stamped" true
          (T.member "kind" r = Some (T.String "probe"));
        Alcotest.(check bool) "payload kept" true
          (T.member "answer" r = Some (T.Int 42));
        (match T.member "ts" r with
        | Some (T.Float ts) ->
          Alcotest.(check bool) "ts is a small offset" true (ts >= 0.0 && ts < 60.0)
        | _ -> Alcotest.fail "ts missing")
      | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs))

(* --- JSON codec ---------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    T.Obj
      [
        ("null", T.Null);
        ("t", T.Bool true);
        ("f", T.Bool false);
        ("int", T.Int (-42));
        ("float", T.Float 1.5);
        ("tiny", T.Float 1e-17);
        ("str", T.String "quotes \" backslash \\ newline \n tab \t");
        ("list", T.List [ T.Int 1; T.String "two"; T.List []; T.Obj [] ]);
        ("nested", T.Obj [ ("k", T.List [ T.Bool false; T.Null ]) ]);
      ]
  in
  (match T.json_of_string (T.json_to_string doc) with
  | Ok got -> Alcotest.(check bool) "round-trips structurally" true (got = doc)
  | Error e -> Alcotest.failf "re-parse failed: %s" e);
  (* Non-finite floats have no JSON form and serialize as null. *)
  Alcotest.(check string) "nan -> null" "null" (T.json_to_string (T.Float Float.nan));
  Alcotest.(check string) "inf -> null" "null"
    (T.json_to_string (T.Float Float.infinity));
  (* Malformed inputs are errors, not exceptions. *)
  List.iter
    (fun s ->
      match T.json_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parsed garbage %S" s)
    [ ""; "{"; "{\"a\":}"; "[1,]"; "tru"; "\"unterminated"; "{} trailing" ]

let test_jsonl_sink_file () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "metaopt-telemetry-%d.jsonl" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      T.set_sink None;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      T.set_sink (Some (T.jsonl_sink path));
      T.emit ~kind:"a" [ ("v", T.Int 1) ];
      T.emit ~kind:"b" [ ("v", T.Float 2.0) ];
      T.set_sink None;
      let ic = open_in path in
      let rec lines acc =
        match input_line ic with
        | l -> lines (l :: acc)
        | exception End_of_file ->
          close_in ic;
          List.rev acc
      in
      let ls = lines [] in
      Alcotest.(check int) "one line per record" 2 (List.length ls);
      List.iter
        (fun l ->
          match T.json_of_string l with
          | Ok (T.Obj _) -> ()
          | Ok _ -> Alcotest.failf "non-object line %S" l
          | Error e -> Alcotest.failf "invalid JSONL line %S: %s" l e)
        ls)

(* --- Histogram ----------------------------------------------------------- *)

let test_histogram_percentiles () =
  let h = T.Histogram.create () in
  Alcotest.(check int) "empty count" 0 (T.Histogram.count h);
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (T.Histogram.percentile h 50.0);
  (* Insert out of order: percentiles must sort. *)
  List.iter (T.Histogram.add h) [ 3.0; 1.0; 4.0; 2.0 ];
  Alcotest.(check int) "count" 4 (T.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 10.0 (T.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (T.Histogram.mean h);
  Alcotest.(check (float 0.0)) "min" 1.0 (T.Histogram.min h);
  Alcotest.(check (float 0.0)) "max" 4.0 (T.Histogram.max h);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (T.Histogram.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p50 interpolates" 2.5 (T.Histogram.percentile h 50.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (T.Histogram.percentile h 100.0);
  (* Closest-rank interpolation at p95 over 4 samples: rank 2.85. *)
  Alcotest.(check (float 1e-9)) "p95" 3.85 (T.Histogram.percentile h 95.0);
  (* Growth past the initial capacity keeps everything. *)
  let big = T.Histogram.create () in
  for i = 1 to 10_000 do
    T.Histogram.add big (float_of_int i)
  done;
  Alcotest.(check int) "big count" 10_000 (T.Histogram.count big);
  Alcotest.(check (float 1e-6)) "big median" 5000.5
    (T.Histogram.percentile big 50.0)

(* --- Instrumented layers ------------------------------------------------- *)

let fs =
  Gp.Feature_set.make ~reals:[ "x"; "y"; "z" ] ~bools:[ "p"; "q" ]

let synthetic_eval g _case =
  match g with
  | Gp.Expr.Bool _ -> 0.0
  | Gp.Expr.Real e ->
    let env = Gp.Feature_set.empty_env fs in
    Gp.Feature_set.set_real fs env "x" 2.0;
    Gp.Feature_set.set_real fs env "y" 3.0;
    1.0 /. (1.0 +. Float.abs (Gp.Eval.real env e -. 7.0))

let synthetic_problem () =
  {
    Gp.Evolve.fs;
    sort = `Real;
    baseline = Some (Gp.Expr.Real (Gp.Sexp.parse_real fs "(add x y)"));
    n_cases = 1;
    case_name = (fun _ -> "synthetic");
    evaluator = Gp.Evolve.evaluator_of_fn synthetic_eval;
  }

(* The evolution loop emits one "generation" record per generation, and
   those records agree with result.history. *)
let test_generation_records_match_history () =
  with_memory_sink (fun records ->
      let r = Gp.Evolve.run ~params:Gp.Params.tiny (synthetic_problem ()) in
      let gens =
        List.filter
          (fun j -> T.member "kind" j = Some (T.String "generation"))
          (records ())
      in
      Alcotest.(check int) "one record per generation"
        (List.length r.Gp.Evolve.history)
        (List.length gens);
      List.iter2
        (fun (s : Gp.Evolve.generation_stats) j ->
          Alcotest.(check bool) "gen matches" true
            (T.member "gen" j = Some (T.Int s.Gp.Evolve.gen));
          Alcotest.(check bool) "best_fitness matches" true
            (T.member "best_fitness" j = Some (T.Float s.Gp.Evolve.best_fitness));
          Alcotest.(check bool) "best_expr matches" true
            (T.member "best_expr" j = Some (T.String s.Gp.Evolve.best_expr));
          match T.member "population" j with
          | Some (T.Int n) ->
            Alcotest.(check int) "population"
              Gp.Params.tiny.Gp.Params.population_size n
          | _ -> Alcotest.fail "population missing")
        r.Gp.Evolve.history gens)

(* Instrumentation must not perturb the run: a telemetered evolution is
   bit-identical to a silent one with the same seed. *)
let test_telemetry_does_not_perturb () =
  T.set_sink None;
  let silent = Gp.Evolve.run ~params:Gp.Params.tiny (synthetic_problem ()) in
  let loud =
    with_memory_sink (fun _ ->
        Gp.Evolve.run ~params:Gp.Params.tiny (synthetic_problem ()))
  in
  Alcotest.(check (float 0.0)) "same best fitness" silent.Gp.Evolve.best_fitness
    loud.Gp.Evolve.best_fitness;
  Alcotest.(check int) "same evaluation count" silent.Gp.Evolve.evaluations
    loud.Gp.Evolve.evaluations;
  List.iter2
    (fun (a : Gp.Evolve.generation_stats) (b : Gp.Evolve.generation_stats) ->
      Alcotest.(check string) "same champions" a.Gp.Evolve.best_expr
        b.Gp.Evolve.best_expr)
    silent.Gp.Evolve.history loud.Gp.Evolve.history

let test_pool_record () =
  if Gp.Parmap.available then
    with_memory_sink (fun records ->
        let outcomes, _ =
          Gp.Parmap.run_supervised
            (Gp.Parmap.pool ~backend:`Fork ~jobs:2 ())
            (fun x -> x + 1) (Array.init 6 Fun.id)
        in
        Array.iteri
          (fun i o ->
            match o with
            | Gp.Parmap.Ok v -> Alcotest.(check int) "task value" (i + 1) v
            | _ -> Alcotest.failf "task %d failed" i)
          outcomes;
        let pools =
          List.filter
            (fun j -> T.member "kind" j = Some (T.String "pool"))
            (records ())
        in
        match pools with
        | [ p ] ->
          Alcotest.(check bool) "mode" true
            (T.member "mode" p = Some (T.String "supervised"));
          Alcotest.(check bool) "backend" true
            (T.member "backend" p = Some (T.String "fork"));
          Alcotest.(check bool) "tasks" true
            (T.member "tasks" p = Some (T.Int 6));
          Alcotest.(check bool) "completed" true
            (T.member "completed" p = Some (T.Int 6));
          (match T.member "utilization" p with
          | Some (T.Float u) ->
            Alcotest.(check bool) "utilization in [0,1]" true (u >= 0.0 && u <= 1.0)
          | _ -> Alcotest.fail "utilization missing")
        | ps -> Alcotest.failf "expected 1 pool record, got %d" (List.length ps))

let test_cache_record () =
  with_memory_sink (fun records ->
      let e =
        Driver.Evaluator.create ~fs:Hyperblock.Features.feature_set
          ~scope:"telemetry/scope"
          ~case_name:(fun i -> "case" ^ string_of_int i)
          ~eval:(fun _ c -> 1.0 +. float_of_int c)
          ()
      in
      let g = Hyperblock.Baseline.genome in
      ignore (Driver.Evaluator.evaluate_batch e [| g |] ~cases:[ 0; 1 ]);
      ignore (Driver.Evaluator.evaluate_batch e [| g |] ~cases:[ 0; 1 ]);
      let caches =
        List.filter
          (fun j -> T.member "kind" j = Some (T.String "cache"))
          (records ())
      in
      Alcotest.(check int) "one record per batch" 2 (List.length caches);
      (match caches with
      | [ cold; warm ] ->
        Alcotest.(check bool) "cold misses" true
          (T.member "misses" cold = Some (T.Int 2));
        Alcotest.(check bool) "warm memo hits" true
          (T.member "memo_hits" warm = Some (T.Int 2));
        Alcotest.(check bool) "warm hit rate" true
          (T.member "hit_rate" warm = Some (T.Float 1.0))
      | _ -> assert false);
      (* The in-process classification agrees with the records. *)
      let cs = Driver.Evaluator.cache_stats e in
      Alcotest.(check int) "stats memo hits" 2 cs.Driver.Evaluator.memo_hits;
      Alcotest.(check int) "stats misses" 2 cs.Driver.Evaluator.misses)

let suite =
  [
    Alcotest.test_case "disabled sink is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "enabled sink records" `Quick test_enabled_records;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "jsonl file sink" `Quick test_jsonl_sink_file;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "generation records match history" `Quick
      test_generation_records_match_history;
    Alcotest.test_case "telemetry does not perturb runs" `Quick
      test_telemetry_does_not_perturb;
    Alcotest.test_case "pool record" `Quick test_pool_record;
    Alcotest.test_case "cache record" `Quick test_cache_record;
  ]
