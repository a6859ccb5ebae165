(* Chaos-injection tests: the plan language round-trips, a seeded chaos
   run on the supervised fork pool is bit-identical to a clean one, the
   evaluator's disk cache degrades to memo-only instead of dying, and a
   damaged checkpoint directory still resumes bit-identically. *)

module C = Gp.Chaos

let bits = Int64.bits_of_float

let with_dir tag f =
  let dir = C.Ledger.fresh_dir tag in
  Fun.protect ~finally:(fun () -> C.Ledger.cleanup dir) (fun () -> f dir)

let outcome_label = function
  | Gp.Parmap.Ok _ -> "Ok"
  | Gp.Parmap.Crashed _ -> "Crashed"
  | Gp.Parmap.Timed_out -> "Timed_out"
  | Gp.Parmap.Gave_up -> "Gave_up"

(* --- the plan language ---------------------------------------------------- *)

let test_plan_round_trip () =
  let spec =
    "parmap.task:3@1=hang,parmap.task=slow:0.5,evaluator.cache_write:2=torn,"
    ^ "evolve.checkpoint_write@2=truncate,parmap.task:0=raise:boom"
  in
  (match C.plan_of_string spec with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok p ->
    Alcotest.(check int) "five rules" 5 (List.length p.C.rules);
    Alcotest.(check string) "round trip" spec (C.plan_to_string p);
    (match C.plan_of_string (C.plan_to_string p) with
    | Ok p2 -> Alcotest.(check string) "idempotent"
                 (C.plan_to_string p) (C.plan_to_string p2)
    | Error e -> Alcotest.failf "re-parse rejected: %s" e));
  List.iter
    (fun bad ->
      match C.plan_of_string bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [ "nosuchsite=hang"; "parmap.task=frobnicate"; "parmap.task:x=hang";
      "parmap.task"; "" ]

let test_seeded_plans_deterministic () =
  let a = C.seeded ~seed:42 and b = C.seeded ~seed:42 in
  Alcotest.(check string) "same seed, same plan" (C.plan_to_string a)
    (C.plan_to_string b);
  (* every seeded rule is first-attempt-only and recoverable: a pool with
     retries >= 1 must absorb all of it *)
  List.iter
    (fun seed ->
      List.iter
        (fun r ->
          if r.C.r_site = C.site_parmap_task then
            Alcotest.(check (option int))
              "seeded task rules are attempt-1 only" (Some 1) r.C.r_attempt;
          match r.C.r_fault with
          | C.Hang | C.Exit _ | C.Kill _ ->
            Alcotest.failf "seeded plan %d injects unrecoverable %s" seed
              (C.fault_to_string r.C.r_fault)
          | C.Slow _ | C.Raise _ | C.Torn_write | C.Truncated -> ())
        (C.seeded ~seed).C.rules)
    [ 0; 1; 2; 17; 123 ]

let test_fire_matching () =
  let p =
    match C.plan_of_string "parmap.task:3@1=hang,parmap.task=slow:0.1" with
    | Ok p -> p
    | Error e -> Alcotest.failf "spec: %s" e
  in
  C.arm p;
  Fun.protect ~finally:C.disarm (fun () ->
      C.reset_counts ();
      (match C.fire ~site:C.site_parmap_task ~key:3 ~attempt:1 with
      | Some C.Hang -> ()
      | f ->
        Alcotest.failf "expected hang, got %s"
          (match f with None -> "none" | Some f -> C.fault_to_string f));
      (* attempt 2 falls through the keyed rule to the catch-all *)
      (match C.fire ~site:C.site_parmap_task ~key:3 ~attempt:2 with
      | Some (C.Slow _) -> ()
      | _ -> Alcotest.fail "catch-all should match attempt 2");
      Alcotest.(check (option string)) "other sites untouched" None
        (Option.map C.fault_to_string
           (C.fire ~site:C.site_cache_write ~key:1 ~attempt:1));
      Alcotest.(check int) "hits counted" 2
        (C.fired ~site:C.site_parmap_task ~key:3));
  Alcotest.(check bool) "disarmed" true (C.armed () = None);
  Alcotest.(check (option string)) "nothing fires disarmed" None
    (Option.map C.fault_to_string
       (C.fire ~site:C.site_parmap_task ~key:3 ~attempt:1))

(* --- satellite: seq pools leave supervision limits inert ------------------ *)

(* [`Seq] runs unsupervised: a deadline and retries given to it change
   nothing (the pool logs one warning about them), so a task past its
   deadline still completes and a raising task runs once. *)
let test_seq_pool_limits_inert () =
  let p = Gp.Parmap.pool ~backend:`Seq ~timeout_s:0.01 ~retries:3 () in
  let calls = ref 0 in
  let outcomes, stats =
    Gp.Parmap.run_supervised p
      (fun i ->
        incr calls;
        if i = 0 then Unix.sleepf 0.05 else failwith "boom";
        i)
      [| 0; 1 |]
  in
  Alcotest.(check (list string))
    "past its deadline: Ok; raising: Crashed" [ "Ok"; "Crashed" ]
    (Array.to_list (Array.map outcome_label outcomes));
  Alcotest.(check (pair int int)) "no retry: calls, retries" (2, 0)
    (!calls, stats.Gp.Parmap.retries)

(* --- study-level bit-identity under seeded chaos -------------------------- *)

let test_chaos_vs_clean () =
  match Fuzz.Oracle.chaos_trial 1 with
  | None -> ()
  | Some why -> Alcotest.failf "chaos run diverged from clean run: %s" why

(* --- satellite: cache write degradation ----------------------------------- *)

let with_cache_dir tag f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "metaopt-chaoscache-%s-%d" tag (Unix.getpid ()))
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

let count_lines path =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  end

let mk_cache_evaluator ?(eval = fun _ case -> float_of_int (case + 1)) store =
  Driver.Evaluator.create
    ~pool:(Gp.Parmap.pool ~backend:`Seq ())
    ~store ~fs:Fuzz.Genome_gen.fs ~scope:"chaos/cache"
    ~case_name:(fun i -> "case" ^ string_of_int i)
    ~eval ()

let genome = Gp.Expr.Real (Gp.Expr.Rarg 0)

let test_cache_degrades_on_enospc () =
  with_cache_dir "enospc" @@ fun dir ->
  let sink, records = Gp.Telemetry.memory_sink () in
  Gp.Telemetry.set_sink (Some sink);
  Fun.protect
    ~finally:(fun () -> Gp.Telemetry.set_sink None)
    (fun () ->
      let p =
        match C.plan_of_string "evaluator.cache_write:2=raise:enospc" with
        | Ok p -> p
        | Error e -> Alcotest.failf "spec: %s" e
      in
      C.arm p;
      Fun.protect ~finally:C.disarm (fun () ->
          let store = Driver.Shardstore.open_store dir in
          let e = mk_cache_evaluator store in
          let lines () = count_lines (Driver.Shardstore.file store) in
          Alcotest.(check bool) "healthy at birth" false
            (Driver.Shardstore.degraded store);
          (* one write per batch: the first persists, the second hits the
             injected ENOSPC *)
          let row0 =
            (Driver.Evaluator.evaluate_batch e [| genome |] ~cases:[ 0 ]).(0)
          in
          Alcotest.(check (array (float 0.0))) "first batch" [| 1.0 |] row0;
          Alcotest.(check int) "first batch persisted" 1 (lines ());
          let row =
            (Driver.Evaluator.evaluate_batch e [| genome |] ~cases:[ 1 ]).(0)
          in
          Alcotest.(check (array (float 0.0)))
            "results unaffected by the failed write" [| 2.0 |] row;
          Alcotest.(check bool) "degraded to memo-only" true
            (Driver.Shardstore.degraded store);
          Alcotest.(check int) "error counted once" 1
            (Gp.Telemetry.Counter.value
               (Gp.Telemetry.counter "evaluator.cache_write_errors"));
          (* the degraded store drops later appends silently *)
          let row_later =
            (Driver.Evaluator.evaluate_batch e [| genome |] ~cases:[ 2 ]).(0)
          in
          Alcotest.(check (array (float 0.0))) "later batch still served"
            [| 3.0 |] row_later;
          Alcotest.(check int) "no line after the failed write" 1 (lines ());
          Alcotest.(check int) "still only one write error" 1
            (Gp.Telemetry.Counter.value
               (Gp.Telemetry.counter "evaluator.cache_write_errors"));
          ignore (records ());
          (* memoization still works in the degraded engine *)
          let row2 =
            (Driver.Evaluator.evaluate_batch e [| genome |]
               ~cases:[ 0; 1; 2 ]).(0)
          in
          Alcotest.(check (array (float 0.0))) "memo intact"
            [| 1.0; 2.0; 3.0 |] row2))

let test_cache_survives_torn_append () =
  with_cache_dir "torn" @@ fun dir ->
  let p =
    match C.plan_of_string "evaluator.cache_write:1=torn" with
    | Ok p -> p
    | Error e -> Alcotest.failf "spec: %s" e
  in
  C.arm p;
  let row =
    Fun.protect ~finally:C.disarm (fun () ->
        let e = mk_cache_evaluator (Driver.Shardstore.open_store dir) in
        (Driver.Evaluator.evaluate_batch e [| genome |] ~cases:[ 0; 1; 2 ]).(0))
  in
  Alcotest.(check (array (float 0.0))) "faulted run correct"
    [| 1.0; 2.0; 3.0 |] row;
  (* a fresh engine over the damaged cache skips the torn line, serves
     what survived, and recomputes the rest *)
  let recomputed = ref 0 in
  let e2 =
    mk_cache_evaluator
      ~eval:(fun _ case ->
        incr recomputed;
        float_of_int (case + 1))
      (Driver.Shardstore.open_store dir)
  in
  let row2 =
    (Driver.Evaluator.evaluate_batch e2 [| genome |] ~cases:[ 0; 1; 2 ]).(0)
  in
  Alcotest.(check (array (float 0.0))) "reload bit-identical" row row2;
  Alcotest.(check bool)
    (Printf.sprintf "torn line recomputed (%d)" !recomputed)
    true
    (!recomputed >= 1 && !recomputed <= 3)

(* --- satellite: checkpoint integrity -------------------------------------- *)

let check_same_result name (a : Gp.Evolve.result) (b : Gp.Evolve.result) =
  Alcotest.(check string)
    (name ^ ": best genome")
    (Gp.Sexp.to_string Test_gp.fs a.Gp.Evolve.best)
    (Gp.Sexp.to_string Test_gp.fs b.Gp.Evolve.best);
  Alcotest.(check int64)
    (name ^ ": best fitness bits")
    (bits a.Gp.Evolve.best_fitness)
    (bits b.Gp.Evolve.best_fitness);
  Array.iter2
    (fun (ca, va) (cb, vb) ->
      Alcotest.(check string) (name ^ ": case") ca cb;
      Alcotest.(check int64) (name ^ ": case bits") (bits va) (bits vb))
    a.Gp.Evolve.per_case b.Gp.Evolve.per_case

let newest_checkpoints dir n =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
  |> List.sort (fun a b -> compare b a)
  |> List.filteri (fun i _ -> i < n)
  |> List.map (Filename.concat dir)

let test_damaged_checkpoints_resume () =
  with_dir "ckpt-damage" @@ fun dir ->
  let params = Gp.Params.tiny in
  let straight = Gp.Evolve.run ~params (Test_gp.synthetic_problem ()) in
  let first =
    Gp.Evolve.run ~params ~checkpoint_dir:dir (Test_gp.synthetic_problem ())
  in
  check_same_result "checkpointed = straight" straight first;
  (* damage the two newest checkpoints two different ways: truncate one
     (a crash mid-write) and bit-flip the other (rot under the digest) *)
  (match newest_checkpoints dir 2 with
  | [ newest; second ] ->
    let sz = (Unix.stat newest).Unix.st_size in
    let fd = Unix.openfile newest [ Unix.O_WRONLY ] 0o644 in
    Unix.ftruncate fd (sz / 2);
    Unix.close fd;
    let fd = Unix.openfile second [ Unix.O_WRONLY ] 0o644 in
    ignore (Unix.lseek fd 2 Unix.SEEK_SET);
    ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
    Unix.close fd
  | l -> Alcotest.failf "expected >= 2 checkpoints, found %d" (List.length l));
  let sink, _ = Gp.Telemetry.memory_sink () in
  Gp.Telemetry.set_sink (Some sink);
  Fun.protect
    ~finally:(fun () -> Gp.Telemetry.set_sink None)
    (fun () ->
      let resumed =
        Gp.Evolve.run ~params ~checkpoint_dir:dir
          (Test_gp.synthetic_problem ())
      in
      check_same_result "resumed over damage = straight" straight resumed;
      Alcotest.(check int) "both damaged files counted" 2
        (Gp.Telemetry.Counter.value
           (Gp.Telemetry.counter "evolve.checkpoints_skipped")))

let suite =
  [
    Alcotest.test_case "plan language round-trips" `Quick test_plan_round_trip;
    Alcotest.test_case "seeded plans deterministic and recoverable" `Quick
      test_seeded_plans_deterministic;
    Alcotest.test_case "fire: first match wins, counted" `Quick
      test_fire_matching;
    Alcotest.test_case "seq pool leaves limits inert" `Quick
      test_seq_pool_limits_inert;
    Alcotest.test_case "chaos run bit-identical to clean run" `Slow
      test_chaos_vs_clean;
    Alcotest.test_case "cache degrades to memo-only on ENOSPC" `Quick
      test_cache_degrades_on_enospc;
    Alcotest.test_case "cache survives a torn append" `Quick
      test_cache_survives_torn_append;
    Alcotest.test_case "damaged checkpoints skipped, resume identical" `Quick
      test_damaged_checkpoints_resume;
  ]
