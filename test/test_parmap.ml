(* Tests for the task pool (the fork backend behind the pool API) and the
   parallel fitness engine: result ordering, the j=1 fallback, failure
   isolation (both raising tasks and hard worker crashes), pool
   validation and capabilities, the persistent cache, and bit-identical
   determinism of a parallel evolution run against a sequential one. *)

let squares n = Array.init n (fun i -> i * i)

let fork_pool ?(retries = 1) jobs = Gp.Parmap.pool ~backend:`Fork ~jobs ~retries ()

(* Outcomes as plain values, [fallback] standing for any failure. *)
let values ~fallback outcomes =
  Array.map (function Gp.Parmap.Ok v -> v | _ -> fallback) outcomes

let run_values ~fallback pool f xs =
  values ~fallback (fst (Gp.Parmap.run_supervised pool f xs))

let test_ordering () =
  let xs = Array.init 100 Fun.id in
  Alcotest.(check (array int)) "ordered results at j=3" (squares 100)
    (run_values ~fallback:(-1) (fork_pool 3) (fun x -> x * x) xs);
  Alcotest.(check (array int)) "ordered results at j=7" (squares 100)
    (run_values ~fallback:(-1) (fork_pool 7) (fun x -> x * x) xs)

(* The [`Seq] pool is the in-process reference: results in order, and
   the task's side effects land in the caller's own heap. *)
let test_sequential_fallback () =
  let xs = Array.init 10 Fun.id in
  let calls = ref 0 in
  let f x =
    incr calls;
    x + 1
  in
  let outcomes, stats =
    Gp.Parmap.run_supervised (Gp.Parmap.pool ~backend:`Seq ()) f xs
  in
  Alcotest.(check (array int)) "seq maps in order"
    (Array.init 10 (fun i -> i + 1))
    (values ~fallback:(-1) outcomes);
  Alcotest.(check int) "every task completed" 10 stats.Gp.Parmap.completed;
  Alcotest.(check int) "tasks ran in this process" 10 !calls

let test_empty_and_oversubscribed () =
  let outcomes, stats =
    Gp.Parmap.run_supervised (fork_pool 4) (fun x -> x) [||]
  in
  Alcotest.(check int) "empty input" 0 (Array.length outcomes);
  Alcotest.(check int) "nothing completed" 0 stats.Gp.Parmap.completed;
  Alcotest.(check (array int)) "more jobs than tasks" [| 2; 4 |]
    (run_values ~fallback:(-1) (fork_pool 8) (fun x -> x * 2) [| 1; 2 |])

(* A raising task is its own outcome, in-process and in a worker alike;
   its neighbours are unaffected. *)
let test_exception_isolation () =
  let f x = if x mod 3 = 0 then failwith "boom" else x in
  let xs = Array.init 12 Fun.id in
  let check name pool =
    let outcomes, stats = Gp.Parmap.run_supervised pool f xs in
    Array.iteri
      (fun x o ->
        match o with
        | Gp.Parmap.Crashed _ when x mod 3 = 0 -> ()
        | Gp.Parmap.Ok v when x mod 3 <> 0 ->
          Alcotest.(check int) (Printf.sprintf "%s: task %d" name x) x v
        | _ -> Alcotest.failf "%s: task %d misreported" name x)
      outcomes;
    Alcotest.(check int) (name ^ ": four crashes") 4 stats.Gp.Parmap.crashes
  in
  check "seq" (Gp.Parmap.pool ~backend:`Seq ());
  check "fork j=4" (fork_pool ~retries:0 4)

(* A worker that dies outright (SIGKILL mid-task) costs only the task it
   was running: that task is [Crashed] (retries off), and every other
   task comes back — the paper's "crashed compile gets fitness 0" rule
   at the process level. *)
let test_worker_crash () =
  let f x =
    if x = 5 then Unix.kill (Unix.getpid ()) Sys.sigkill;
    x + 1
  in
  let outcomes, stats =
    Gp.Parmap.run_supervised (fork_pool ~retries:0 2) f (Array.init 10 Fun.id)
  in
  Alcotest.(check (array int)) "crash loses only the task it was running"
    [| 1; 2; 3; 4; 5; 0; 7; 8; 9; 10 |]
    (values ~fallback:0 outcomes);
  Alcotest.(check bool) "killed task reported as a crash" true
    (match outcomes.(5) with Gp.Parmap.Crashed _ -> true | _ -> false);
  Alcotest.(check int) "one crash" 1 stats.Gp.Parmap.crashes

(* The EINTR bugfix: a signal delivered while the parent blocks in
   select/read/waitpid used to bubble up as Unix_error (EINTR, ...) and
   could misreport a healthy worker as lost.  Drive the pool under a
   SIGALRM storm (an interval timer firing every 2ms into a no-op
   handler — the timer is not inherited across fork, so only the parent
   is stormed), with and without a deadline (a bounded and an unbounded
   wait in the scheduler), and require every result to come back clean. *)
let test_eintr_storm () =
  if Gp.Parmap.available then begin
    (* retry_eintr itself: restarts on EINTR, returns the first value. *)
    let attempts = ref 0 in
    let flaky () =
      incr attempts;
      if !attempts < 3 then raise (Unix.Unix_error (Unix.EINTR, "test", ""))
      else !attempts
    in
    Alcotest.(check int) "retry_eintr restarts" 3 (Gp.Parmap.retry_eintr flaky);
    let old_handler =
      Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ()))
    in
    let storm = { Unix.it_interval = 0.002; it_value = 0.002 } in
    ignore (Unix.setitimer Unix.ITIMER_REAL storm);
    Fun.protect
      ~finally:(fun () ->
        ignore
          (Unix.setitimer Unix.ITIMER_REAL
             { Unix.it_interval = 0.0; it_value = 0.0 });
        Sys.set_signal Sys.sigalrm old_handler)
      (fun () ->
        let xs = Array.init 12 Fun.id in
        let slow x =
          ignore (Unix.select [] [] [] 0.01);
          x * x
        in
        List.iter
          (fun timeout_s ->
            let outcomes, stats =
              Gp.Parmap.run_supervised
                (Gp.Parmap.pool ~backend:`Fork ~jobs:3 ?timeout_s ())
                slow xs
            in
            Array.iteri
              (fun i o ->
                match o with
                | Gp.Parmap.Ok v ->
                  Alcotest.(check int) (Printf.sprintf "task %d value" i) (i * i) v
                | Gp.Parmap.Crashed m ->
                  Alcotest.failf "task %d misreported as crashed: %s" i m
                | Gp.Parmap.Timed_out ->
                  Alcotest.failf "task %d misreported as timeout" i
                | Gp.Parmap.Gave_up -> Alcotest.failf "task %d gave up" i)
              outcomes;
            Alcotest.(check int) "no spurious crashes" 0 stats.Gp.Parmap.crashes;
            Alcotest.(check int) "no spurious timeouts" 0
              stats.Gp.Parmap.timeouts)
          [ None; Some 10.0 ])
  end

(* --- The backend/pool API ------------------------------------------------- *)

let test_pool_validation () =
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s was accepted" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "jobs = 0" (fun () -> Gp.Parmap.pool ~jobs:0 ());
  expect_invalid "jobs = -3" (fun () -> Gp.Parmap.pool ~jobs:(-3) ());
  expect_invalid "timeout_s = 0" (fun () -> Gp.Parmap.pool ~timeout_s:0.0 ());
  expect_invalid "timeout_s < 0" (fun () ->
      Gp.Parmap.pool ~timeout_s:(-1.0) ());
  expect_invalid "retries < 0" (fun () -> Gp.Parmap.pool ~retries:(-1) ());
  let p = Gp.Parmap.pool ~backend:`Seq ~jobs:3 ~retries:2 () in
  Alcotest.(check int) "valid pool keeps jobs" 3 p.Gp.Parmap.jobs;
  Alcotest.(check int) "valid pool keeps retries" 2 p.Gp.Parmap.retries

(* A worker count no machine can use is a typo: the constructor rejects
   it before anything forks.  Only pool records are built here — no
   handle, no batch — so no test ever starts workers at these widths. *)
let test_jobs_ceiling () =
  Alcotest.(check int) "the ceiling" 256 Gp.Parmap.max_jobs;
  (match Gp.Parmap.pool ~jobs:257 () with
  | _ -> Alcotest.fail "jobs = 257 was accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "jobs = 256 accepted" 256
    (Gp.Parmap.pool ~jobs:256 ()).Gp.Parmap.jobs

let test_capabilities () =
  Alcotest.(check (list string))
    "seq, and fork where the platform forks"
    (if Gp.Parmap.available then [ "seq"; "fork" ] else [ "seq" ])
    (List.map Gp.Parmap.backend_name (Gp.Parmap.capabilities ()));
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Gp.Parmap.backend_name b ^ " name round-trips")
        true
        (Gp.Parmap.backend_of_name (Gp.Parmap.backend_name b) = Some b))
    [ `Seq; `Fork ];
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "unknown backend name %S rejected" name)
        true
        (Gp.Parmap.backend_of_name name = None))
    [ "threads"; "domains" ]

(* --- The driver-level engine --------------------------------------------- *)

let tiny_params =
  { Gp.Params.tiny with Gp.Params.population_size = 8; generations = 3 }

(* The determinism satellite: a parallel run must be bit-identical to a
   sequential run with the same seed — same best fitness, same per-case
   speedups, same history. *)
let test_parallel_run_is_deterministic () =
  let run jobs =
    let ctx =
      Driver.Study.create_with
        { Driver.Study.default_config with Driver.Study.jobs }
        Driver.Study.Hyperblock_study [ "codrle4"; "decodrle4" ]
    in
    Gp.Evolve.run ~params:tiny_params (Driver.Study.problem_of ctx)
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check (float 0.0)) "best_fitness identical"
    seq.Gp.Evolve.best_fitness par.Gp.Evolve.best_fitness;
  Alcotest.(check (array (pair string (float 0.0)))) "per_case identical"
    seq.Gp.Evolve.per_case par.Gp.Evolve.per_case;
  Alcotest.(check int) "same evaluation count" seq.Gp.Evolve.evaluations
    par.Gp.Evolve.evaluations;
  List.iter2
    (fun (a : Gp.Evolve.generation_stats) (b : Gp.Evolve.generation_stats) ->
      Alcotest.(check (float 0.0)) "history best" a.Gp.Evolve.best_fitness
        b.Gp.Evolve.best_fitness;
      Alcotest.(check (float 0.0)) "history mean" a.Gp.Evolve.mean_fitness
        b.Gp.Evolve.mean_fitness;
      Alcotest.(check string) "history expr" a.Gp.Evolve.best_expr
        b.Gp.Evolve.best_expr)
    seq.Gp.Evolve.history par.Gp.Evolve.history

(* The noisy prefetch study draws its noise from the canonical genome, so
   it is order- and worker-independent too. *)
let test_parallel_noisy_study_deterministic () =
  let measure jobs =
    let ctx =
      Driver.Study.create_with
        { Driver.Study.default_config with Driver.Study.jobs }
        Driver.Study.Prefetch_study [ "015.doduc" ]
    in
    Driver.Evaluator.evaluate ctx.Driver.Study.eval_train
      Prefetch.Features.baseline_genome 0
  in
  Alcotest.(check (float 0.0)) "noise independent of jobs" (measure 1)
    (measure 3)

(* The persistent cache is a {!Driver.Shardstore}: entries land in
   [dir]/fitness.tsv.  These helpers clean up and read the store. *)
let rm_cache_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let store_files dir =
  List.filter Sys.file_exists [ Filename.concat dir "fitness.tsv" ]

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let store_lines dir = List.concat_map read_lines (store_files dir)

let test_disk_cache_roundtrip () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "metaopt-cache-%d" (Unix.getpid ()))
  in
  let count = ref 0 in
  let mk () =
    Driver.Evaluator.create ~store:(Driver.Shardstore.open_store dir)
      ~fs:Hyperblock.Features.feature_set ~scope:"test/scope"
      ~case_name:(fun i -> "case" ^ string_of_int i)
      ~eval:(fun _ c ->
        incr count;
        2.0 +. float_of_int c)
      ()
  in
  Fun.protect
    ~finally:(fun () -> rm_cache_dir dir)
    (fun () ->
      let g = Hyperblock.Baseline.genome in
      let e1 = mk () in
      let m =
        Driver.Evaluator.evaluate_batch e1 [| g |] ~cases:[ 0; 1 ]
      in
      Alcotest.(check (float 0.0)) "computed" 2.0 m.(0).(0);
      Alcotest.(check int) "two compiles" 2 !count;
      Alcotest.(check int) "evaluations counted" 2
        (Driver.Evaluator.evaluations e1);
      (* A fresh engine over the same cache dir answers from disk. *)
      let e2 = mk () in
      let m2 = Driver.Evaluator.evaluate_batch e2 [| g |] ~cases:[ 0; 1 ] in
      Alcotest.(check (float 0.0)) "disk hit value" 3.0 m2.(0).(1);
      Alcotest.(check int) "no new compiles" 2 !count;
      Alcotest.(check int) "disk hits are not evaluations" 0
        (Driver.Evaluator.evaluations e2);
      Alcotest.(check int) "entries persisted in the store's file" 2
        (List.length (store_lines dir));
      (* A different scope misses. *)
      let e3 =
        Driver.Evaluator.create ~store:(Driver.Shardstore.open_store dir)
          ~fs:Hyperblock.Features.feature_set ~scope:"other/scope"
          ~case_name:(fun i -> "case" ^ string_of_int i)
          ~eval:(fun _ c ->
            incr count;
            9.0 +. float_of_int c)
          ()
      in
      let m3 = Driver.Evaluator.evaluate_batch e3 [| g |] ~cases:[ 0 ] in
      Alcotest.(check (float 0.0)) "scoped apart" 9.0 m3.(0).(0);
      Alcotest.(check int) "recompiled under new scope" 3 !count)

(* The cache-reader bugfix: a torn or garbage line in the persistent cache
   — a half-written final line from a killed run, an editor accident, a
   file written before the lockf discipline — must not take the run down.
   The loader skips every malformed flavour with a warning and still
   answers the intact entries from disk. *)
let test_corrupted_cache_lines () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "metaopt-corrupt-cache-%d" (Unix.getpid ()))
  in
  let count = ref 0 in
  let mk () =
    Driver.Evaluator.create ~store:(Driver.Shardstore.open_store dir)
      ~fs:Hyperblock.Features.feature_set ~scope:"corrupt/scope"
      ~case_name:(fun i -> "case" ^ string_of_int i)
      ~eval:(fun _ c ->
        incr count;
        4.0 +. float_of_int c)
      ()
  in
  Fun.protect
    ~finally:(fun () -> rm_cache_dir dir)
    (fun () ->
      let g = Hyperblock.Baseline.genome in
      let e1 = mk () in
      ignore (Driver.Evaluator.evaluate_batch e1 [| g |] ~cases:[ 0; 1 ]);
      Alcotest.(check int) "two computed" 2 !count;
      (* Corrupt the store's file with every malformed flavour the
         reader must survive: free text, a short digest, non-hex, a
         non-finite value, an unparsable value, binary junk, an empty
         line, and a truncated final line with no newline. *)
      let damage file =
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
        output_string oc "this is not a cache line\n";
        output_string oc "0123456789abcdef 1.5\n";
        output_string oc "XYZJKLMNOPQRSTUVWXYZ0123456789ab 2.0\n";
        output_string oc "00112233445566778899aabbccddeeff nan\n";
        output_string oc "00112233445566778899aabbccddeeff not-a-float\n";
        output_string oc "\x00\x01\x7f binary junk\n";
        output_string oc "\n";
        output_string oc "00112233445566778899aabbccddeef";
        close_out oc
      in
      let damaged = store_files dir in
      Alcotest.(check bool) "entries were persisted" true (damaged <> []);
      List.iter damage damaged;
      (* A fresh engine over the damaged store loads without raising and
         still serves the two intact entries from disk. *)
      let e2 = mk () in
      let m = Driver.Evaluator.evaluate_batch e2 [| g |] ~cases:[ 0; 1 ] in
      Alcotest.(check (float 0.0)) "case 0 from disk" 4.0 m.(0).(0);
      Alcotest.(check (float 0.0)) "case 1 from disk" 5.0 m.(0).(1);
      Alcotest.(check int) "nothing recomputed" 2 !count;
      Alcotest.(check int) "no evaluations on the fresh engine" 0
        (Driver.Evaluator.evaluations e2);
      let cs = Driver.Evaluator.cache_stats e2 in
      Alcotest.(check int) "both were disk hits" 2 cs.Driver.Evaluator.disk_hits;
      Alcotest.(check int) "no misses" 0 cs.Driver.Evaluator.misses;
      (* Loading compacted the damaged file in place: only whole,
         parseable lines remain, and the intact entries survived. *)
      List.iter
        (fun file ->
          List.iter
            (fun line ->
              match String.index_opt line ' ' with
              | Some 32
                when float_of_string_opt
                       (String.sub line 33 (String.length line - 33))
                     <> None ->
                ()
              | _ -> Alcotest.failf "uncompacted line %S in %s" line file)
            (read_lines file))
        damaged;
      Alcotest.(check int) "the compacted file holds the intact entries" 2
        (List.length (store_lines dir)))

(* Two concurrent runs appending to one shared --cache-dir: the advisory
   [lockf] plus single-write appends must keep every line whole.  Each
   forked child writes 50 single-entry batches under its own scope; the
   parent then checks the file line by line and round-trips both scopes
   through fresh engines without recomputing anything. *)
let test_concurrent_cache_writers () =
  if Gp.Parmap.available then begin
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "metaopt-shared-cache-%d" (Unix.getpid ()))
    in
    Fun.protect
      ~finally:(fun () -> rm_cache_dir dir)
      (fun () ->
        let g = Hyperblock.Baseline.genome in
        let engine scope eval =
          Driver.Evaluator.create ~store:(Driver.Shardstore.open_store dir)
            ~fs:Hyperblock.Features.feature_set ~scope
            ~case_name:(fun i -> "case" ^ string_of_int i)
            ~eval ()
        in
        flush stdout;
        flush stderr;
        let writer scope base =
          match Unix.fork () with
          | 0 ->
            (try
               let e = engine scope (fun _ c -> base +. float_of_int c) in
               for c = 0 to 49 do
                 ignore (Driver.Evaluator.evaluate_batch e [| g |] ~cases:[ c ])
               done;
               Unix._exit 0
             with _ -> Unix._exit 1)
          | pid -> pid
        in
        let p1 = writer "w1/scope" 100.0 in
        let p2 = writer "w2/scope" 200.0 in
        let clean pid =
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> true
          | _ -> false
        in
        Alcotest.(check bool) "writer 1 exited cleanly" true (clean p1);
        Alcotest.(check bool) "writer 2 exited cleanly" true (clean p2);
        (* Every line the two writers appended to the one file survived
           whole: 32-hex digest, one space, a float. *)
        let lines = store_lines dir in
        Alcotest.(check int) "one line per evaluation" 100 (List.length lines);
        List.iter
          (fun line ->
            match String.index_opt line ' ' with
            | Some 32 -> (
              match
                float_of_string_opt
                  (String.sub line 33 (String.length line - 33))
              with
              | Some _ -> ()
              | None -> Alcotest.failf "torn value in %S" line)
            | _ -> Alcotest.failf "torn line %S" line)
          lines;
        (* Fresh engines answer both scopes purely from disk. *)
        let check_scope scope base =
          let e = engine scope (fun _ _ -> 999.0) in
          let row =
            (Driver.Evaluator.evaluate_batch e [| g |]
               ~cases:(List.init 50 Fun.id)).(0)
          in
          Array.iteri
            (fun c v ->
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s case %d from disk" scope c)
                (base +. float_of_int c) v)
            row;
          Alcotest.(check int) "nothing recomputed" 0
            (Driver.Evaluator.evaluations e)
        in
        check_scope "w1/scope" 100.0;
        check_scope "w2/scope" 200.0)
  end

(* --- Persistent warm pools ------------------------------------------------ *)

(* A handle keeps its forked workers alive between batches: worker-local
   state written during batch 1 is still there for batch 3.  With one
   slot the counter is deterministic — and the parent's copy of the ref
   must stay untouched, proving the work ran in the resident child. *)
let test_handle_keeps_workers_warm () =
  if Gp.Parmap.available then begin
    let pool = Gp.Parmap.pool ~backend:`Fork ~jobs:1 () in
    let warmth = ref 0 in
    let h =
      Gp.Parmap.create pool ~f:(fun x ->
          incr warmth;
          (x, !warmth))
    in
    Fun.protect
      ~finally:(fun () -> Gp.Parmap.shutdown h)
      (fun () ->
        let o1, s1 = Gp.Parmap.run_batch h [| 10; 20 |] in
        let o2, _ = Gp.Parmap.run_batch h [| 30 |] in
        let get = function Gp.Parmap.Ok v -> v | _ -> (-1, -1) in
        Alcotest.(check (list (pair int int)))
          "worker state persists across batches"
          [ (10, 1); (20, 2); (30, 3) ]
          (List.map get (Array.to_list o1 @ Array.to_list o2));
        Alcotest.(check int) "first batch complete" 2 s1.Gp.Parmap.completed;
        Alcotest.(check int) "parent state untouched" 0 !warmth)
  end

(* A worker death mid-batch respawns only that slot: the rest of the
   batch completes, and the same handle serves later batches cleanly. *)
let test_handle_survives_worker_death () =
  if Gp.Parmap.available then begin
    let pool = Gp.Parmap.pool ~backend:`Fork ~jobs:2 ~retries:0 () in
    let h =
      Gp.Parmap.create pool ~f:(fun x ->
          if x < 0 then Unix._exit 3;
          x * 2)
    in
    Fun.protect
      ~finally:(fun () -> Gp.Parmap.shutdown h)
      (fun () ->
        let o1, s1 = Gp.Parmap.run_batch h [| 1; -1; 2; 3 |] in
        Alcotest.(check int) "crash counted" 1 s1.Gp.Parmap.crashes;
        (match o1.(1) with
        | Gp.Parmap.Crashed _ -> ()
        | _ -> Alcotest.fail "dead worker not reported as a crash");
        List.iter
          (fun (i, want) ->
            match o1.(i) with
            | Gp.Parmap.Ok v -> Alcotest.(check int) "survivor" want v
            | _ -> Alcotest.failf "task %d lost to the crash" i)
          [ (0, 2); (2, 4); (3, 6) ];
        let o2, s2 = Gp.Parmap.run_batch h [| 5; 6; 7 |] in
        Alcotest.(check int) "second batch complete" 3 s2.Gp.Parmap.completed;
        Alcotest.(check int) "no stale crashes" 0 s2.Gp.Parmap.crashes;
        Array.iteri
          (fun i o ->
            match o with
            | Gp.Parmap.Ok v ->
              Alcotest.(check int) "second batch value" ((i + 5) * 2) v
            | _ -> Alcotest.failf "second batch lost task %d" i)
          o2)
  end

let test_handle_shutdown_semantics () =
  let pool = Gp.Parmap.pool ~backend:`Seq () in
  let h = Gp.Parmap.create pool ~f:(fun x -> x + 1) in
  let o, _ = Gp.Parmap.run_batch h [| 41 |] in
  (match o.(0) with
  | Gp.Parmap.Ok 42 -> ()
  | _ -> Alcotest.fail "seq handle miscomputed");
  let empty, _ = Gp.Parmap.run_batch h [||] in
  Alcotest.(check int) "empty batch on a live handle" 0 (Array.length empty);
  Gp.Parmap.shutdown h;
  Gp.Parmap.shutdown h;
  (* idempotent *)
  match Gp.Parmap.run_batch h [| 1 |] with
  | _ -> Alcotest.fail "run_batch after shutdown must raise"
  | exception Invalid_argument _ -> ()

(* --- Worker descriptors and shutdown ------------------------------------- *)

let with_telemetry f =
  let sink, records = Gp.Telemetry.memory_sink () in
  Gp.Telemetry.set_sink (Some sink);
  Fun.protect
    ~finally:(fun () -> Gp.Telemetry.set_sink None)
    (fun () -> f records)

let shutdown_kills () =
  Gp.Telemetry.Counter.value (Gp.Telemetry.counter "parmap.shutdown_kills")

(* Two warm pools side by side: B spawns after A, so without the worker
   descriptor invariant B's workers would hold A's task pipes open and
   A's workers would never see EOF — each would sit out the grace and be
   SIGKILLed.  Shutting A down must instead be prompt and kill nothing
   (every A worker left through its own EOF path), with B unaffected. *)
let test_shutdown_beside_live_pool () =
  if Gp.Parmap.available then
    with_telemetry @@ fun _ ->
    let pool = Gp.Parmap.pool ~backend:`Fork ~jobs:2 () in
    let a = Gp.Parmap.create pool ~f:(fun _ -> Unix.getpid ()) in
    let b = Gp.Parmap.create pool ~f:(fun x -> x * 2) in
    Fun.protect
      ~finally:(fun () ->
        Gp.Parmap.shutdown a;
        Gp.Parmap.shutdown b)
      (fun () ->
        let pids, _ = Gp.Parmap.run_batch a [| 0; 1 |] in
        ignore (Gp.Parmap.run_batch b [| 1; 2 |]);
        let t0 = Unix.gettimeofday () in
        Gp.Parmap.shutdown a;
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool)
          (Printf.sprintf "shutdown A is prompt (%.3fs)" dt)
          true (dt < 0.1);
        Alcotest.(check int) "no A worker needed a SIGKILL" 0 (shutdown_kills ());
        Alcotest.(check int) "shutdown timed once" 1
          (Gp.Telemetry.Histogram.count
             (Gp.Telemetry.histogram "parmap.shutdown_s"));
        Array.iter
          (function
            | Gp.Parmap.Ok pid ->
              Alcotest.(check bool)
                (Printf.sprintf "A worker %d reaped" pid)
                true
                (match Unix.kill pid 0 with
                | () -> false
                | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true)
            | _ -> Alcotest.fail "A task failed")
          pids;
        let o, _ = Gp.Parmap.run_batch b [| 3; 4 |] in
        Alcotest.(check bool) "B still serves" true
          (o = [| Gp.Parmap.Ok 6; Gp.Parmap.Ok 8 |]);
        Gp.Parmap.shutdown b;
        Alcotest.(check int) "no B worker needed a SIGKILL" 0
          (shutdown_kills ()))

(* The link targets of this process's descriptors above 2, reduced to
   their kind ("pipe", "socket", or a path).  Reading the directory
   opens one more descriptor, already closed by the time its entry is
   resolved, so entries that no longer resolve are dropped. *)
let extra_fd_kinds () =
  List.sort compare
    (List.filter_map
       (fun name ->
         match int_of_string_opt name with
         | Some n when n > 2 -> (
           match Unix.readlink (Filename.concat "/proc/self/fd" name) with
           | target -> (
             match String.index_opt target ':' with
             | Some i -> Some (String.sub target 0 i)
             | None -> Some target)
           | exception Unix.Unix_error _ -> None)
         | _ -> None)
       (Array.to_list (Sys.readdir "/proc/self/fd")))

(* Every forked worker holds fds 0-2 and its own pipe ends and nothing
   else: not a file or socket the parent has open, not another live
   pool's pipes. *)
let test_worker_fds () =
  if Gp.Parmap.available && Sys.file_exists "/proc/self/fd" then begin
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let pool = Gp.Parmap.pool ~backend:`Fork ~jobs:2 () in
    let other = Gp.Parmap.create pool ~f:Fun.id in
    let h = Gp.Parmap.create pool ~f:(fun _ -> extra_fd_kinds ()) in
    Fun.protect
      ~finally:(fun () ->
        Gp.Parmap.shutdown h;
        Gp.Parmap.shutdown other;
        Unix.close devnull;
        Unix.close sock)
      (fun () ->
        ignore (Gp.Parmap.run_batch other [| 1; 2 |]);
        let outcomes, _ = Gp.Parmap.run_batch h [| 1; 2 |] in
        Array.iter
          (function
            | Gp.Parmap.Ok kinds ->
              Alcotest.(check (list string))
                "pool worker holds its two pipes only" [ "pipe"; "pipe" ] kinds
            | _ -> Alcotest.fail "fd listing task failed")
          outcomes)
  end

(* A fork-pool study evaluates on both datasets, so its two engines each
   spawn a pool, the novel one after the train one (the baselines' own
   one-batch pools are already shut down by then); closing the study
   must still take milliseconds, not a grace per worker. *)
let test_study_close_is_prompt () =
  if Gp.Parmap.available then
    with_telemetry @@ fun _ ->
    let cfg =
      { Driver.Study.default_config with Driver.Study.backend = `Fork; jobs = 2 }
    in
    let ctx =
      Driver.Study.create_with cfg Driver.Study.Hyperblock_study
        [ "codrle4"; "decodrle4" ]
    in
    Fun.protect
      ~finally:(fun () -> Driver.Study.close ctx)
      (fun () ->
        let spawns () =
          Gp.Telemetry.Histogram.count
            (Gp.Telemetry.histogram "parmap.pool_spawn_s")
        in
        let spawned_before = spawns () in
        let g = Gp.Expr.Real (Gp.Expr.Rarg 0) in
        ignore
          (Driver.Evaluator.evaluate_batch ctx.Driver.Study.eval_train [| g |]
             ~cases:[ 0; 1 ]);
        ignore
          (Driver.Evaluator.evaluate_batch ctx.Driver.Study.eval_novel [| g |]
             ~cases:[ 0; 1 ]);
        Alcotest.(check int) "both engines spawned a pool" 2
          (spawns () - spawned_before);
        let t0 = Unix.gettimeofday () in
        Driver.Study.close ctx;
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool)
          (Printf.sprintf "Study.close is prompt (%.3fs)" dt)
          true (dt < 0.2);
        Alcotest.(check int) "no worker needed a SIGKILL" 0 (shutdown_kills ()))

(* --- Stragglers ------------------------------------------------------------ *)

(* A straggler napping mid-batch must not stall it: while one worker
   sits on the nap, the others drain the rest of the queue, every task
   completes exactly once, and the wall clock stays bounded. *)
let test_straggler_slow () =
  if Gp.Parmap.available then begin
    let n = 24 in
    let plan =
      {
        Gp.Chaos.rules =
          [
            {
              Gp.Chaos.r_site = Gp.Chaos.site_parmap_task;
              r_key = Some 3;
              r_attempt = Some 1;
              r_fault = Gp.Chaos.Slow 0.3;
            };
          ];
      }
    in
    let pool = Gp.Parmap.pool ~backend:`Fork ~jobs:2 ~retries:0 () in
    let h = Gp.Parmap.create pool ~f:(fun x -> x * x) in
    Fun.protect
      ~finally:(fun () ->
        Gp.Chaos.disarm ();
        Gp.Parmap.shutdown h)
      (fun () ->
        Gp.Chaos.arm plan;
        let t0 = Unix.gettimeofday () in
        let outcomes, stats = Gp.Parmap.run_batch h (Array.init n Fun.id) in
        let wall = Unix.gettimeofday () -. t0 in
        Alcotest.(check int) "every task completed exactly once" n
          stats.Gp.Parmap.completed;
        Array.iteri
          (fun i o ->
            match o with
            | Gp.Parmap.Ok v ->
              Alcotest.(check int) (Printf.sprintf "task %d" i) (i * i) v
            | _ -> Alcotest.failf "task %d lost to the straggler" i)
          outcomes;
        Alcotest.(check bool)
          (Printf.sprintf "bounded wall clock (%.2fs)" wall)
          true (wall < 10.0))
  end

(* A worker hanging on its task is killed at the deadline: only the hung
   task times out, the other worker drains the rest of the queue, and
   the batch ends in bounded time with no task lost or duplicated. *)
let test_straggler_hang () =
  if Gp.Parmap.available then begin
    let n = 12 in
    let plan =
      {
        Gp.Chaos.rules =
          [
            {
              Gp.Chaos.r_site = Gp.Chaos.site_parmap_task;
              r_key = Some 5;
              r_attempt = None;
              r_fault = Gp.Chaos.Hang;
            };
          ];
      }
    in
    let pool =
      Gp.Parmap.pool ~backend:`Fork ~jobs:2 ~timeout_s:0.4 ~retries:0 ()
    in
    let h = Gp.Parmap.create pool ~f:(fun x -> x + 100) in
    Fun.protect
      ~finally:(fun () ->
        Gp.Chaos.disarm ();
        Gp.Parmap.shutdown h)
      (fun () ->
        Gp.Chaos.arm plan;
        let t0 = Unix.gettimeofday () in
        let outcomes, stats = Gp.Parmap.run_batch h (Array.init n Fun.id) in
        let wall = Unix.gettimeofday () -. t0 in
        Array.iteri
          (fun i o ->
            match (i, o) with
            | 5, Gp.Parmap.Timed_out -> ()
            | 5, _ -> Alcotest.fail "hung task not reported as a timeout"
            | _, Gp.Parmap.Ok v ->
              Alcotest.(check int) (Printf.sprintf "task %d" i) (i + 100) v
            | _, _ -> Alcotest.failf "task %d lost to the hang" i)
          outcomes;
        Alcotest.(check int) "exactly one timeout" 1 stats.Gp.Parmap.timeouts;
        Alcotest.(check bool)
          (Printf.sprintf "bounded wall clock (%.2fs)" wall)
          true (wall < 10.0))
  end

let suite =
  [
    Alcotest.test_case "ordered results" `Quick test_ordering;
    Alcotest.test_case "sequential fallback" `Quick test_sequential_fallback;
    Alcotest.test_case "empty / oversubscribed" `Quick
      test_empty_and_oversubscribed;
    Alcotest.test_case "exception isolation" `Quick test_exception_isolation;
    Alcotest.test_case "worker crash -> fallback" `Quick test_worker_crash;
    Alcotest.test_case "EINTR storm" `Quick test_eintr_storm;
    Alcotest.test_case "pool validation" `Quick test_pool_validation;
    Alcotest.test_case "worker-count ceiling" `Quick test_jobs_ceiling;
    Alcotest.test_case "capabilities" `Quick test_capabilities;
    Alcotest.test_case "parallel run deterministic" `Slow
      test_parallel_run_is_deterministic;
    Alcotest.test_case "noisy study deterministic" `Quick
      test_parallel_noisy_study_deterministic;
    Alcotest.test_case "disk cache round-trip" `Quick test_disk_cache_roundtrip;
    Alcotest.test_case "corrupted cache lines skipped" `Quick
      test_corrupted_cache_lines;
    Alcotest.test_case "concurrent cache writers" `Quick
      test_concurrent_cache_writers;
    Alcotest.test_case "warm pool: state persists" `Quick
      test_handle_keeps_workers_warm;
    Alcotest.test_case "warm pool: survives worker death" `Quick
      test_handle_survives_worker_death;
    Alcotest.test_case "warm pool: shutdown semantics" `Quick
      test_handle_shutdown_semantics;
    Alcotest.test_case "warm pool: shutdown beside a live pool" `Quick
      test_shutdown_beside_live_pool;
    Alcotest.test_case "workers hold only their own pipes" `Quick
      test_worker_fds;
    Alcotest.test_case "fork study closes promptly" `Quick
      test_study_close_is_prompt;
    Alcotest.test_case "straggler: slow worker" `Quick test_straggler_slow;
    Alcotest.test_case "straggler: hung worker" `Quick test_straggler_hang;
  ]
