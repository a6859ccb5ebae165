(* Fault-injection tests for the supervised pool and the evaluator's
   infrastructure-vs-candidate failure split.  Workers really fork, hang,
   die and get SIGKILLed here; deadlines are kept short so the suite
   stays fast.  All injections are deterministic: a plan decides per
   (task, attempt), and attempts are counted through the filesystem (see
   Gp.Chaos.Ledger). *)

module FI = struct
  include Gp.Chaos
  include Gp.Chaos.Ledger
end

let jobs =
  match Sys.getenv_opt "METAOPT_TEST_JOBS" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 2)
  | None -> 2

let outcome_label = function
  | Gp.Parmap.Ok _ -> "Ok"
  | Gp.Parmap.Crashed _ -> "Crashed"
  | Gp.Parmap.Timed_out -> "Timed_out"
  | Gp.Parmap.Gave_up -> "Gave_up"

let check_outcome name want got =
  Alcotest.(check string) name want (outcome_label got)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let with_dir tag f =
  let dir = FI.fresh_dir tag in
  Fun.protect ~finally:(fun () -> FI.cleanup dir) (fun () -> f dir)

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

(* --- The supervised pool -------------------------------------------------- *)

let fork_pool ?(jobs = jobs) ?timeout_s ?retries () =
  Gp.Parmap.pool ~backend:`Fork ~jobs ?timeout_s ?retries ()

let test_all_ok () =
  let outcomes, stats =
    Gp.Parmap.run_supervised
      (fork_pool ~timeout_s:10.0 ())
      (fun x -> x * x)
      (Array.init 20 Fun.id)
  in
  Array.iteri
    (fun i o ->
      match o with
      | Gp.Parmap.Ok v -> Alcotest.(check int) "value in order" (i * i) v
      | o -> Alcotest.failf "task %d: %s" i (outcome_label o))
    outcomes;
  Alcotest.(check int) "all completed" 20 stats.Gp.Parmap.completed;
  Alcotest.(check int) "no crashes" 0 stats.Gp.Parmap.crashes;
  Alcotest.(check int) "no timeouts" 0 stats.Gp.Parmap.timeouts;
  Alcotest.(check int) "no retries" 0 stats.Gp.Parmap.retries

(* A task that hangs on its first attempt only: the parent kills it at
   the deadline and the retry succeeds, so the caller still sees [Ok].
   With [nap], task 4 also naps for 50ms, leaving a worker idle beside
   the hung one while the hang runs: the hung attempt must still be
   charged as the one timeout, not answered by any other copy. *)
let hang_retry_recovers ?nap () =
  with_dir "hang-retry" (fun dir ->
      let plan t n =
        match (t, n, nap) with
        | 3, 1, _ -> Some FI.Hang
        | 4, _, Some s -> Some (FI.Slow s)
        | _ -> None
      in
      let f = FI.wrap ~dir ~plan (fun x -> x + 100) in
      let outcomes, stats =
        Gp.Parmap.run_supervised
          (fork_pool ~timeout_s:0.3 ~retries:2 ())
          f (Array.init 6 Fun.id)
      in
      Array.iteri
        (fun i o ->
          match o with
          | Gp.Parmap.Ok v -> Alcotest.(check int) "value" (i + 100) v
          | o -> Alcotest.failf "task %d: %s" i (outcome_label o))
        outcomes;
      Alcotest.(check int) "one timed-out attempt" 1 stats.Gp.Parmap.timeouts;
      Alcotest.(check int) "one retry" 1 stats.Gp.Parmap.retries;
      Alcotest.(check int) "task 3 took two attempts" 2 (FI.attempts dir 3);
      Alcotest.(check int) "task 0 took one attempt" 1 (FI.attempts dir 0))

let test_hang_exhausts_retries () =
  with_dir "hang-always" (fun dir ->
      let f = FI.wrap ~dir ~plan:(fun _ _ -> Some FI.Hang) (fun x -> x) in
      let outcomes, stats =
        Gp.Parmap.run_supervised
          (fork_pool ~jobs:1 ~timeout_s:0.2 ~retries:1 ())
          f [| 0 |]
      in
      check_outcome "abandoned" "Gave_up" outcomes.(0);
      Alcotest.(check int) "both attempts timed out" 2 stats.Gp.Parmap.timeouts;
      Alcotest.(check int) "both attempts were made" 2 (FI.attempts dir 0))

(* With [retries = 0] the single attempt's failure mode is reported
   as-is, not collapsed into [Gave_up]. *)
let test_no_retry_times_out () =
  with_dir "no-retry-hang" (fun dir ->
      let f = FI.wrap ~dir ~plan:(fun _ _ -> Some FI.Hang) (fun x -> x) in
      let outcomes, stats =
        Gp.Parmap.run_supervised
          (fork_pool ~jobs:1 ~timeout_s:0.2 ~retries:0 ())
          f [| 0 |]
      in
      check_outcome "single attempt" "Timed_out" outcomes.(0);
      Alcotest.(check int) "exactly one attempt" 1 (FI.attempts dir 0);
      Alcotest.(check int) "nothing retried" 0 stats.Gp.Parmap.retries)

let test_no_retry_crashes () =
  with_dir "no-retry-crash" (fun dir ->
      let plan t _ =
        match t with
        | 0 -> Some (FI.Kill Sys.sigkill)
        | 1 -> Some (FI.Exit 3)
        | 2 -> Some (FI.Raise "boom")
        | _ -> None
      in
      let f = FI.wrap ~dir ~plan (fun x -> x * 10) in
      let outcomes, stats =
        Gp.Parmap.run_supervised
          (fork_pool ~timeout_s:10.0 ~retries:0 ())
          f (Array.init 4 Fun.id)
      in
      (match outcomes.(0) with
      | Gp.Parmap.Crashed msg ->
        Alcotest.(check bool) "kill-by-signal described" true
          (contains msg "signal")
      | o -> Alcotest.failf "killed task: %s" (outcome_label o));
      (match outcomes.(1) with
      | Gp.Parmap.Crashed msg ->
        Alcotest.(check bool) "silent exit described" true
          (contains msg "exited")
      | o -> Alcotest.failf "exiting task: %s" (outcome_label o));
      (match outcomes.(2) with
      | Gp.Parmap.Crashed msg ->
        Alcotest.(check bool) "exception message survives" true
          (contains msg "boom")
      | o -> Alcotest.failf "raising task: %s" (outcome_label o));
      (match outcomes.(3) with
      | Gp.Parmap.Ok v -> Alcotest.(check int) "healthy neighbour" 30 v
      | o -> Alcotest.failf "healthy task: %s" (outcome_label o));
      Alcotest.(check int) "three crashed attempts" 3 stats.Gp.Parmap.crashes)

(* A flaky task that dies on its first two attempts and then succeeds:
   with [retries = 2] the caller sees only the recovery. *)
let test_fail_first_n_then_ok () =
  with_dir "flaky" (fun dir ->
      let plan _ n = if n <= 2 then Some (FI.Kill Sys.sigkill) else None in
      let f = FI.wrap ~dir ~plan (fun x -> x + 7) in
      let outcomes, stats =
        Gp.Parmap.run_supervised
          (fork_pool ~jobs:1 ~timeout_s:10.0 ~retries:2 ())
          f [| 5 |]
      in
      (match outcomes.(0) with
      | Gp.Parmap.Ok v -> Alcotest.(check int) "recovered value" 12 v
      | o -> Alcotest.failf "flaky task: %s" (outcome_label o));
      Alcotest.(check int) "two crashed attempts" 2 stats.Gp.Parmap.crashes;
      Alcotest.(check int) "two retries" 2 stats.Gp.Parmap.retries;
      Alcotest.(check int) "three attempts in total" 3 (FI.attempts dir 5))

(* --- The evaluator's fault split ------------------------------------------ *)

(* One genome over four cases: a genuine speedup, a genuinely-bad 0, a
   hang that exhausts its retries, and another genuine result.  The two
   kinds of zero must part ways: the candidate's 0 is a real, persisted
   evaluation; the infrastructure's 0 is a counted fault that never
   reaches the disk cache. *)
let test_evaluator_fault_split () =
  let fault_dir = FI.fresh_dir "eval-faults" in
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "metaopt-faultcache-%d" (Unix.getpid ()))
  in
  let store_lines () = read_lines (Filename.concat cache_dir "fitness.tsv") in
  Fun.protect
    ~finally:(fun () ->
      FI.cleanup fault_dir;
      if Sys.file_exists cache_dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat cache_dir f))
          (Sys.readdir cache_dir);
        Unix.rmdir cache_dir
      end)
    (fun () ->
      let g = Hyperblock.Baseline.genome in
      let plan c _ = if c = 2 then Some FI.Hang else None in
      let eval _ case =
        FI.wrap ~dir:fault_dir ~plan
          (fun c -> match c with 0 -> 2.0 | 1 -> 0.0 | 3 -> 5.0 | _ -> 1.0)
          case
      in
      let e =
        Driver.Evaluator.create
          ~pool:(fork_pool ~jobs:1 ~timeout_s:0.25 ~retries:1 ())
          ~store:(Driver.Shardstore.open_store cache_dir)
          ~fs:Hyperblock.Features.feature_set ~scope:"faults/scope"
          ~case_name:(fun i -> "case" ^ string_of_int i)
          ~eval ()
      in
      let row =
        (Driver.Evaluator.evaluate_batch e [| g |] ~cases:[ 0; 1; 2; 3 ]).(0)
      in
      Alcotest.(check (array (float 0.0)))
        "faulted case scores 0 like a bad candidate"
        [| 2.0; 0.0; 0.0; 5.0 |] row;
      Alcotest.(check int) "only real results are evaluations" 3
        (Driver.Evaluator.evaluations e);
      let f = Driver.Evaluator.faults e in
      Alcotest.(check int) "gave up once" 1 f.Driver.Evaluator.gave_up;
      Alcotest.(check int) "retried once" 1 f.Driver.Evaluator.retried;
      Alcotest.(check int) "no crash faults" 0 f.Driver.Evaluator.crashed;
      Alcotest.(check int) "hung case took two attempts" 2
        (FI.attempts fault_dir 2);
      (* The fault is memoized for this run: a second batch re-attempts
         nothing and counts nothing new. *)
      let row2 =
        (Driver.Evaluator.evaluate_batch e [| g |] ~cases:[ 0; 1; 2; 3 ]).(0)
      in
      Alcotest.(check (array (float 0.0))) "memoized row"
        [| 2.0; 0.0; 0.0; 5.0 |] row2;
      Alcotest.(check int) "no new attempts" 2 (FI.attempts fault_dir 2);
      Alcotest.(check int) "fault counters unchanged" 1
        (Driver.Evaluator.faults e).Driver.Evaluator.gave_up;
      (* Disk: exactly the three real results, including the genuine 0. *)
      let lines = store_lines () in
      Alcotest.(check int) "three persisted results" 3 (List.length lines);
      Alcotest.(check int) "the genuine zero is persisted" 1
        (List.length
           (List.filter (String.ends_with ~suffix:" 0x0p+0") lines));
      (* A fresh engine over the same cache recomputes only the faulted
         case — proof the Gave_up never poisoned the persistent cache. *)
      let recomputed = ref 0 in
      let e2 =
        Driver.Evaluator.create
          ~store:(Driver.Shardstore.open_store cache_dir)
          ~fs:Hyperblock.Features.feature_set ~scope:"faults/scope"
          ~case_name:(fun i -> "case" ^ string_of_int i)
          ~eval:(fun _ _ ->
            incr recomputed;
            9.0)
          ()
      in
      let row3 =
        (Driver.Evaluator.evaluate_batch e2 [| g |] ~cases:[ 0; 1; 2; 3 ]).(0)
      in
      Alcotest.(check (array (float 0.0))) "disk hits plus one recompute"
        [| 2.0; 0.0; 9.0; 5.0 |] row3;
      Alcotest.(check int) "only the faulted case recomputed" 1 !recomputed)

let suite =
  if not Gp.Parmap.available then []
  else
    [
      Alcotest.test_case "supervised: all ok" `Quick test_all_ok;
      Alcotest.test_case "hang, retry, recover" `Quick hang_retry_recovers;
      Alcotest.test_case "hang beside a napping task: timeout charged" `Quick
        (hang_retry_recovers ~nap:0.05);
      Alcotest.test_case "hang exhausts retries -> Gave_up" `Quick
        test_hang_exhausts_retries;
      Alcotest.test_case "no retries: hang -> Timed_out" `Quick
        test_no_retry_times_out;
      Alcotest.test_case "no retries: death -> Crashed" `Quick
        test_no_retry_crashes;
      Alcotest.test_case "fail first N, then ok" `Quick
        test_fail_first_n_then_ok;
      Alcotest.test_case "evaluator fault split" `Quick
        test_evaluator_fault_split;
    ]
