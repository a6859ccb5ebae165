(* Deterministic fault injection, promoted from the test harness into a
   first-class subsystem.

   A [plan] is a seed-stamped list of rules; each rule names an
   instrumented site, optionally a key (task index, append number,
   generation) and a 1-based attempt, and the fault to inject there.
   Sites in the supervised pool, the evaluator's disk cache and the
   checkpoint writer ask [fire] on every pass; with no plan armed the
   query is one atomic load.  Everything is deterministic: the same
   plan against the same run injects the same faults at the same
   points, so a failing chaos run is replayable from its seed.

   Faults split into two families:

   - task faults (Hang / Slow / Raise / Exit / Kill) fire inside a
     supervised forked worker.  [Slow] naps; a nap that outlives the
     deadline is killed with its worker and retried — the recoverable
     analogue of a hang.  [Hang] never returns: only the kill ends it.
     [Exit]/[Kill] take the worker process down.
   - write faults (Torn_write / Truncated) fire at a writer and corrupt
     the artifact instead of the control flow: a torn cache append, a
     truncated checkpoint.  Both are recoverable by design — readers
     skip or recompute — which is what the chaos_vs_clean oracle
     checks. *)

type fault =
  | Hang  (* never return: must be killed *)
  | Slow of float  (* nap this long *)
  | Raise of string  (* the task raises *)
  | Exit of int  (* forked worker exits without replying *)
  | Kill of int  (* forked worker kills itself with this signal *)
  | Torn_write  (* write site: emit a torn, partial record *)
  | Truncated  (* write site: truncate the finished artifact *)

let fault_to_string = function
  | Hang -> "hang"
  | Slow s -> Printf.sprintf "slow:%g" s
  | Raise m -> Printf.sprintf "raise:%s" m
  | Exit c -> Printf.sprintf "exit:%d" c
  | Kill s -> Printf.sprintf "kill:%d" s
  | Torn_write -> "torn"
  | Truncated -> "truncate"

let fault_of_string s =
  let prefixed p =
    if String.length s > String.length p && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  match s with
  | "hang" -> Some Hang
  | "torn" -> Some Torn_write
  | "truncate" -> Some Truncated
  | _ -> (
    match prefixed "slow:" with
    | Some v -> Option.map (fun f -> Slow f) (float_of_string_opt v)
    | None -> (
      match prefixed "raise:" with
      | Some m -> Some (Raise m)
      | None -> (
        match prefixed "exit:" with
        | Some c -> Option.map (fun c -> Exit c) (int_of_string_opt c)
        | None -> (
          match prefixed "kill:" with
          | Some g -> Option.map (fun g -> Kill g) (int_of_string_opt g)
          | None -> None))))

(* --- Sites --------------------------------------------------------------- *)

let site_parmap_task = "parmap.task"
let site_cache_write = "evaluator.cache_write"
let site_cache_lock = "evaluator.cache_lock"
let site_checkpoint_write = "evolve.checkpoint_write"

let sites =
  [ site_parmap_task; site_cache_write; site_cache_lock; site_checkpoint_write ]

(* --- Plans --------------------------------------------------------------- *)

type rule = {
  r_site : string;
  r_key : int option;  (* None matches any key *)
  r_attempt : int option;  (* 1-based; None matches any attempt *)
  r_fault : fault;
}

type plan = { seed : int; rules : rule list }

let rule_to_string r =
  Printf.sprintf "%s%s%s=%s" r.r_site
    (match r.r_key with Some k -> Printf.sprintf ":%d" k | None -> "")
    (match r.r_attempt with Some a -> Printf.sprintf "@%d" a | None -> "")
    (fault_to_string r.r_fault)

let plan_to_string p =
  String.concat "," (List.map rule_to_string p.rules)

(* One rule: SITE[:KEY][@ATTEMPT]=FAULT.  A plan: rules joined by ','. *)
let rule_of_string s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "chaos rule %S: missing '=FAULT'" s)
  | Some eq -> (
    let lhs = String.sub s 0 eq in
    let rhs = String.sub s (eq + 1) (String.length s - eq - 1) in
    match fault_of_string rhs with
    | None -> Error (Printf.sprintf "chaos rule %S: unknown fault %S" s rhs)
    | Some fault -> (
      let lhs, attempt =
        match String.index_opt lhs '@' with
        | None -> (lhs, Ok None)
        | Some at ->
          ( String.sub lhs 0 at,
            match
              int_of_string_opt
                (String.sub lhs (at + 1) (String.length lhs - at - 1))
            with
            | Some a when a >= 1 -> Ok (Some a)
            | _ -> Error (Printf.sprintf "chaos rule %S: bad attempt" s) )
      in
      let site, key =
        match String.index_opt lhs ':' with
        | None -> (lhs, Ok None)
        | Some c ->
          ( String.sub lhs 0 c,
            match
              int_of_string_opt
                (String.sub lhs (c + 1) (String.length lhs - c - 1))
            with
            | Some k -> Ok (Some k)
            | None -> Error (Printf.sprintf "chaos rule %S: bad key" s) )
      in
      match (attempt, key) with
      | Error e, _ | _, Error e -> Error e
      | Ok r_attempt, Ok r_key ->
        if not (List.mem site sites) then
          Error
            (Printf.sprintf "chaos rule %S: unknown site %S (known: %s)" s
               site (String.concat ", " sites))
        else Ok { r_site = site; r_key; r_attempt; r_fault = fault }))

let plan_of_string ?(seed = 0) s =
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ',' s)
  in
  if parts = [] then Error "chaos plan: no rules"
  else
    let rec go acc = function
      | [] -> Ok { seed; rules = List.rev acc }
      | p :: rest -> (
        match rule_of_string (String.trim p) with
        | Ok r -> go (r :: acc) rest
        | Error _ as e -> e)
    in
    go [] parts

(* A seed-driven plan of recoverable faults only: first-attempt task
   faults that a single retry absorbs, one over-deadline nap, a torn
   cache append and a truncated checkpoint.  Used by the seeded suite of
   [metaopt chaos] and the chaos_vs_clean oracle, whose contract is that
   a run injected with this plan is bit-identical to the fault-free
   run. *)
let seeded ~seed =
  (* splitmix-style mixing so nearby seeds give unrelated picks *)
  let mix s salt =
    let z = (s + salt) * 0x9E3779B1 land max_int in
    let z = z lxor (z lsr 15) * 0x85EBCA77 land max_int in
    z lxor (z lsr 13)
  in
  {
    seed;
    rules =
      [
        (* one task naps past any reasonable deadline on its first
           attempt: killed at the deadline, retried clean *)
        {
          r_site = site_parmap_task;
          r_key = Some (mix seed 1 mod 4);
          r_attempt = Some 1;
          r_fault = Slow 30.0;
        };
        (* every other task fails its first attempt fast — a crash or a
           sub-deadline nap, seed's choice *)
        {
          r_site = site_parmap_task;
          r_key = None;
          r_attempt = Some 1;
          r_fault =
            (if mix seed 2 land 1 = 0 then Raise "chaos" else Slow 0.002);
        };
        {
          r_site = site_cache_write;
          r_key = Some (1 + (mix seed 3 mod 3));
          r_attempt = None;
          r_fault = Torn_write;
        };
        {
          r_site = site_checkpoint_write;
          r_key = Some (1 + (mix seed 4 mod 3));
          r_attempt = None;
          r_fault = Truncated;
        };
      ];
  }

(* --- Arming and firing --------------------------------------------------- *)

(* Arm before starting the run under test, disarm after: forked workers
   inherit the plan armed when they spawn.  [Atomic] keeps the
   publication race-free for any thread that reads it. *)
let armed_plan : plan option Atomic.t = Atomic.make None

let arm p = Atomic.set armed_plan (Some p)
let disarm () = Atomic.set armed_plan None
let armed () = Atomic.get armed_plan

(* Injection counters, per (site, key): how many times [fire] matched a
   rule there.  In-process only — forked children count in their own
   copy — so they are meaningful for the parent-side write sites;
   fork-based tests keep the filesystem ledger below.  Guarded by a
   mutex: fires are rare. *)
let counts : (string * int, int) Hashtbl.t = Hashtbl.create 16
let counts_mu = Mutex.create ()

let count_fire site key =
  Mutex.lock counts_mu;
  let k = (site, key) in
  Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k));
  Mutex.unlock counts_mu

let fired ~site ~key =
  Mutex.lock counts_mu;
  let n = Option.value ~default:0 (Hashtbl.find_opt counts (site, key)) in
  Mutex.unlock counts_mu;
  n

let reset_counts () =
  Mutex.lock counts_mu;
  Hashtbl.reset counts;
  Mutex.unlock counts_mu

let fire ~site ~key ~attempt =
  match Atomic.get armed_plan with
  | None -> None
  | Some p -> (
    let matches r =
      r.r_site = site
      && (match r.r_key with None -> true | Some k -> k = key)
      && match r.r_attempt with None -> true | Some a -> a = attempt
    in
    match List.find_opt matches p.rules with
    | None -> None
    | Some r ->
      count_fire site key;
      Some r.r_fault)

(* --- Acting on a fault --------------------------------------------------- *)

let trigger fault =
  match fault with
  | Hang ->
    (* only the supervisor's SIGKILL can end this *)
    while true do
      Unix.sleepf 3600.0
    done
  | Slow s ->
    let until = Unix.gettimeofday () +. s in
    let rec nap () =
      let left = until -. Unix.gettimeofday () in
      if left > 0.0 then begin
        (try Unix.sleepf left with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        nap ()
      end
    in
    nap ()
  | Raise msg -> failwith msg
  | Exit code -> Unix._exit code
  | Kill signal ->
    Unix.kill (Unix.getpid ()) signal;
    Unix.sleepf 60.0 (* a catchable signal may take a moment to land *)
  | Torn_write | Truncated ->
    (* write-site faults are interpreted by the writer, not here *)
    ()

(* The supervised pool's task site: fire-and-trigger around one
   attempt in a forked worker. *)
let task_point ~key ~attempt =
  match fire ~site:site_parmap_task ~key ~attempt with
  | Some fault -> trigger fault
  | None -> ()

(* --- Filesystem attempt ledger ------------------------------------------- *)

(* Promoted verbatim from the old test harness: forked workers' memory
   is invisible to the parent, so attempts are counted through the
   filesystem — every attempt appends one byte to a per-task file and
   the file's size is the attempt count, visible from any process and
   still there after the run. *)
module Ledger = struct
  let fresh_dir tag =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "metaopt-chaos-%s-%d" tag (Unix.getpid ()))
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    dir

  let cleanup dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir
    end

  let attempt_file dir task =
    Filename.concat dir (Printf.sprintf "task-%d" task)

  (* Record one attempt of [task]; returns this attempt's 1-based
     number.  Only one attempt of a given task is ever in flight, so the
     append needs no locking. *)
  let record_attempt dir task =
    let fd =
      Unix.openfile (attempt_file dir task)
        [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
        0o644
    in
    ignore (Unix.write fd (Bytes.make 1 '.') 0 1);
    let n = (Unix.fstat fd).Unix.st_size in
    Unix.close fd;
    n

  let attempts dir task =
    try (Unix.stat (attempt_file dir task)).Unix.st_size
    with Unix.Unix_error _ -> 0

  (* [wrap ~dir ~plan f] records an attempt for every integer task,
     injects [plan task attempt] when it yields a fault (the attempt
     number is 1-based, so "fail the first two times" is
     [fun _ n -> if n <= 2 then Some fault else None]), and otherwise
     computes [f task]. *)
  let wrap ~dir ~plan f task =
    let n = record_attempt dir task in
    (match plan task n with Some fault -> trigger fault | None -> ());
    f task
end
