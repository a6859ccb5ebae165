(* A minimal task pool behind a first-class backend API.

   Three backends share one [pool] configuration record:

   - [`Seq]: in-process, sequential — the bit-identity reference.
   - [`Fork]: the original process pool.  [run] is the streaming pool:
     tasks are dealt round-robin, worker [w] owns indices w, w+jobs, ...
     Each worker writes [(index, result)] pairs to its pipe as they
     complete, flushing after every task, so a worker that dies mid-chunk
     loses only the tasks it had not yet flushed — the parent fills those
     with [fallback].  The parent drains the workers one at a time; pipes
     buffer in the kernel, so slower workers simply block on write until
     their turn, and no deadlock is possible with single-reader pipes.
     Supervised evaluation ([create]/[run_batch]/[shutdown], with
     [run_supervised] as the one-shot composition) adds the fault model
     long evolution runs need: pre-forked workers kept alive on pipes
     across batches, a wall-clock deadline enforced from the parent (a
     worker stuck in a tight loop or a blocking C call cannot be trusted
     to deliver its own SIGALRM), exponential-backoff retries on a
     respawned slot, and a typed outcome per task instead of a silent
     fallback.
   - [`Domains]: an OCaml 5 shared-memory work pool — [Domain.spawn]ed
     workers pulling task indices from one [Atomic] counter, no fork and
     no [Marshal] round-trip per task.  Each result is written to a
     distinct slot of the output array, so workers never race.  A domain
     cannot be killed, so [run_supervised] enforces deadlines
     cooperatively: the supervisor installs a [Cancel] token around each
     attempt, the evaluation stack polls it at safepoints and the
     resulting [Cancelled] becomes a [Timed_out], with the same retry /
     backoff schedule as the fork supervisor.  A task that ignores its
     token past a grace period gets its worker {e quarantined}: the
     domain is marked poisoned and abandoned (it exits on its own if the
     task ever returns) and a fresh domain takes over its slot, so one
     runaway cannot absorb the pool.

   The two parallel backends are mutually exclusive per process, in one
   direction: the OCaml 5 runtime permanently forbids [Unix.fork] once
   any domain has ever been spawned (even after [Domain.join]).  The
   first domains-pool run therefore retires [`Fork] for the rest of the
   process — [capabilities] reflects that, and later [`Fork] requests
   degrade to the sequential / in-process paths with a warning, exactly
   as on a platform without [fork].  Fork first, domains after, or pick
   one backend per process. *)

type backend = [ `Seq | `Fork | `Domains ]

let available = Sys.unix

(* Sticky: set before the first Domain.spawn, never cleared (terminated
   domains keep fork forbidden for the life of the process). *)
let domains_used = ref false

let fork_usable () = available && not !domains_used

let warned_fork_after_domains = ref false

let warn_fork_after_domains () =
  if not !warned_fork_after_domains then begin
    warned_fork_after_domains := true;
    Logs.warn (fun m ->
        m "parmap: the fork backend is retired once domains have run in \
           this process (the runtime forbids fork after Domain.spawn); \
           running in-process instead")
  end

let backend_name = function
  | `Seq -> "seq"
  | `Fork -> "fork"
  | `Domains -> "domains"

let backend_of_name = function
  | "seq" -> Some `Seq
  | "fork" -> Some `Fork
  | "domains" -> Some `Domains
  | _ -> None

(* Domains are part of the OCaml 5 runtime and exist on every platform;
   forking is Unix-only, and retired once a domains pool has run. *)
let capabilities () : backend list =
  if fork_usable () then [ `Seq; `Fork; `Domains ] else [ `Seq; `Domains ]

type pool = {
  backend : backend;
  jobs : int;
  timeout_s : float option;
  retries : int;
  backoff_s : float;
  chunk_target_ms : float;
  chunk_min : int;
  chunk_max : int;
  ignored_limits : string list;
}

let warned_ignored_limits = ref false

let pool ?(backend = `Fork) ?(jobs = 1) ?timeout_s ?(retries = 1)
    ?(backoff_s = 0.05) ?(chunk_target_ms = 2.0) ?(chunk_min = 1)
    ?(chunk_max = 64) () =
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf
         "Parmap.pool: jobs must be a positive worker count (got %d)" jobs);
  (match timeout_s with
  | Some t when (not (Float.is_finite t)) || t <= 0.0 ->
    invalid_arg "Parmap.pool: timeout_s must be a positive number of seconds"
  | _ -> ());
  if retries < 0 then invalid_arg "Parmap.pool: retries must be >= 0";
  if (not (Float.is_finite backoff_s)) || backoff_s < 0.0 then
    invalid_arg "Parmap.pool: backoff_s must be >= 0";
  if (not (Float.is_finite chunk_target_ms)) || chunk_target_ms <= 0.0 then
    invalid_arg "Parmap.pool: chunk_target_ms must be a positive number";
  if chunk_min < 1 then invalid_arg "Parmap.pool: chunk_min must be >= 1";
  if chunk_max < chunk_min then
    invalid_arg "Parmap.pool: chunk_max must be >= chunk_min";
  (* Supervision limits the chosen backend cannot honor.  Both parallel
     backends now enforce deadlines and retries; only [`Seq] runs
     unsupervised.  [retries = 1] is the constructor default, so only a
     value that must have been chosen deliberately is flagged. *)
  let ignored_limits =
    match backend with
    | `Seq ->
      (if timeout_s <> None then [ "timeout_s" ] else [])
      @ (if retries > 1 then [ "retries" ] else [])
    | `Fork | `Domains -> []
  in
  if ignored_limits <> [] && not !warned_ignored_limits then begin
    warned_ignored_limits := true;
    Logs.warn (fun m ->
        m
          "parmap: %s configured on the seq backend, which runs \
           unsupervised (no deadlines, no retries); the limits will be \
           ignored"
          (String.concat "/" ignored_limits))
  end;
  {
    backend;
    jobs;
    timeout_s;
    retries;
    backoff_s;
    chunk_target_ms;
    chunk_min;
    chunk_max;
    ignored_limits;
  }

(* Every blocking syscall goes through here: a signal delivered while the
   parent is reaping or draining (SIGCHLD, a profiler's SIGPROF, an
   interval timer) makes the call fail with EINTR, and treating that as a
   real failure misreports a healthy worker as lost.  Restart the call
   instead. *)
let rec retry_eintr f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* Run in every forked worker before it does any work: close every
   descriptor except fds 0-2 and [keep], the worker's own pipe ends.
   Anything else the child inherited stays open for the worker's whole
   life — another
   slot's or another pool's pipe ends, so a sibling never sees EOF on its
   task pipe at shutdown; a [metaopt serve] daemon's listening socket and
   client connections, so a client the daemon drops never sees its
   connection close.  [O_CLOEXEC] does not help: workers never exec.  The
   descriptors are listed from /proc/self/fd (/dev/fd where there is no
   /proc); [Unix.file_descr] is the raw descriptor number on Unix, the
   only platform that forks. *)
let close_inherited_fds keep =
  let fd_of_int : int -> Unix.file_descr = Obj.magic in
  let dir =
    if Sys.file_exists "/proc/self/fd" then "/proc/self/fd" else "/dev/fd"
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        match int_of_string_opt name with
        | Some n when n > 2 && not (List.mem (fd_of_int n) keep) -> (
          (* The listing's own handle is already closed: EBADF. *)
          try Unix.close (fd_of_int n) with Unix.Unix_error _ -> ())
        | _ -> ())
      names

let sequential ~fallback f xs =
  Array.map (fun x -> try f x with _ -> fallback) xs

let emit_map_record ~backend ~jobs ~tasks ~t_start =
  let wall = Telemetry.now_s () -. t_start in
  Telemetry.observe "parmap.map_wall_s" wall;
  Telemetry.emit ~kind:"pool"
    [
      ("mode", Telemetry.String "map");
      ("backend", Telemetry.String (backend_name backend));
      ("jobs", Telemetry.Int jobs);
      ("tasks", Telemetry.Int tasks);
      ("wall_s", Telemetry.Float wall);
    ]

let fork_map ~jobs ~fallback f xs =
  let n = Array.length xs in
  let jobs = min jobs (max 1 n) in
  if n = 0 || jobs <= 1 then sequential ~fallback f xs
  else begin
    (* Anything buffered in the parent must not be replayed by children
       (children exit through [Unix._exit], which skips flushing). *)
    flush stdout;
    flush stderr;
    let tel = Telemetry.enabled () in
    let t_start = if tel then Telemetry.now_s () else 0.0 in
    let results = Array.make n fallback in
    let spawn w =
      let rd, wr = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
        (* The child inherits the parent's sink descriptor; writing to it
           would interleave torn lines into the parent's stream. *)
        Telemetry.set_sink None;
        close_inherited_fds [ wr ];
        let oc = Unix.out_channel_of_descr wr in
        (try
           let i = ref w in
           while !i < n do
             let v = try f xs.(!i) with _ -> fallback in
             Marshal.to_channel oc (!i, v) [];
             flush oc;
             i := !i + jobs
           done;
           close_out oc
         with _ -> ());
        Unix._exit 0
      | pid ->
        Unix.close wr;
        (pid, rd)
    in
    let workers = Array.init jobs spawn in
    Array.iter
      (fun (pid, rd) ->
        let ic = Unix.in_channel_of_descr rd in
        (try
           while true do
             let (i, v) : int * _ = Marshal.from_channel ic in
             if i >= 0 && i < n then results.(i) <- v
           done
         with
        | End_of_file -> ()
        | Failure msg ->
          (* A truncated [Marshal] header or payload: the worker died
             mid-write.  Clean EOF ends at a message boundary; a torn
             stream means in-flight work was lost. *)
          Logs.warn (fun m ->
              m "parmap: torn result stream from worker %d (%s)" pid msg));
        (try close_in ic with _ -> ());
        (match retry_eintr (fun () -> Unix.waitpid [] pid) with
        | _, Unix.WEXITED 0 -> ()
        | _, status ->
          Logs.warn (fun m ->
              m "parmap: worker %d %s" pid (describe_status status))
        | exception Unix.Unix_error _ -> ()))
      workers;
    if tel then emit_map_record ~backend:`Fork ~jobs ~tasks:n ~t_start;
    results
  end

(* Run [body] as one of the pool's workers on the calling domain, with
   telemetry suppressed exactly as it is in the spawned workers (and in
   forked children), then restore. *)
let as_suppressed_worker body =
  Telemetry.suppress_in_domain true;
  Fun.protect
    ~finally:(fun () -> Telemetry.suppress_in_domain false)
    body

let domains_map ~jobs ~fallback f xs =
  let n = Array.length xs in
  let jobs = min jobs (max 1 n) in
  if n = 0 || jobs <= 1 then sequential ~fallback f xs
  else begin
    let tel = Telemetry.enabled () in
    let t_start = if tel then Telemetry.now_s () else 0.0 in
    let results = Array.make n fallback in
    let next = Atomic.make 0 in
    let body () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- (try f xs.(i) with _ -> fallback);
          loop ()
        end
      in
      loop ()
    in
    let worker () =
      Telemetry.suppress_in_domain true;
      body ()
    in
    domains_used := true;
    let spawned = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    as_suppressed_worker body;
    Array.iter Domain.join spawned;
    if tel then emit_map_record ~backend:`Domains ~jobs ~tasks:n ~t_start;
    results
  end

let run pool ~fallback f xs =
  match pool.backend with
  | `Seq -> sequential ~fallback f xs
  | `Fork ->
    if fork_usable () then fork_map ~jobs:pool.jobs ~fallback f xs
    else begin
      if available then warn_fork_after_domains ();
      sequential ~fallback f xs
    end
  | `Domains -> domains_map ~jobs:pool.jobs ~fallback f xs

let map ?(jobs = 1) ~fallback f xs =
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf
         "Parmap.map: jobs must be a positive worker count (got %d)" jobs);
  run (pool ~backend:`Fork ~jobs ()) ~fallback f xs

(* --- Supervised evaluation ---------------------------------------------- *)

type 'b outcome = Ok of 'b | Crashed of string | Timed_out | Gave_up

type stats = {
  completed : int;
  crashes : int;
  timeouts : int;
  retries : int;
  quarantined : int;
}

(* Worker -> parent message.  A worker that dies before writing a full
   message (signal, [exit], runaway allocation) is detected by the parent
   as a truncated buffer at EOF. *)
type 'b reply = Value of 'b | Raised of string

let insert_delayed ((t, _, _) as entry) l =
  let rec go = function
    | [] -> [ entry ]
    | ((t', _, _) as e) :: rest ->
      if t <= t' then entry :: e :: rest else e :: go rest
  in
  go l

(* --- Adaptive chunk sizing ----------------------------------------------- *)

(* The dispatcher amortizes one round-trip (a Marshal write on the fork
   pool, a mutex/condition handoff on the domains pool) over a chunk of
   tasks sized so a chunk is worth ~[chunk_target_ms] of work, using an
   EWMA of observed per-task cost.  The estimate is seeded from the
   process-wide [parmap.task_s] telemetry when available, refined on
   every completed task, and kept per pool so batches re-estimate as the
   workload drifts.  With no estimate at all the first batch runs at
   [chunk_min] — the default, 1, is exactly the pre-chunking protocol
   and the [`Seq]/-j1-compatible reference. *)

let seed_ewma () =
  if Telemetry.enabled () then begin
    let h = Telemetry.histogram "parmap.task_s" in
    if Telemetry.Histogram.count h > 0 then
      Telemetry.Histogram.percentile h 50.0
    else 0.0
  end
  else 0.0

let ewma_update cur sample =
  if (not (Float.is_finite sample)) || sample <= 0.0 then cur
  else if cur <= 0.0 then sample
  else (0.7 *. cur) +. (0.3 *. sample)

(* Chunk length for a batch of [tasks] over [jobs] workers: the adaptive
   estimate clamped to the pool's floor/ceiling, then capped so the
   batch still splits into at least [jobs] chunks — a floor above that
   cap would serialize the whole batch onto one worker. *)
let chunk_length ~target_s ~cmin ~cmax ~jobs ~ewma ~tasks =
  let base =
    if ewma > 0.0 then int_of_float (Float.round (target_s /. ewma)) else cmin
  in
  let c = max cmin (min base cmax) in
  let cap = max 1 ((tasks + jobs - 1) / jobs) in
  max 1 (min c cap)

(* Task ids [0, n) as consecutive chunks of at most [len]. *)
let partition_chunks n len =
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let l = min len (n - !i) in
    let base = !i in
    out := Array.init l (fun k -> base + k) :: !out;
    i := !i + l
  done;
  List.rev !out

(* No fork (or [`Seq] requested): in-process evaluation.  Exceptions
   still isolate per task, but hangs cannot be interrupted and retries
   are pointless against a deterministic in-process failure. *)
let inprocess_supervised f xs =
  let n = Array.length xs in
  let outcomes = Array.make n Gave_up in
  let completed = ref 0 in
  let crashes = ref 0 in
  Array.iteri
    (fun i x ->
      outcomes.(i) <-
        (match f x with
        | v ->
          incr completed;
          Ok v
        | exception e ->
          incr crashes;
          Crashed (Printexc.to_string e)))
    xs;
  ( outcomes,
    {
      completed = !completed;
      crashes = !crashes;
      timeouts = 0;
      retries = 0;
      quarantined = 0;
    } )

(* Shared-memory supervision.  A domain cannot be SIGKILLed, so the
   fault model is cooperative: the calling domain acts as the
   supervisor, worker domains pull chunks — [(task ids, attempt,
   enqueue time)] — from per-worker deques and run each member under
   its own [Cancel] token carrying the per-task deadline.  The
   evaluation stack polls the token at safepoints and raises
   [Cancelled] past the deadline, which the worker records as that
   member's timeout and moves on to the chunk's next member; retries
   and exponential backoff then follow exactly the fork supervisor's
   schedule, per task.

   A worker whose own deque runs dry steals the younger half of the
   fullest other deque (Chase–Lev in spirit; the deques share the pool
   mutex rather than a lock-free protocol because chunks change hands
   a few times per batch, not per task), so one slow worker cannot
   strand the chunks queued behind it.

   Tasks that never reach a safepoint (a blocking C call, a chaos
   [Hang]) get the quarantine path: the running chunk publishes a
   wall-clock quarantine time for its current member — deadline plus a
   grace period of half the timeout (min 50ms), so a hung task is cut
   off within 1.5x its deadline no matter how long its chunk is.  The
   supervisor sweeps for overdue members, wins the chunk's [settled]
   CAS so any late worker result is discarded, salvages the chunk —
   members with a recorded partial result keep it, the hung member is
   charged a timeout, members never started are re-enqueued uncharged
   as singleton chunks — marks the worker poisoned and spawns a fresh
   domain in its slot.  A poisoned domain is abandoned, never joined:
   it exits on its own if the hung task ever returns (its next dequeue
   sees the poison flag), and a domain parked in a blocking section
   does not obstruct the runtime.

   Results travel back through a settled-CAS-guarded record plus a
   mutex-protected done-queue; a self-pipe wakes the supervisor's
   [select], whose timeout is the nearest of the pending quarantine
   times and retry wake-ups. *)

type 'b attempt_result = Done of 'b | Failed of string | Deadline

(* One dispatched chunk.  [r_partial.(k)] is written before
   [r_progress] advances past member [k], so when the quarantine sweep
   wins the CAS it can trust every recorded partial: member values are
   deterministic, so a partial observed mid-race equals what a re-run
   would compute. *)
type 'b running = {
  r_tasks : int array;
  r_attempt : int; (* 0-based; one chunk is all one attempt *)
  r_enq : float; (* absolute enqueue time; 0 when telemetry is off *)
  r_dispatched : float; (* absolute take-time *)
  mutable r_done : float; (* absolute; 0 until settled by the worker *)
  r_qat : float Atomic.t; (* current member's quarantine time *)
  r_settled : bool Atomic.t; (* CAS-won by worker or quarantine sweep *)
  r_progress : int Atomic.t; (* index of the member being evaluated *)
  r_partial : 'b attempt_result option array; (* per-member results *)
}

type 'b wstate = {
  w_poisoned : bool Atomic.t;
  w_current : 'b running option Atomic.t;
}

let now () = Unix.gettimeofday ()

(* Persistent domains pool: the worker domains, the deques, the done
   queue and the notify pipe outlive any single batch.  Workers read
   the current batch's input array out of [d_xs] under the pool mutex,
   so the supervisor's assignment is visible before any of that batch's
   chunks can be taken. *)
type ('a, 'b) dom_state = {
  d_m : Mutex.t;
  d_c : Condition.t;
  d_deques : (int array * int * float) list ref array; (* per-slot chunks *)
  d_done : 'b running Queue.t;
  mutable d_stop : bool;
  mutable d_xs : 'a array;
  d_note_r : Unix.file_descr;
  d_note_w : Unix.file_descr;
  mutable d_live : ('b wstate * unit Domain.t) array;
  d_f : 'a -> 'b;
  d_jobs : int;
  d_timeout_s : float option;
  d_retries : int;
  d_backoff_s : float;
  d_grace : float;
  d_target_s : float; (* chunk budget, seconds *)
  d_cmin : int;
  d_cmax : int;
  d_steals : int Atomic.t;
  mutable d_ewma : float; (* per-task cost estimate, seconds *)
}

(* Take the next chunk: own deque first, then steal the younger half of
   the fullest other deque (the first stolen chunk is run, the rest
   land on the taker's deque), else wait. *)
let dom_take st idx =
  Mutex.lock st.d_m;
  let rec go () =
    if st.d_stop then None
    else begin
      let dq = st.d_deques.(idx) in
      match !dq with
      | c :: rest ->
        dq := rest;
        Some (c, st.d_xs)
      | [] ->
        let best = ref (-1) and blen = ref 0 in
        Array.iteri
          (fun j q ->
            if j <> idx then begin
              let l = List.length !q in
              if l > !blen then begin
                best := j;
                blen := l
              end
            end)
          st.d_deques;
        if !best >= 0 then begin
          let q = st.d_deques.(!best) in
          let keep = !blen - ((!blen + 1) / 2) in
          let rec split i acc rest =
            if i = keep then (List.rev acc, rest)
            else
              match rest with
              | x :: tl -> split (i + 1) (x :: acc) tl
              | [] -> (List.rev acc, [])
          in
          let kept, stolen = split 0 [] !q in
          q := kept;
          Atomic.incr st.d_steals;
          match stolen with
          | c :: mine ->
            st.d_deques.(idx) := mine;
            Some (c, st.d_xs)
          | [] -> go ()
        end
        else begin
          Condition.wait st.d_c st.d_m;
          go ()
        end
    end
  in
  let t = go () in
  Mutex.unlock st.d_m;
  t

let dom_worker st ws idx () =
  Telemetry.suppress_in_domain true;
  let rec loop () =
    if not (Atomic.get ws.w_poisoned) then
      match dom_take st idx with
      | None -> ()
      | Some ((tasks, attempt, enq), xs) ->
        let len = Array.length tasks in
        let r =
          {
            r_tasks = tasks;
            r_attempt = attempt;
            r_enq = enq;
            r_dispatched = now ();
            r_done = 0.0;
            r_qat = Atomic.make infinity;
            r_settled = Atomic.make false;
            r_progress = Atomic.make 0;
            r_partial = Array.make len None;
          }
        in
        Atomic.set ws.w_current (Some r);
        Array.iteri
          (fun k task ->
            Atomic.set r.r_progress k;
            (* One token per member: a chunk does not widen any single
               task's deadline, and one timed-out member does not
               abort the rest of its chunk. *)
            let tok = Cancel.create ?deadline_s:st.d_timeout_s () in
            Atomic.set r.r_qat (Cancel.deadline tok +. st.d_grace);
            r.r_partial.(k) <-
              Some
                (match
                   Cancel.with_token tok (fun () ->
                       Chaos.task_point ~isolated:false ~key:task
                         ~attempt:(attempt + 1);
                       st.d_f xs.(task))
                 with
                | v -> Done v
                | exception Cancel.Cancelled ->
                  (* Only a cancelled token makes [Cancelled] a
                     timeout; a task raising it spuriously is a
                     crash. *)
                  if Cancel.cancelled tok then Deadline
                  else Failed "task raised Cancelled"
                | exception e -> Failed (Printexc.to_string e)))
          tasks;
        Atomic.set r.r_progress len;
        Atomic.set ws.w_current None;
        r.r_done <- now ();
        if Atomic.compare_and_set r.r_settled false true then begin
          Mutex.lock st.d_m;
          Queue.add r st.d_done;
          Mutex.unlock st.d_m;
          let b = Bytes.make 1 '!' in
          ignore (retry_eintr (fun () -> Unix.write st.d_note_w b 0 1))
        end;
        (* A lost CAS means the sweep quarantined this chunk — the
           poison flag ends the loop above. *)
        loop ()
  in
  loop ()

let dom_spawn_worker st idx =
  let ws = { w_poisoned = Atomic.make false; w_current = Atomic.make None } in
  (ws, Domain.spawn (dom_worker st ws idx))

let init_domains (p : pool) f =
  let note_r, note_w = Unix.pipe () in
  let st =
    {
      d_m = Mutex.create ();
      d_c = Condition.create ();
      d_deques = Array.init p.jobs (fun _ -> ref []);
      d_done = Queue.create ();
      d_stop = false;
      d_xs = [||];
      d_note_r = note_r;
      d_note_w = note_w;
      d_live = [||];
      d_f = f;
      d_jobs = p.jobs;
      d_timeout_s = p.timeout_s;
      d_retries = p.retries;
      d_backoff_s = p.backoff_s;
      d_grace =
        (match p.timeout_s with
        | Some t -> Float.max 0.05 (0.5 *. t)
        | None -> infinity);
      d_target_s = p.chunk_target_ms /. 1000.0;
      d_cmin = p.chunk_min;
      d_cmax = p.chunk_max;
      d_steals = Atomic.make 0;
      d_ewma = seed_ewma ();
    }
  in
  domains_used := true;
  let tel = Telemetry.enabled () in
  let t0 = if tel then Telemetry.now_s () else 0.0 in
  st.d_live <- Array.init p.jobs (fun idx -> dom_spawn_worker st idx);
  if tel then Telemetry.observe "parmap.pool_spawn_s" (Telemetry.now_s () -. t0);
  st

let shutdown_domains st =
  Mutex.lock st.d_m;
  st.d_stop <- true;
  Condition.broadcast st.d_c;
  Mutex.unlock st.d_m;
  Array.iter
    (fun (ws, d) -> if not (Atomic.get ws.w_poisoned) then Domain.join d)
    st.d_live;
  st.d_live <- [||];
  (try Unix.close st.d_note_r with Unix.Unix_error _ -> ());
  (try Unix.close st.d_note_w with Unix.Unix_error _ -> ())

let domains_batch (st : ('a, 'b) dom_state) (xs : 'a array) =
  let n = Array.length xs in
  let outcomes = Array.make n Gave_up in
  let tel = Telemetry.enabled () in
  let t_start = if tel then Telemetry.now_s () else 0.0 in
  let completed = ref 0 in
  let crashes = ref 0 in
  let timeouts = ref 0 in
  let retried = ref 0 in
  let quarantined = ref 0 in
  let task_hist = Telemetry.Histogram.create () in
  let queue_hist = Telemetry.Histogram.create () in
  let busy = ref 0.0 in
  let timeout_s = st.d_timeout_s in
  let retries = st.d_retries in
  let backoff_s = st.d_backoff_s in
  let steals0 = Atomic.get st.d_steals in
  let dispatch_s = ref 0.0 in
  (* Size the batch's chunks from the running cost estimate and install
     them round-robin across the worker deques before the broadcast, so
     every worker finds local work first; imbalance from mis-estimation
     is what stealing corrects. *)
  if st.d_ewma <= 0.0 then st.d_ewma <- seed_ewma ();
  let clen =
    chunk_length ~target_s:st.d_target_s ~cmin:st.d_cmin ~cmax:st.d_cmax
      ~jobs:st.d_jobs ~ewma:st.d_ewma ~tasks:n
  in
  let chunks = partition_chunks n clen in
  let t_disp0 = now () in
  Mutex.lock st.d_m;
  st.d_xs <- xs;
  let enq0 = if tel then t_disp0 else 0.0 in
  List.iteri
    (fun i c ->
      if tel then
        Telemetry.observe "parmap.chunk_size" (float_of_int (Array.length c));
      let dq = st.d_deques.(i mod st.d_jobs) in
      dq := !dq @ [ (c, 0, enq0) ])
    chunks;
  Condition.broadcast st.d_c;
  Mutex.unlock st.d_m;
  dispatch_s := now () -. t_disp0;
  let delayed = ref [] in
  let remaining = ref n in
  (* Retries and salvage re-entries go to the shortest deque: they are
     late-batch work, and the emptiest worker reaches them soonest. *)
  let push_chunk tasks attempt enq =
    let t0 = now () in
    Mutex.lock st.d_m;
    let best = ref 0 and blen = ref max_int in
    Array.iteri
      (fun j q ->
        let l = List.length !q in
        if l < !blen then begin
          best := j;
          blen := l
        end)
      st.d_deques;
    let dq = st.d_deques.(!best) in
    dq := !dq @ [ (tasks, attempt, enq) ];
    Condition.broadcast st.d_c;
    Mutex.unlock st.d_m;
    dispatch_s := !dispatch_s +. (now () -. t0)
  in
  let handle_failure ~task ~attempt kind =
    (match kind with
    | `Crash msg ->
      incr crashes;
      Logs.warn (fun m ->
          m "parmap: task %d attempt %d crashed: %s" task (attempt + 1) msg)
    | `Timeout ->
      incr timeouts;
      Logs.warn (fun m ->
          m "parmap: task %d attempt %d timed out after %.1fs" task
            (attempt + 1)
            (Option.value ~default:0.0 timeout_s)));
    if attempt < retries then begin
      incr retried;
      let delay = backoff_s *. (2.0 ** float_of_int attempt) in
      delayed := insert_delayed (now () +. delay, task, attempt + 1) !delayed
    end
    else begin
      outcomes.(task) <-
        (if retries = 0 then
           match kind with `Crash msg -> Crashed msg | `Timeout -> Timed_out
         else Gave_up);
      decr remaining
    end
  in
  (* Settle a chunk whose CAS was won (by its worker or by the
     quarantine sweep).  Members with a recorded partial keep it —
     member values are deterministic, so a partial snapshotted mid-race
     equals what a re-run would compute.  Members never started are
     re-enqueued uncharged at the same attempt; only a forced quarantine
     charges the member it was stuck on. *)
  let salvage ?(forced_timeout = false) ?end_ (r : 'b running) =
    let len = Array.length r.r_tasks in
    let parts = Array.init len (fun k -> r.r_partial.(k)) in
    let progress = Atomic.get r.r_progress in
    let stop =
      match end_ with
      | Some t -> t
      | None -> if r.r_done > 0.0 then r.r_done else now ()
    in
    let dur = Float.max 0.0 (stop -. r.r_dispatched) in
    busy := !busy +. dur;
    let finished =
      Array.fold_left (fun a p -> if p <> None then a + 1 else a) 0 parts
    in
    let per = if finished > 0 then dur /. float_of_int finished else 0.0 in
    st.d_ewma <- ewma_update st.d_ewma per;
    if tel then begin
      if r.r_enq > 0.0 then begin
        let w = Float.max 0.0 (r.r_dispatched -. r.r_enq) in
        for _ = 1 to len do
          Telemetry.Histogram.add queue_hist w;
          Telemetry.observe "parmap.queue_wait_s" w
        done
      end;
      for _ = 1 to finished do
        Telemetry.Histogram.add task_hist per;
        Telemetry.observe "parmap.task_s" per
      done
    end;
    Array.iteri
      (fun k task ->
        match parts.(k) with
        | Some (Done v) ->
          outcomes.(task) <- Ok v;
          incr completed;
          decr remaining
        | Some (Failed msg) -> handle_failure ~task ~attempt:r.r_attempt (`Crash msg)
        | Some Deadline -> handle_failure ~task ~attempt:r.r_attempt `Timeout
        | None ->
          if forced_timeout && k = progress then
            handle_failure ~task ~attempt:r.r_attempt `Timeout
          else
            push_chunk [| task |] r.r_attempt (if tel then now () else 0.0))
      r.r_tasks
  in
  let drain_buf = Bytes.create 512 in
  while !remaining > 0 do
    let t = now () in
    (* Promote delayed retries whose backoff has elapsed. *)
    let rec promote () =
      match !delayed with
      | (nb, task, att) :: rest when nb <= t ->
        delayed := rest;
        push_chunk [| task |] att (if tel then t else 0.0);
        promote ()
      | _ -> ()
    in
    promote ();
    (* Sleep until the nearest quarantine time or retry wake-up, or
       until a worker pokes the pipe. *)
    let nearest_quarantine =
      Array.fold_left
        (fun acc (ws, _) ->
          match Atomic.get ws.w_current with
          | Some r when not (Atomic.get r.r_settled) ->
            Float.min acc (Atomic.get r.r_qat)
          | _ -> acc)
        infinity st.d_live
    in
    let nearest_retry =
      match !delayed with (nb, _, _) :: _ -> nb | [] -> infinity
    in
    let until = Float.min nearest_quarantine nearest_retry in
    let tmo =
      match timeout_s with
      | None -> if until = infinity then -1.0 else Float.max 0.0 (until -. now ())
      | Some _ ->
        (* A deadline is in force, and a worker may pick up a queued
           chunk and hang before the supervisor ever sees it — never
           sleep past a 50ms poll, or the quarantine sweep could miss
           it. *)
        Float.min 0.05 (Float.max 0.0 (until -. now ()))
    in
    (match Unix.select [ st.d_note_r ] [] [] tmo with
    | [], _, _ -> ()
    | _ ->
      ignore
        (retry_eintr (fun () ->
             Unix.read st.d_note_r drain_buf 0 (Bytes.length drain_buf)))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* Collect settled chunks. *)
    let finished = ref [] in
    Mutex.lock st.d_m;
    Queue.iter (fun r -> finished := r :: !finished) st.d_done;
    Queue.clear st.d_done;
    Mutex.unlock st.d_m;
    List.iter (fun r -> salvage r) (List.rev !finished);
    (* Quarantine sweep: any chunk whose current member is past its
       quarantine time and whose settled CAS we win is salvaged — the
       hung member charged, finished members kept, unstarted members
       re-enqueued — its worker poisoned and replaced.  The replacement
       joins the persistent pool and serves later batches too. *)
    let t = now () in
    Array.iteri
      (fun idx ((ws, _) as _w) ->
        match Atomic.get ws.w_current with
        | Some r
          when Atomic.get r.r_qat <= t
               && Atomic.compare_and_set r.r_settled false true ->
          incr quarantined;
          Atomic.set ws.w_poisoned true;
          let len = Array.length r.r_tasks in
          let progress = Atomic.get r.r_progress in
          let hung = if progress < len then r.r_tasks.(progress) else -1 in
          Logs.warn (fun m ->
              m
                "parmap: task %d attempt %d ignored its deadline past the \
                 grace period; quarantining its worker and respawning the \
                 slot"
                hung (r.r_attempt + 1));
          salvage ~forced_timeout:true ~end_:t r;
          st.d_live.(idx) <- dom_spawn_worker st idx
        | _ -> ())
      st.d_live
  done;
  let steals = Atomic.get st.d_steals - steals0 in
  if tel then begin
    let wall = Telemetry.now_s () -. t_start in
    Telemetry.incr ~by:!crashes "parmap.crashes";
    Telemetry.incr ~by:!timeouts "parmap.timeouts";
    Telemetry.incr ~by:!retried "parmap.retries";
    Telemetry.incr ~by:!quarantined "parmap.quarantined";
    Telemetry.incr ~by:steals "parmap.steals";
    Telemetry.observe "parmap.dispatch_s" !dispatch_s;
    let pct h p = Telemetry.Histogram.percentile h p in
    Telemetry.emit ~kind:"pool"
      [
        ("mode", Telemetry.String "supervised");
        ("backend", Telemetry.String "domains");
        ("jobs", Telemetry.Int st.d_jobs);
        ("tasks", Telemetry.Int n);
        ("completed", Telemetry.Int !completed);
        ("crashes", Telemetry.Int !crashes);
        ("timeouts", Telemetry.Int !timeouts);
        ("retries", Telemetry.Int !retried);
        ("quarantined", Telemetry.Int !quarantined);
        ("chunk_len", Telemetry.Int clen);
        ("steals", Telemetry.Int steals);
        ("dispatch_s", Telemetry.Float !dispatch_s);
        ("wall_s", Telemetry.Float wall);
        ("busy_s", Telemetry.Float !busy);
        ( "utilization",
          Telemetry.Float
            (if wall > 0.0 then
               !busy /. (wall *. float_of_int st.d_jobs)
             else 0.0) );
        ("task_p50_s", Telemetry.Float (pct task_hist 50.0));
        ("task_p95_s", Telemetry.Float (pct task_hist 95.0));
        ("task_max_s", Telemetry.Float (Telemetry.Histogram.max task_hist));
        ("queue_p50_s", Telemetry.Float (pct queue_hist 50.0));
        ("queue_p95_s", Telemetry.Float (pct queue_hist 95.0));
        ("queue_max_s", Telemetry.Float (Telemetry.Histogram.max queue_hist));
      ]
  end;
  ( outcomes,
    {
      completed = !completed;
      crashes = !crashes;
      timeouts = !timeouts;
      retries = !retried;
      quarantined = !quarantined;
    } )

(* --- Persistent fork pool ------------------------------------------------ *)

(* One pre-forked worker per slot, kept alive across batches on a pair
   of pipes: the parent marshals a length-prefixed [(task ids, attempt,
   inputs)] chunk down the task pipe, the child streams back one framed
   [(task, reply)] per member and blocks reading the next chunk.  At
   most one chunk is ever in flight per slot, members reply strictly in
   chunk order, so the parent frames replies with [Marshal.header_size]
   / [Marshal.data_size] out of a per-slot buffer and resets the slot's
   per-task deadline after every member — a chunk never widens any one
   task's deadline.  A worker that dies (crash, chaos kill, SIGKILL on
   deadline) is reaped and its slot respawned without disturbing the
   rest of the pool — warm state in the surviving children (decoded
   layouts, simulation caches) stays resident; the dead chunk's
   finished members keep their results, its unfinished tail is
   re-enqueued as uncharged singletons. *)
type fslot = {
  mutable s_pid : int;
  mutable s_to : Unix.file_descr; (* parent -> child task pipe *)
  mutable s_from : Unix.file_descr; (* child -> parent result pipe *)
  mutable s_alive : bool;
  s_buf : Buffer.t; (* partial reply bytes *)
  mutable s_busy : bool;
  mutable s_tasks : int array; (* in-flight chunk, dispatch order *)
  mutable s_done : int; (* members already replied *)
  mutable s_attempt : int; (* 0-based; a chunk is all one attempt *)
  mutable s_dup : bool; (* chunk involved in a steal *)
  mutable s_deadline : float; (* absolute; [infinity] when no timeout *)
  mutable s_last : float; (* dispatch / latest-reply time, absolute *)
}

type ('a, 'b) fork_state = {
  k_f : 'a -> 'b;
  k_slots : fslot array;
  k_jobs : int;
  k_timeout_s : float option;
  k_retries : int;
  k_backoff_s : float;
  k_target_s : float; (* chunk budget, seconds *)
  k_cmin : int;
  k_cmax : int;
  mutable k_ewma : float; (* per-task cost estimate, seconds *)
}

(* The parent writes to task pipes whose child may have died; without
   this, the resulting SIGPIPE would kill the whole run instead of
   surfacing as an EPIPE the dispatcher handles by respawning the slot.
   Set once, never restored: writers in this codebase check their write
   results. *)
let sigpipe_ignored = ref false

let ignore_sigpipe () =
  if not !sigpipe_ignored then begin
    sigpipe_ignored := true;
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()
  end

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + retry_eintr (fun () -> Unix.write fd b !off (len - !off))
  done

let wait_status pid =
  match retry_eintr (fun () -> Unix.waitpid [] pid) with
  | _, status -> Some status
  | exception Unix.Unix_error _ -> None

(* The worker loop run in each forked child: read one chunk, evaluate
   its members in order streaming one flushed reply each — so the parent
   sees progress (and can reset the deadline) per task, not per chunk —
   repeat until the parent closes the task pipe. *)
let fork_child_loop (type a b) (f : a -> b) rd wr =
  let ic = Unix.in_channel_of_descr rd in
  let oc = Unix.out_channel_of_descr wr in
  (try
     while true do
       let (tasks, attempt, inputs) : int array * int * a array =
         Marshal.from_channel ic
       in
       Array.iteri
         (fun k task ->
           let reply : b reply =
             match
               Chaos.task_point ~isolated:true ~key:task ~attempt:(attempt + 1);
               f inputs.(k)
             with
             | v -> Value v
             | exception e -> Raised (Printexc.to_string e)
           in
           Marshal.to_channel oc (task, reply) [];
           flush oc)
         tasks
     done
   with _ -> ());
  Unix._exit 0

let fork_spawn_into st slot =
  (* Anything buffered in the parent must not be replayed by children
     (children exit through [Unix._exit], which skips flushing). *)
  flush stdout;
  flush stderr;
  let t_r, t_w = Unix.pipe () in
  let r_r, r_w = Unix.pipe () in
  let rec do_fork tries =
    match Unix.fork () with
    | pid -> pid
    | exception Unix.Unix_error (Unix.EAGAIN, _, _) when tries > 0 ->
      (try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      do_fork (tries - 1)
  in
  match do_fork 100 with
  | 0 ->
    (* The child inherits the parent's sink descriptor; writing to it
       would interleave torn lines into the parent's stream. *)
    Telemetry.set_sink None;
    close_inherited_fds [ t_r; r_w ];
    fork_child_loop st.k_f t_r r_w
  | pid ->
    Unix.close t_r;
    Unix.close r_w;
    slot.s_pid <- pid;
    slot.s_to <- t_w;
    slot.s_from <- r_r;
    slot.s_alive <- true;
    slot.s_busy <- false;
    Buffer.clear slot.s_buf;
    slot.s_tasks <- [||];
    slot.s_done <- 0;
    slot.s_dup <- false;
    slot.s_deadline <- infinity;
    slot.s_last <- 0.0

let init_fork (p : pool) f =
  ignore_sigpipe ();
  let fresh_slot () =
    {
      s_pid = -1;
      s_to = Unix.stdin;
      s_from = Unix.stdin;
      s_alive = false;
      s_buf = Buffer.create 256;
      s_busy = false;
      s_tasks = [||];
      s_done = 0;
      s_attempt = 0;
      s_dup = false;
      s_deadline = infinity;
      s_last = 0.0;
    }
  in
  let st =
    {
      k_f = f;
      k_slots = Array.init p.jobs (fun _ -> fresh_slot ());
      k_jobs = p.jobs;
      k_timeout_s = p.timeout_s;
      k_retries = p.retries;
      k_backoff_s = p.backoff_s;
      k_target_s = p.chunk_target_ms /. 1000.0;
      k_cmin = p.chunk_min;
      k_cmax = p.chunk_max;
      k_ewma = seed_ewma ();
    }
  in
  let tel = Telemetry.enabled () in
  let t0 = if tel then Telemetry.now_s () else 0.0 in
  Array.iter (fun s -> fork_spawn_into st s) st.k_slots;
  if tel then Telemetry.observe "parmap.pool_spawn_s" (Telemetry.now_s () -. t0);
  st

(* Close the slot's pipes and reap the child, returning its exit status.
   Used on worker death and deadline kills; the slot is left dead for
   [fork_spawn_into] to repopulate. *)
let retire_slot slot =
  (try Unix.close slot.s_to with Unix.Unix_error _ -> ());
  (try Unix.close slot.s_from with Unix.Unix_error _ -> ());
  slot.s_alive <- false;
  slot.s_busy <- false;
  Buffer.clear slot.s_buf;
  wait_status slot.s_pid

(* Closing every task pipe first EOFs all idle children's blocking reads
   at once, and they exit on their own in parallel.  They are then
   reaped against one shared deadline, polling with a short doubling
   nap; only a child still running at the deadline (wedged in a task no
   batch is waiting on) is SIGKILLed, so a wedged pool costs one grace,
   not one per slot.  A healthy shutdown kills nothing:
   [parmap.shutdown_kills] counts the exceptions. *)
let shutdown_grace_s = 0.5

let shutdown_fork st =
  let t0 = Unix.gettimeofday () in
  let live = List.filter (fun s -> s.s_alive) (Array.to_list st.k_slots) in
  List.iter
    (fun s ->
      s.s_alive <- false;
      (try Unix.close s.s_to with Unix.Unix_error _ -> ());
      try Unix.close s.s_from with Unix.Unix_error _ -> ())
    live;
  let running s =
    match retry_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] s.s_pid) with
    | 0, _ -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  let deadline = t0 +. shutdown_grace_s in
  let rec reap nap pending =
    match List.filter running pending with
    | [] -> []
    | pending ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then pending
      else begin
        (try Unix.sleepf (Float.min nap left)
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        reap (Float.min (2.0 *. nap) 0.01) pending
      end
  in
  let stuck = reap 0.0002 live in
  List.iter
    (fun s ->
      (try Unix.kill s.s_pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_status s.s_pid))
    stuck;
  if Telemetry.enabled () then begin
    Telemetry.observe "parmap.shutdown_s" (Unix.gettimeofday () -. t0);
    Telemetry.incr ~by:(List.length stuck) "parmap.shutdown_kills"
  end

let fork_batch (st : ('a, 'b) fork_state) (xs : 'a array) =
  let n = Array.length xs in
  let outcomes = Array.make n Gave_up in
  let completed = ref 0 in
  let crashes = ref 0 in
  let timeouts = ref 0 in
  let retried = ref 0 in
  let steals = ref 0 in
  let timeout_s = st.k_timeout_s in
  let retries = st.k_retries in
  let backoff_s = st.k_backoff_s in
  (* Telemetry: per-task latency and queue wait are observed from the
     parent.  [queue_wait_s] is enqueue-to-dispatch only — pool spawn
     cost lives under [parmap.pool_spawn_s] — and [task_s] is the
     reply-to-reply wall clock within a chunk (dispatch-to-first-reply
     for its head).  The clock itself is read unconditionally: the
     chunk-size EWMA needs the samples whether or not telemetry records
     them, and neither chunking nor stealing can change a task's value,
     only when it is computed. *)
  let tel = Telemetry.enabled () in
  let t_start = if tel then Telemetry.now_s () else 0.0 in
  let task_hist = Telemetry.Histogram.create () in
  let queue_hist = Telemetry.Histogram.create () in
  let busy = ref 0.0 in
  let dispatch_s = ref 0.0 in
  (* Per-task supervision state, shared by every dispatched copy of the
     task: its current attempt, whether it settled, and how many live
     copies are in flight (2 while a stolen tail runs twice; the first
     reply wins, later ones are stale).  A copy from a superseded
     attempt is also stale: retries bump [cur_attempt]. *)
  let cur_attempt = Array.make n 0 in
  let acked = Array.make n false in
  let copies = Array.make n 0 in
  let stale task attempt = acked.(task) || attempt <> cur_attempt.(task) in
  if st.k_ewma <= 0.0 then st.k_ewma <- seed_ewma ();
  let clen =
    chunk_length ~target_s:st.k_target_s ~cmin:st.k_cmin ~cmax:st.k_cmax
      ~jobs:st.k_jobs ~ewma:st.k_ewma ~tasks:n
  in
  (* Chunks awaiting dispatch, FIFO, stamped with the time they became
     ready; failed attempts wait out their backoff in [delayed] (sorted
     by wake-up time) and return as singletons. *)
  let ready : (int array * int * float) Queue.t = Queue.create () in
  let enq0 = if tel then now () else 0.0 in
  List.iter (fun c -> Queue.add (c, 0, enq0) ready) (partition_chunks n clen);
  let delayed = ref [] in
  let remaining = ref n in
  let chunk = Bytes.create 65536 in
  let finish_failure ~task ~attempt kind =
    acked.(task) <- true;
    (match kind with
    | `Crash msg ->
      incr crashes;
      Logs.warn (fun m ->
          m "parmap: task %d attempt %d crashed: %s" task (attempt + 1) msg)
    | `Timeout ->
      incr timeouts;
      Logs.warn (fun m ->
          m "parmap: task %d attempt %d timed out after %.1fs" task
            (attempt + 1)
            (Option.value ~default:0.0 timeout_s)));
    if attempt < retries then begin
      incr retried;
      let delay = backoff_s *. (2.0 ** float_of_int attempt) in
      delayed := insert_delayed (now () +. delay, task, attempt + 1) !delayed
    end
    else begin
      outcomes.(task) <-
        (if retries = 0 then
           match kind with
           | `Crash msg -> Crashed msg
           | `Timeout -> Timed_out
         else Gave_up);
      decr remaining
    end
  in
  (* Extract one framed [(task, reply)] from the slot's buffer, if
     complete. *)
  let try_extract_reply slot : (int * 'b reply) option =
    let len = Buffer.length slot.s_buf in
    if len < Marshal.header_size then None
    else begin
      let hdr = Bytes.of_string (Buffer.sub slot.s_buf 0 Marshal.header_size) in
      let total = Marshal.header_size + Marshal.data_size hdr 0 in
      if len < total then None
      else begin
        let data = Bytes.of_string (Buffer.contents slot.s_buf) in
        let v = (Marshal.from_bytes data 0 : int * 'b reply) in
        Buffer.clear slot.s_buf;
        if len > total then Buffer.add_subbytes slot.s_buf data total (len - total);
        Some v
      end
    end
  in
  (* A member replied: feed the reply-to-reply gap to the EWMA, push the
     slot's deadline out for its next member, and settle the task unless
     a sibling copy got there first. *)
  let note_event slot =
    let t = now () in
    let d = Float.max 0.0 (t -. slot.s_last) in
    slot.s_last <- t;
    st.k_ewma <- ewma_update st.k_ewma d;
    if tel then begin
      Telemetry.Histogram.add task_hist d;
      Telemetry.observe "parmap.task_s" d;
      busy := !busy +. d
    end
  in
  let handle_reply slot (task, reply) =
    note_event slot;
    slot.s_done <- slot.s_done + 1;
    if slot.s_done >= Array.length slot.s_tasks then begin
      slot.s_busy <- false;
      slot.s_deadline <- infinity
    end
    else
      slot.s_deadline <-
        (match timeout_s with Some d -> slot.s_last +. d | None -> infinity);
    if not (stale task slot.s_attempt) then begin
      copies.(task) <- copies.(task) - 1;
      match reply with
      | Value v ->
        acked.(task) <- true;
        outcomes.(task) <- Ok v;
        incr completed;
        decr remaining
      | Raised msg ->
        finish_failure ~task ~attempt:slot.s_attempt
          (`Crash ("task raised: " ^ msg))
    end
  in
  (* The slot's chunk is dead (worker death or deadline kill).  The
     member it was executing is charged [kind] — unless a live sibling
     copy still covers it — and the never-started tail is re-enqueued
     uncharged as singletons at the same attempt, so a seeded chaos plan
     keyed on attempt numbers fires identically under any chunking. *)
  let salvage_members slot kind =
    let len = Array.length slot.s_tasks in
    for k = slot.s_done to len - 1 do
      let task = slot.s_tasks.(k) in
      if not (stale task slot.s_attempt) then begin
        copies.(task) <- copies.(task) - 1;
        if copies.(task) <= 0 then begin
          if k = slot.s_done then
            finish_failure ~task ~attempt:slot.s_attempt kind
          else
            Queue.add
              ([| task |], slot.s_attempt, if tel then now () else 0.0)
              ready
        end
      end
    done
  in
  (* The worker died mid-chunk: any partial reply is torn.  Classify by
     exit status, salvage the chunk, and respawn the slot so the pool
     keeps its capacity. *)
  let handle_death slot =
    note_event slot;
    let status = retire_slot slot in
    let msg =
      match status with
      | Some (Unix.WEXITED 0) -> "worker exited before writing a result"
      | Some status -> "worker " ^ describe_status status
      | None -> "worker vanished"
    in
    salvage_members slot (`Crash msg);
    fork_spawn_into st slot
  in
  let rec dispatch slot ((tasks, attempt, enq) as job) ~tries =
    let inputs = Array.map (fun t -> xs.(t)) tasks in
    let t0 = now () in
    let msg = Marshal.to_bytes (tasks, attempt, inputs) [] in
    match write_all slot.s_to msg with
    | () ->
      let t = now () in
      dispatch_s := !dispatch_s +. (t -. t0);
      if tel then begin
        Telemetry.observe "parmap.chunk_size"
          (float_of_int (Array.length tasks));
        if enq > 0.0 then begin
          let w = Float.max 0.0 (t -. enq) in
          Array.iter
            (fun _ ->
              Telemetry.Histogram.add queue_hist w;
              Telemetry.observe "parmap.queue_wait_s" w)
            tasks
        end
      end;
      Array.iter (fun task -> copies.(task) <- copies.(task) + 1) tasks;
      slot.s_busy <- true;
      slot.s_tasks <- tasks;
      slot.s_attempt <- attempt;
      slot.s_done <- 0;
      slot.s_dup <- false;
      slot.s_last <- t;
      slot.s_deadline <-
        (match timeout_s with Some d -> t +. d | None -> infinity)
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
      (* The idle worker died since its last task (a chaos kill landing
         between batches, the OOM killer): reap it, respawn the slot and
         redispatch without charging the tasks an attempt. *)
      ignore (retire_slot slot);
      fork_spawn_into st slot;
      if tries > 0 then dispatch slot job ~tries:(tries - 1)
      else
        Array.iter
          (fun task ->
            if
              (not acked.(task))
              && cur_attempt.(task) = attempt
              && copies.(task) <= 0
            then finish_failure ~task ~attempt (`Crash "worker unavailable"))
          tasks
  in
  while !remaining > 0 do
    let t = now () in
    (* Promote delayed retries whose backoff has elapsed.  The
       promotion is what invalidates any still-running copy of the old
       attempt: [cur_attempt] moves on, [copies] restarts at zero. *)
    let rec promote () =
      match !delayed with
      | (nb, task, att) :: rest when nb <= t ->
        delayed := rest;
        cur_attempt.(task) <- att;
        acked.(task) <- false;
        copies.(task) <- 0;
        Queue.add ([| task |], att, if tel then t else 0.0) ready;
        promote ()
      | _ -> ()
    in
    promote ();
    Array.iter
      (fun s ->
        if s.s_alive && (not s.s_busy) && not (Queue.is_empty ready) then
          dispatch s (Queue.pop ready) ~tries:2)
      st.k_slots;
    (* Work stealing: with nothing left to dispatch and a slot sitting
       idle, re-dispatch the undone remainder of the slowest busy
       chunk — the member in the straggler's hands included, since that
       member is exactly the one a slow worker is sitting on — to the
       idle slot.  First reply per task wins; the loser's is stale.
       Guarded by the cost estimate (no steal before a chunk is ~4
       expected tasks late) so healthy in-progress chunks are not
       duplicated, and [s_dup] keeps any chunk from being stolen
       twice. *)
    if Queue.is_empty ready && !delayed = [] && !remaining > 0 then begin
      let idle =
        Array.fold_left
          (fun acc s ->
            match acc with
            | Some _ -> acc
            | None -> if s.s_alive && not s.s_busy then Some s else None)
          None st.k_slots
      in
      match idle with
      | None -> ()
      | Some idle ->
        let t = now () in
        let late = Float.max 0.002 (4.0 *. st.k_ewma) in
        let victim =
          Array.fold_left
            (fun acc s ->
              if
                s.s_busy && (not s.s_dup)
                && Array.length s.s_tasks > s.s_done
                && t -. s.s_last > late
              then
                match acc with
                | Some v when v.s_last <= s.s_last -> acc
                | _ -> Some s
              else acc)
            None st.k_slots
        in
        (match victim with
        | None -> ()
        | Some v ->
          let tail =
            Array.sub v.s_tasks v.s_done (Array.length v.s_tasks - v.s_done)
          in
          let tail =
            Array.of_list
              (List.filter
                 (fun task -> not (stale task v.s_attempt))
                 (Array.to_list tail))
          in
          if Array.length tail > 0 then begin
            incr steals;
            v.s_dup <- true;
            (* enq 0: a stolen copy's wait is not a fresh queue wait. *)
            dispatch idle (tail, v.s_attempt, 0.0) ~tries:2;
            if idle.s_busy then idle.s_dup <- true
          end)
    end;
    let pending =
      Array.fold_left
        (fun acc s -> if s.s_busy then (s, s.s_from) :: acc else acc)
        [] st.k_slots
    in
    if pending = [] then begin
      match !delayed with
      | (nb, _, _) :: _ ->
        let d = nb -. now () in
        if d > 0.0 then (
          (* An interrupted sleep just re-enters the loop, which
             recomputes the remaining backoff. *)
          try Unix.sleepf d
          with Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | [] ->
        (* Unreachable: remaining > 0 implies work somewhere. *)
        remaining := 0
    end
    else begin
      let fds = List.map snd pending in
      let nearest_deadline =
        List.fold_left
          (fun acc (s, _) -> Float.min acc s.s_deadline)
          infinity pending
      in
      let nearest_retry =
        match !delayed with (nb, _, _) :: _ -> nb | [] -> infinity
      in
      let until = Float.min nearest_deadline nearest_retry in
      let tmo =
        if until = infinity then -1.0 else Float.max 0.0 (until -. now ())
      in
      let readable =
        match Unix.select fds [] [] tmo with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun fd ->
          match
            List.find_opt (fun (s, f) -> f = fd && s.s_busy && s.s_alive) pending
          with
          | None -> ()
          | Some (slot, _) -> (
            match
              retry_eintr (fun () -> Unix.read fd chunk 0 (Bytes.length chunk))
            with
            | 0 -> handle_death slot
            | k ->
              Buffer.add_subbytes slot.s_buf chunk 0 k;
              (* One read may carry several framed member replies. *)
              let rec drain () =
                if slot.s_busy then
                  match try_extract_reply slot with
                  | Some tr ->
                    handle_reply slot tr;
                    drain ()
                  | None -> ()
                  | exception _ ->
                    (* Garbage on the wire: treat as a worker fault. *)
                    handle_death slot
              in
              drain ()
            | exception Unix.Unix_error _ -> handle_death slot))
        readable;
      let t = now () in
      Array.iter
        (fun slot ->
          if slot.s_busy && slot.s_deadline <= t then begin
            note_event slot;
            (try Unix.kill slot.s_pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (retire_slot slot);
            salvage_members slot `Timeout;
            fork_spawn_into st slot
          end)
        st.k_slots
    end
  done;
  (* Every task has settled, but a stolen chunk's slower copy may still
     be running stale members.  Its replies must not leak into the next
     batch's framing, so the slot is recycled rather than drained. *)
  Array.iter
    (fun slot ->
      if slot.s_busy then begin
        (try Unix.kill slot.s_pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (retire_slot slot);
        fork_spawn_into st slot
      end)
    st.k_slots;
  if tel then begin
    let wall = Telemetry.now_s () -. t_start in
    Telemetry.incr ~by:!crashes "parmap.crashes";
    Telemetry.incr ~by:!timeouts "parmap.timeouts";
    Telemetry.incr ~by:!retried "parmap.retries";
    Telemetry.incr ~by:!steals "parmap.steals";
    Telemetry.observe "parmap.dispatch_s" !dispatch_s;
    let pct h p = Telemetry.Histogram.percentile h p in
    Telemetry.emit ~kind:"pool"
      [
        ("mode", Telemetry.String "supervised");
        ("backend", Telemetry.String "fork");
        ("jobs", Telemetry.Int st.k_jobs);
        ("tasks", Telemetry.Int n);
        ("completed", Telemetry.Int !completed);
        ("crashes", Telemetry.Int !crashes);
        ("timeouts", Telemetry.Int !timeouts);
        ("retries", Telemetry.Int !retried);
        ("chunk_len", Telemetry.Int clen);
        ("steals", Telemetry.Int !steals);
        ("dispatch_s", Telemetry.Float !dispatch_s);
        ("wall_s", Telemetry.Float wall);
        ("busy_s", Telemetry.Float !busy);
        ( "utilization",
          Telemetry.Float
            (if wall > 0.0 then
               !busy /. (wall *. float_of_int st.k_jobs)
             else 0.0) );
        ("task_p50_s", Telemetry.Float (pct task_hist 50.0));
        ("task_p95_s", Telemetry.Float (pct task_hist 95.0));
        ("task_max_s", Telemetry.Float (Telemetry.Histogram.max task_hist));
        ("queue_p50_s", Telemetry.Float (pct queue_hist 50.0));
        ("queue_p95_s", Telemetry.Float (pct queue_hist 95.0));
        ("queue_max_s", Telemetry.Float (Telemetry.Histogram.max queue_hist));
      ]
  end;
  ( outcomes,
    {
      completed = !completed;
      crashes = !crashes;
      timeouts = !timeouts;
      retries = !retried;
      quarantined = 0;
    } )

let empty_stats =
  { completed = 0; crashes = 0; timeouts = 0; retries = 0; quarantined = 0 }

(* --- Persistent pool handles --------------------------------------------- *)

type ('a, 'b) impl =
  | Uninit
  | Inproc
  | Forked of ('a, 'b) fork_state
  | Domained of ('a, 'b) dom_state

type ('a, 'b) handle = {
  h_pool : pool;
  h_f : 'a -> 'b;
  mutable h_impl : ('a, 'b) impl;
  mutable h_closed : bool;
}

let create pool ~f = { h_pool = pool; h_f = f; h_impl = Uninit; h_closed = false }

(* Workers are spawned lazily on the first batch, not at [create]: a
   handle for a study that never evaluates costs nothing, a [`Domains]
   handle does not retire [`Fork] until it actually runs, and state the
   workers must inherit (an armed chaos plan, the warmed caches of the
   creating process) is captured as late as possible. *)
let init_impl h =
  match h.h_pool.backend with
  | `Seq -> Inproc
  | `Domains -> Domained (init_domains h.h_pool h.h_f)
  | `Fork ->
    if fork_usable () then Forked (init_fork h.h_pool h.h_f)
    else begin
      if available then warn_fork_after_domains ();
      Inproc
    end

let run_batch h xs =
  if h.h_closed then invalid_arg "Parmap.run_batch: handle is shut down";
  if Array.length xs = 0 then ([||], empty_stats)
  else begin
    (match h.h_impl with Uninit -> h.h_impl <- init_impl h | _ -> ());
    match h.h_impl with
    | Uninit -> assert false
    | Inproc -> inprocess_supervised h.h_f xs
    | Forked st -> fork_batch st xs
    | Domained st -> domains_batch st xs
  end

let shutdown h =
  if not h.h_closed then begin
    h.h_closed <- true;
    (match h.h_impl with
    | Uninit | Inproc -> ()
    | Forked st -> shutdown_fork st
    | Domained st -> shutdown_domains st);
    h.h_impl <- Uninit
  end

let run_supervised pool f xs =
  if Array.length xs = 0 then ([||], empty_stats)
  else begin
    let h = create pool ~f in
    Fun.protect ~finally:(fun () -> shutdown h) (fun () -> run_batch h xs)
  end

let supervised ?(jobs = 1) ?timeout_s ?(retries = 1) ?(backoff_s = 0.05) f xs =
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf
         "Parmap.supervised: jobs must be a positive worker count (got %d)"
         jobs);
  run_supervised (pool ~backend:`Fork ~jobs ?timeout_s ~retries ~backoff_s ())
    f xs
