(* A task pool for fitness evaluation behind a first-class backend API.

   Two backends share one [pool] configuration record:

   - [`Seq]: in-process and sequential — the bit-identity reference.
     Exceptions isolate per task; deadlines and retries are inert.
   - [`Fork]: pre-forked worker processes kept on pipes, under one batch
     scheduler ([run_scheduled]).  A worker stuck in a tight loop or a
     blocking C call cannot be trusted to deliver its own SIGALRM, so
     the parent enforces each task's deadline with SIGKILL and respawns
     the slot. *)

type backend = [ `Seq | `Fork ]

let available = Sys.unix

let backend_name = function `Seq -> "seq" | `Fork -> "fork"

let backend_of_name s =
  List.find_opt (fun b -> backend_name b = s) [ `Seq; `Fork ]

(* Forking is Unix-only. *)
let capabilities () : backend list =
  if available then [ `Seq; `Fork ] else [ `Seq ]

type pool = {
  backend : backend;
  jobs : int;
  timeout_s : float option;
  retries : int;
  ignored_limits : string list;
}

let max_jobs = 256

let warned_ignored_limits = ref false

let pool ?(backend = `Fork) ?(jobs = 1) ?timeout_s ?(retries = 1) () =
  if jobs < 1 || jobs > max_jobs then
    invalid_arg
      (Printf.sprintf "Parmap.pool: jobs must be in 1..%d (got %d)" max_jobs
         jobs);
  (match timeout_s with
  | Some t when (not (Float.is_finite t)) || t <= 0.0 ->
    invalid_arg "Parmap.pool: timeout_s must be a positive number of seconds"
  | _ -> ());
  if retries < 0 then invalid_arg "Parmap.pool: retries must be >= 0";
  (* Supervision limits the chosen backend cannot honor: [`Fork]
     enforces deadlines and retries, [`Seq] runs unsupervised.
     [retries = 1] is the constructor default, so only a value that must
     have been chosen deliberately is flagged. *)
  let ignored_limits =
    match backend with
    | `Seq ->
      (if timeout_s <> None then [ "timeout_s" ] else [])
      @ (if retries > 1 then [ "retries" ] else [])
    | `Fork -> []
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
  { backend; jobs; timeout_s; retries; ignored_limits }

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

(* --- Outcomes ----------------------------------------------------------- *)

type 'b outcome = Ok of 'b | Crashed of string | Timed_out | Gave_up

type stats = { completed : int; crashes : int; timeouts : int; retries : int }

let empty_stats = { completed = 0; crashes = 0; timeouts = 0; retries = 0 }

let now () = Unix.gettimeofday ()

(* A failed attempt's first retry waits this long; each later one
   doubles it. *)
let backoff_s = 0.05

(* No fork (or [`Seq] requested): in-process evaluation.  Exceptions
   still isolate per task, but hangs cannot be interrupted and retries
   are pointless against a deterministic in-process failure. *)
let inprocess_supervised f xs =
  let outcomes =
    Array.map
      (fun x ->
        match f x with
        | v -> Ok v
        | exception e -> Crashed (Printexc.to_string e))
      xs
  in
  let crashes =
    Array.fold_left (fun n o -> match o with Ok _ -> n | _ -> n + 1) 0 outcomes
  in
  (outcomes, { empty_stats with completed = Array.length xs - crashes; crashes })

(* --- Fork workers ------------------------------------------------------ *)

(* What a worker reports for its task. *)
type 'b reply = Value of 'b | Raised of string

(* What the scheduler hears from the workers: [Reply (slot, t, r)], the
   slot's task finished at [t] with [r]; or [Died (slot, how)], the
   slot's worker is gone and already replaced. *)
type 'b event = Reply of int * float * 'b reply | Died of int * string

(* One pre-forked worker per slot, kept alive across batches on a pair
   of pipes: the parent marshals one [(task id, attempt, input)] down
   the task pipe, the child writes back one flushed [reply] and blocks
   reading the next task.  A worker that dies, or that the scheduler
   kills at a deadline, is reaped and its slot respawned without
   disturbing the rest of the pool: warm state in the surviving children
   (decoded layouts, simulation caches) stays resident. *)
type fslot = {
  pid : int;
  to_child : Unix.file_descr;
  from_child : Unix.file_descr;
  pending : Buffer.t; (* reply bytes short of a whole frame *)
}

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

let fork_child_loop (type a b) (f : a -> b) rd wr =
  let ic = Unix.in_channel_of_descr rd in
  let oc = Unix.out_channel_of_descr wr in
  (try
     while true do
       let (task, attempt, input) : int * int * a = Marshal.from_channel ic in
       let reply : b reply =
         match
           Chaos.task_point ~key:task ~attempt:(attempt + 1);
           f input
         with
         | v -> Value v
         | exception e -> Raised (Printexc.to_string e)
       in
       Marshal.to_channel oc reply [];
       flush oc
     done
   with _ -> ());
  Unix._exit 0

let fork_spawn f =
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
    fork_child_loop f t_r r_w
  | pid ->
    Unix.close t_r;
    Unix.close r_w;
    { pid; to_child = t_w; from_child = r_r; pending = Buffer.create 256 }

(* Close slot [i]'s pipes, reap its child and fork a fresh one into the
   slot, returning the old child's exit status. *)
let respawn f slots i =
  let s = slots.(i) in
  (try Unix.close s.to_child with Unix.Unix_error _ -> ());
  (try Unix.close s.from_child with Unix.Unix_error _ -> ());
  let status = wait_status s.pid in
  slots.(i) <- fork_spawn f;
  status

(* Every whole reply frame in the slot's buffer, oldest first, framed by
   [Marshal.header_size] / [Marshal.data_size]; a partial frame stays
   buffered for the next read.  Garbage on the wire raises. *)
let take_frames slot =
  let data = Buffer.contents slot.pending in
  let len = String.length data in
  let rec go off acc =
    if len - off < Marshal.header_size then (off, acc)
    else
      let total =
        Marshal.header_size + Marshal.data_size (Bytes.unsafe_of_string data) off
      in
      if len - off < total then (off, acc)
      else go (off + total) (Marshal.from_string data off :: acc)
  in
  let off, frames = go 0 [] in
  Buffer.clear slot.pending;
  Buffer.add_substring slot.pending data off (len - off);
  List.rev frames

(* Closing every task pipe first EOFs all idle children's blocking reads
   at once, and they exit on their own in parallel.  They are then
   reaped against one shared deadline, polling with a short doubling
   nap; only a child still running at the deadline (wedged in a task no
   batch is waiting on) is SIGKILLed, so a wedged pool costs one grace,
   not one per slot.  A healthy shutdown kills nothing:
   [parmap.shutdown_kills] counts the exceptions. *)
let shutdown_grace_s = 0.5

let shutdown_fork slots =
  let t0 = Unix.gettimeofday () in
  let live = Array.to_list slots in
  List.iter
    (fun s ->
      (try Unix.close s.to_child with Unix.Unix_error _ -> ());
      try Unix.close s.from_child with Unix.Unix_error _ -> ())
    live;
  let running s =
    match retry_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] s.pid) with
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
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_status s.pid))
    stuck;
  if Telemetry.enabled () then begin
    Telemetry.observe "parmap.shutdown_s" (Unix.gettimeofday () -. t0);
    Telemetry.incr ~by:(List.length stuck) "parmap.shutdown_kills"
  end

(* The resident workers of one handle, one per slot. *)
type ('a, 'b) workers = {
  w_f : 'a -> 'b;
  slots : fslot array;
  buf : Bytes.t; (* one read's worth of reply bytes *)
}

let spawn_workers (p : pool) f =
  (* The parent writes to task pipes whose child may have died; without
     this, the resulting SIGPIPE would kill the whole run instead of
     surfacing as an EPIPE [send_task] handles by respawning the slot.
     Never restored: writers in this codebase check their write
     results. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  {
    w_f = f;
    slots = Array.init p.jobs (fun _ -> fork_spawn f);
    buf = Bytes.create 65536;
  }

(* The worker died mid-task, or wrote garbage: any partial reply is
   torn.  Reap it, respawn the slot, and say how it ended. *)
let died w i =
  let msg =
    match respawn w.w_f w.slots i with
    | Some (Unix.WEXITED 0) -> "worker exited before writing a result"
    | Some status -> "worker " ^ describe_status status
    | None -> "worker vanished"
  in
  Died (i, msg)

let read_slot (w : ('a, 'b) workers) i : 'b event list =
  let s = w.slots.(i) in
  match
    retry_eintr (fun () -> Unix.read s.from_child w.buf 0 (Bytes.length w.buf))
  with
  | 0 -> [ died w i ]
  | k -> (
    Buffer.add_subbytes s.pending w.buf 0 k;
    let t = now () in
    match take_frames s with
    | frames -> List.map (fun r -> Reply (i, t, r)) frames
    | exception _ -> [ died w i ])
  | exception Unix.Unix_error _ -> [ died w i ]

(* Hand a task to idle slot [i]; [false] when no live worker could take
   it.  An idle worker may have died since its last task (a chaos kill
   landing between batches, the OOM killer): respawn the slot and
   resend, without charging the task an attempt. *)
let send_task w i task attempt input =
  let msg = Marshal.to_bytes (task, attempt, input) [] in
  let rec go tries =
    match write_all w.slots.(i).to_child msg with
    | () -> true
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
      ignore (respawn w.w_f w.slots i);
      tries > 0 && go (tries - 1)
  in
  go 2

(* Events, blocking up to [tmo] seconds (negative: indefinitely). *)
let wait_events w tmo =
  let fds = Array.to_list (Array.map (fun s -> s.from_child) w.slots) in
  match Unix.select fds [] [] tmo with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | readable, _, _ ->
    (* Resolve every descriptor before any respawn reuses one. *)
    List.init (Array.length w.slots) Fun.id
    |> List.filter (fun i -> List.mem w.slots.(i).from_child readable)
    |> List.concat_map (read_slot w)

(* End slot [i]'s worker mid-task and fork a fresh one in its place. *)
let kill_slot w i =
  (try Unix.kill w.slots.(i).pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (respawn w.w_f w.slots i)

(* --- The batch scheduler -------------------------------------------------- *)

(* One batch over the handle's [jobs] worker slots.  Tasks [0, n) are
   queued in one ready FIFO; each idle slot takes the next task, and the
   task's deadline runs from its own dispatch.

   A failed attempt — the task raised, its worker exited, or it passed
   its deadline and was killed — is charged to that task alone: it waits
   out an exponential backoff and returns to the FIFO at the next
   attempt number, up to [retries].

   Every unsettled task sits in exactly one place — the ready FIFO, the
   backoff list or one slot — so the batch ends with every slot idle,
   and outcomes are stored by task id: for pure tasks the result does
   not depend on scheduling. *)

(* The task a slot is running: its id, its 0-based attempt and when it
   was dispatched. *)
type inflight = { task : int; attempt : int; sent : float }

let run_scheduled (p : pool) (w : ('a, 'b) workers) (xs : 'a array) =
  let n = Array.length xs in
  let outcomes = Array.make n Gave_up in
  let completed = ref 0 and crashes = ref 0 and timeouts = ref 0 in
  let retried = ref 0 in
  (* Telemetry: per-task latency and queue wait are observed from the
     parent.  [queue_wait_s] is enqueue-to-dispatch only — pool spawn
     cost lives under [parmap.pool_spawn_s] — and [task_s] is
     dispatch-to-reply. *)
  let tel = Telemetry.enabled () in
  let t_start = if tel then Telemetry.now_s () else 0.0 in
  let task_hist = Telemetry.Histogram.create () in
  let queue_hist = Telemetry.Histogram.create () in
  let busy_s = ref 0.0 and dispatch_s = ref 0.0 in
  (* Tasks awaiting dispatch, stamped with the time they became ready;
     failed attempts wait out their backoff in [delayed], soonest
     first. *)
  let ready : (int * int * float) Queue.t = Queue.create () in
  let enq0 = now () in
  for task = 0 to n - 1 do
    Queue.add (task, 0, enq0) ready
  done;
  let delayed = ref [] in
  let remaining = ref n in
  let slots : inflight option array = Array.make p.jobs None in
  let limit = Option.value ~default:infinity p.timeout_s in
  let fail ~task ~attempt kind =
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
            (Option.value ~default:0.0 p.timeout_s)));
    if attempt < p.retries then begin
      incr retried;
      let delay = backoff_s *. (2.0 ** float_of_int attempt) in
      delayed :=
        List.merge compare [ (now () +. delay, task, attempt + 1) ] !delayed
    end
    else begin
      outcomes.(task) <-
        (if p.retries = 0 then
           match kind with `Crash msg -> Crashed msg | `Timeout -> Timed_out
         else Gave_up);
      decr remaining
    end
  in
  (* Free slot [i], whose task ended at [t], and return what it ran. *)
  let take i t =
    let r = slots.(i) in
    slots.(i) <- None;
    Option.iter
      (fun r ->
        if tel then begin
          let d = Float.max 0.0 (t -. r.sent) in
          Telemetry.Histogram.add task_hist d;
          Telemetry.observe "parmap.task_s" d;
          busy_s := !busy_s +. d
        end)
      r;
    r
  in
  let on_reply i t reply =
    match (take i t, reply) with
    | None, _ -> ()
    | Some r, Value v ->
      outcomes.(r.task) <- Ok v;
      incr completed;
      decr remaining
    | Some r, Raised msg ->
      fail ~task:r.task ~attempt:r.attempt (`Crash ("task raised: " ^ msg))
  in
  (* The slot's worker is gone: charge its task. *)
  let salvage i kind =
    Option.iter
      (fun r -> fail ~task:r.task ~attempt:r.attempt kind)
      (take i (now ()))
  in
  let dispatch i (task, attempt, enq) =
    let t0 = now () in
    let sent = send_task w i task attempt xs.(task) in
    let t = now () in
    dispatch_s := !dispatch_s +. (t -. t0);
    if not sent then fail ~task ~attempt (`Crash "worker unavailable")
    else begin
      if tel then begin
        let q = Float.max 0.0 (t -. enq) in
        Telemetry.Histogram.add queue_hist q;
        Telemetry.observe "parmap.queue_wait_s" q
      end;
      slots.(i) <- Some { task; attempt; sent = t }
    end
  in
  while !remaining > 0 do
    let t = now () in
    let rec promote () =
      match !delayed with
      | (wake, task, attempt) :: rest when wake <= t ->
        delayed := rest;
        Queue.add (task, attempt, now ()) ready;
        promote ()
      | _ -> ()
    in
    promote ();
    Array.iteri
      (fun i sl ->
        if sl = None && not (Queue.is_empty ready) then
          dispatch i (Queue.pop ready))
      slots;
    (* Sleep until an event, the nearest hard deadline or the nearest
       retry wake-up — or not at all if an idle slot could not take the
       next ready task. *)
    let until =
      if (not (Queue.is_empty ready)) && Array.mem None slots then 0.0
      else
        Array.fold_left
          (fun acc -> function
            | Some r -> Float.min acc (r.sent +. limit)
            | None -> acc)
          (match !delayed with (wake, _, _) :: _ -> wake | [] -> infinity)
          slots
    in
    if !remaining > 0 then begin
      let tmo =
        if until = infinity then -1.0 else Float.max 0.0 (until -. now ())
      in
      List.iter
        (function
          | Reply (i, t, r) -> on_reply i t r
          | Died (i, msg) -> salvage i (`Crash msg))
        (wait_events w tmo);
      let t = now () in
      Array.iteri
        (fun i -> function
          | Some r when r.sent +. limit <= t ->
            kill_slot w i;
            salvage i `Timeout
          | _ -> ())
        slots
    end
  done;
  if tel then begin
    let wall = Telemetry.now_s () -. t_start in
    Telemetry.incr ~by:!crashes "parmap.crashes";
    Telemetry.incr ~by:!timeouts "parmap.timeouts";
    Telemetry.incr ~by:!retried "parmap.retries";
    Telemetry.observe "parmap.dispatch_s" !dispatch_s;
    let pct h p = Telemetry.Histogram.percentile h p in
    Telemetry.emit ~kind:"pool"
      [
        ("mode", Telemetry.String "supervised");
        ("backend", Telemetry.String (backend_name p.backend));
        ("jobs", Telemetry.Int p.jobs);
        ("tasks", Telemetry.Int n);
        ("completed", Telemetry.Int !completed);
        ("crashes", Telemetry.Int !crashes);
        ("timeouts", Telemetry.Int !timeouts);
        ("retries", Telemetry.Int !retried);
        ("dispatch_s", Telemetry.Float !dispatch_s);
        ("wall_s", Telemetry.Float wall);
        ("busy_s", Telemetry.Float !busy_s);
        ( "utilization",
          Telemetry.Float
            (if wall > 0.0 then !busy_s /. (wall *. float_of_int p.jobs)
             else 0.0)
        );
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
    } )

(* --- Persistent pool handles --------------------------------------------- *)

type ('a, 'b) impl = Uninit | Inproc | Pooled of ('a, 'b) workers

type ('a, 'b) handle = {
  h_pool : pool;
  h_f : 'a -> 'b;
  mutable h_impl : ('a, 'b) impl;
  mutable h_closed : bool;
}

let create pool ~f = { h_pool = pool; h_f = f; h_impl = Uninit; h_closed = false }

(* Workers are spawned lazily on the first batch, not at [create]: a
   handle for a study that never evaluates costs nothing, and state the
   workers must inherit (an armed chaos plan, the warmed caches of the
   creating process) is captured as late as possible. *)
let init_impl h =
  match h.h_pool.backend with
  | `Fork when available ->
    let tel = Telemetry.enabled () in
    let t0 = if tel then Telemetry.now_s () else 0.0 in
    let w = spawn_workers h.h_pool h.h_f in
    if tel then Telemetry.observe "parmap.pool_spawn_s" (Telemetry.now_s () -. t0);
    Pooled w
  | `Seq | `Fork -> Inproc

let run_batch h xs =
  if h.h_closed then invalid_arg "Parmap.run_batch: handle is shut down";
  if Array.length xs = 0 then ([||], empty_stats)
  else begin
    (match h.h_impl with Uninit -> h.h_impl <- init_impl h | _ -> ());
    match h.h_impl with
    | Uninit -> assert false
    | Inproc -> inprocess_supervised h.h_f xs
    | Pooled w -> run_scheduled h.h_pool w xs
  end

let shutdown h =
  if not h.h_closed then begin
    h.h_closed <- true;
    (match h.h_impl with
    | Uninit | Inproc -> ()
    | Pooled w -> shutdown_fork w.slots);
    h.h_impl <- Uninit
  end

let run_supervised pool f xs =
  let h = create pool ~f in
  Fun.protect ~finally:(fun () -> shutdown h) (fun () -> run_batch h xs)
