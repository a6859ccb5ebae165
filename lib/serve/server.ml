(* The evaluation daemon behind [metaopt serve].

   One single-threaded event loop owns a Unix-domain listening socket,
   the shared fitness store, and one persistent Parmap pool.  Clients
   frame requests over the socket (see Protocol); the loop answers
   store hits immediately, coalesces the misses of every connected
   client into one bounded queue — identical digests collapse to a
   single pending evaluation with many waiters — and drains the queue
   through single [Parmap.run_batch] dispatches.  Backpressure is
   typed: a batch that would overflow the queue, or a client exceeding
   its in-flight cap, gets a [Rejected] response and nothing else
   happens.

   Determinism: the pool workers run [Study.service_of_desc] closures —
   the exact compile-and-simulate pipeline a local context's engines
   dispatch — on the client's canonical genome, and results are
   sanitized with the evaluator's own policy before storing or
   replying.  A served study is therefore bit-identical to a local run
   of the same study, which the [served_vs_local] fuzz oracle and the
   CI serve-smoke job both enforce.

   Shutdown (SIGTERM / SIGINT / [stop ()]) is graceful: stop accepting,
   answer everything already queued — in-flight batches drain through
   the pool and land in the store — flush the sockets, shut the pool
   down, unlink the socket file. *)

type config = {
  socket : string;
  pool : Gp.Parmap.pool;
  cache_dir : string option;
  queue_cap : int;
  inflight_cap : int;
  idle_timeout_s : float option;
  metrics_out : string option;
}

let default_config ~socket =
  {
    socket;
    pool = Gp.Parmap.pool ~backend:`Fork ~jobs:2 ~retries:1 ();
    cache_dir = None;
    queue_cap = 4096;
    inflight_cap = 8;
    idle_timeout_s = None;
    metrics_out = None;
  }

(* --- Worker-side study services ------------------------------------------- *)

(* Tasks are self-describing: a fork worker captures this function's
   environment when the pool first forks, before any study may have
   been opened, so the study description must ride in the task itself.
   Each worker lazily builds and memoizes the service for a description
   the first time it sees it — that warm state (prepared benches,
   baselines, simulation caches) amortizing across batches is the point
   of the daemon.  The registry is mutex-guarded, so threads sharing
   this heap build each service once. *)
type wtask = {
  w_desc : Driver.Study.remote_desc;
  w_dataset : Benchmarks.Bench.dataset;
  w_genome : Gp.Expr.genome;
  w_case : int;
}

let desc_key (d : Driver.Study.remote_desc) =
  Digest.string (Marshal.to_string d [])

let services : (string, Driver.Study.service) Hashtbl.t = Hashtbl.create 4
let services_mu = Mutex.create ()

let service_for desc =
  let key = desc_key desc in
  Mutex.lock services_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock services_mu)
    (fun () ->
      match Hashtbl.find_opt services key with
      | Some s -> s
      | None ->
        let s = Driver.Study.service_of_desc desc in
        Hashtbl.replace services key s;
        s)

let eval_wtask (w : wtask) =
  let svc = service_for w.w_desc in
  svc.Driver.Study.svc_eval w.w_dataset w.w_genome w.w_case

(* --- Server state --------------------------------------------------------- *)

type client = {
  c_fd : Unix.file_descr;
  c_id : int;
  mutable c_hello : bool;
  c_in : Buffer.t;
  mutable c_out : Buffer.t;
  mutable c_out_off : int;
  mutable c_inflight : int;
  mutable c_last : float;
  mutable c_closed : bool;
}

(* One client Eval request being assembled: hits fill immediately,
   misses fill as dispatches complete; at zero remaining the response
   goes out. *)
type preq = {
  p_req : int;
  p_client : client;
  p_outcomes : float Gp.Parmap.outcome option array;
  mutable p_remaining : int;
}

(* One queued evaluation, shared by every request that asked for its
   digest. *)
type entry = {
  e_digest : string;
  e_task : wtask;
  mutable e_waiters : (preq * int) list;
}

type stats = {
  mutable s_requests : int;
  mutable s_batched : int;  (* requests that shared a dispatch with others *)
  mutable s_rejected : int;
  mutable s_store_hits : int;
  mutable s_coalesced : int;  (* tasks answered by another client's entry *)
  mutable s_evaluated : int;
  mutable s_dispatches : int;
  mutable s_max_queue : int;
}

type state = {
  cfg : config;
  store : Driver.Shardstore.t option;
  mem : (string, float) Hashtbl.t;  (* digest -> fitness, daemon lifetime *)
  clients : (int, client) Hashtbl.t;
  queue : entry Queue.t;
  by_digest : (string, entry) Hashtbl.t;  (* queued entries only *)
  study_ids : (string, int) Hashtbl.t;  (* desc digest -> id *)
  study_descs : (int, Driver.Study.remote_desc) Hashtbl.t;
  mutable next_study : int;
  mutable next_client : int;
  mutable handle : (wtask, float) Gp.Parmap.handle option;
  mutable draining : bool;
  st_stats : stats;
}

let lookup st digest =
  match Hashtbl.find_opt st.mem digest with
  | Some _ as hit -> hit
  | None -> (
    match st.store with
    | Some s -> Driver.Shardstore.find s digest
    | None -> None)

(* --- Client IO ------------------------------------------------------------ *)

let close_client st c =
  if not c.c_closed then begin
    c.c_closed <- true;
    Hashtbl.remove st.clients c.c_id;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ())
  end

let enqueue_bytes c (b : bytes) =
  if not c.c_closed then Buffer.add_bytes c.c_out b

let enqueue_response c resp =
  enqueue_bytes c (Protocol.frame (Protocol.encode_response resp))

(* Write what the socket will take; true when the buffer is empty. *)
let flush_out st c =
  if c.c_closed then true
  else begin
    let total = Buffer.length c.c_out in
    if c.c_out_off >= total then true
    else begin
      let b = Buffer.to_bytes c.c_out in
      (match
         Unix.write c.c_fd b c.c_out_off (total - c.c_out_off)
       with
      | n ->
        c.c_out_off <- c.c_out_off + n;
        if c.c_out_off >= total then begin
          c.c_out <- Buffer.create 256;
          c.c_out_off <- 0
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ -> close_client st c);
      c.c_closed || c.c_out_off >= Buffer.length c.c_out
    end
  end

let respond_eval st preq =
  let c = preq.p_client in
  c.c_inflight <- c.c_inflight - 1;
  if not c.c_closed then begin
    let outcomes =
      Array.map
        (function
          | Some o -> o
          | None -> Gp.Parmap.Crashed "serve: internal: unresolved task")
        preq.p_outcomes
    in
    enqueue_response c (Protocol.Eval_result { req = preq.p_req; outcomes });
    ignore (flush_out st c)
  end

(* --- Request handling ----------------------------------------------------- *)

let handle_open_study st c (desc : Driver.Study.remote_desc) =
  let key = desc_key desc in
  let id =
    match Hashtbl.find_opt st.study_ids key with
    | Some id -> id
    | None ->
      let id = st.next_study in
      st.next_study <- id + 1;
      Hashtbl.replace st.study_ids key id;
      Hashtbl.replace st.study_descs id desc;
      Logs.info (fun m ->
          m "serve: study %d opened (%s, %d bench%s)" id
            (Driver.Study.kind_name desc.Driver.Study.rd_kind)
            (List.length desc.Driver.Study.rd_benches)
            (if List.length desc.Driver.Study.rd_benches = 1 then "" else "es"));
      id
  in
  enqueue_response c (Protocol.Study_opened { study = id })

let handle_eval st c ~req ~study ~dataset ~(tasks : Protocol.task array) =
  st.st_stats.s_requests <- st.st_stats.s_requests + 1;
  Gp.Telemetry.incr "serve.requests";
  let reject reason =
    st.st_stats.s_rejected <- st.st_stats.s_rejected + 1;
    Gp.Telemetry.incr "serve.rejected";
    enqueue_response c (Protocol.Rejected { req; reason })
  in
  let malformed =
    Array.exists
      (fun (t : Protocol.task) ->
        not (Driver.Shardstore.is_digest t.Protocol.t_digest))
      tasks
  in
  match Hashtbl.find_opt st.study_descs study with
  | None ->
    enqueue_response c
      (Protocol.Server_error (Printf.sprintf "unknown study id %d" study))
  | Some _ when malformed ->
    (* A digest is a store key and goes into the store verbatim: refuse
       the whole request before anything is queued. *)
    enqueue_response c
      (Protocol.Server_error
         "malformed digest: not 32 lowercase hex characters")
  | Some desc ->
    if c.c_inflight >= st.cfg.inflight_cap then reject Protocol.Inflight_cap
    else begin
      (* Count the genuinely new digests first, so a batch that cannot
         fit is rejected whole before anything is enqueued. *)
      let fresh = Hashtbl.create 16 in
      Array.iter
        (fun (t : Protocol.task) ->
          if
            lookup st t.Protocol.t_digest = None
            && (not (Hashtbl.mem st.by_digest t.Protocol.t_digest))
            && not (Hashtbl.mem fresh t.Protocol.t_digest)
          then Hashtbl.add fresh t.Protocol.t_digest ())
        tasks;
      if Queue.length st.queue + Hashtbl.length fresh > st.cfg.queue_cap then
        reject Protocol.Queue_full
      else begin
        c.c_inflight <- c.c_inflight + 1;
        let n = Array.length tasks in
        let preq =
          { p_req = req; p_client = c; p_outcomes = Array.make n None;
            p_remaining = 0 }
        in
        Array.iteri
          (fun i (t : Protocol.task) ->
            match lookup st t.Protocol.t_digest with
            | Some v ->
              st.st_stats.s_store_hits <- st.st_stats.s_store_hits + 1;
              preq.p_outcomes.(i) <- Some (Gp.Parmap.Ok v)
            | None -> (
              preq.p_remaining <- preq.p_remaining + 1;
              match Hashtbl.find_opt st.by_digest t.Protocol.t_digest with
              | Some e ->
                (* Another request (possibly another client's) already
                   queued this digest: one evaluation, many waiters. *)
                st.st_stats.s_coalesced <- st.st_stats.s_coalesced + 1;
                e.e_waiters <- (preq, i) :: e.e_waiters
              | None ->
                let e =
                  {
                    e_digest = t.Protocol.t_digest;
                    e_task =
                      {
                        w_desc = desc;
                        w_dataset = dataset;
                        w_genome = t.Protocol.t_genome;
                        w_case = t.Protocol.t_case;
                      };
                    e_waiters = [ (preq, i) ];
                  }
                in
                Queue.push e st.queue;
                Hashtbl.replace st.by_digest t.Protocol.t_digest e))
          tasks;
        if preq.p_remaining = 0 then respond_eval st preq
      end
    end

let handle_frame st c payload =
  c.c_last <- Unix.gettimeofday ();
  if not c.c_hello then begin
    if payload = Protocol.hello then begin
      c.c_hello <- true;
      enqueue_bytes c (Protocol.frame Protocol.hello_ok);
      ignore (flush_out st c)
    end
    else begin
      Logs.warn (fun m -> m "serve: client %d failed the handshake" c.c_id);
      close_client st c
    end
  end
  else
    match Protocol.decode_request payload with
    | exception Failure msg ->
      enqueue_response c (Protocol.Server_error msg);
      ignore (flush_out st c);
      close_client st c
    | Protocol.Open_study desc -> handle_open_study st c desc
    | Protocol.Eval { req; study; dataset; tasks } ->
      if st.draining then
        enqueue_response c Protocol.Shutting_down
      else handle_eval st c ~req ~study ~dataset ~tasks

(* Peel every complete frame out of the client's inbound buffer. *)
let peel_frames st c =
  let continue = ref true in
  while !continue && not c.c_closed do
    let data = Buffer.to_bytes c.c_in in
    let len = Bytes.length data in
    if len < 4 then continue := false
    else
      match Protocol.decode_len data 0 with
      | exception Failure msg ->
        Logs.warn (fun m -> m "serve: client %d: %s" c.c_id msg);
        close_client st c
      | flen ->
        if (not c.c_hello) && flen > Protocol.max_hello_frame then begin
          Logs.warn (fun m ->
              m "serve: client %d sent a non-handshake first frame" c.c_id);
          close_client st c
        end
        else if len < 4 + flen then continue := false
        else begin
          let payload = Bytes.sub_string data 4 flen in
          Buffer.clear c.c_in;
          Buffer.add_subbytes c.c_in data (4 + flen) (len - 4 - flen);
          handle_frame st c payload
        end
  done

let handle_readable st c =
  let chunk = Bytes.create 65536 in
  let continue = ref true in
  while !continue && not c.c_closed do
    match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
    | 0 ->
      close_client st c;
      continue := false
    | n ->
      Buffer.add_subbytes c.c_in chunk 0 n;
      if n < Bytes.length chunk then continue := false
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> continue := false
    | exception Unix.Unix_error _ ->
      close_client st c;
      continue := false
  done;
  if not c.c_closed then peel_frames st c

(* --- Dispatch ------------------------------------------------------------- *)

let pool_handle st =
  match st.handle with
  | Some h -> h
  | None ->
    let h = Gp.Parmap.create st.cfg.pool ~f:eval_wtask in
    st.handle <- Some h;
    h

(* Drain everything queued into one batch on the shared pool, resolve
   the waiters, persist the results.  Blocking: requests arriving while
   a batch runs wait in the socket buffers and form the next batch. *)
let dispatch st =
  if not (Queue.is_empty st.queue) then begin
    let depth = Queue.length st.queue in
    st.st_stats.s_max_queue <- max st.st_stats.s_max_queue depth;
    Gp.Telemetry.observe "serve.queue_depth" (float_of_int depth);
    let entries = Array.init depth (fun _ -> Queue.pop st.queue) in
    Array.iter (fun e -> Hashtbl.remove st.by_digest e.e_digest) entries;
    (* How many distinct requests share this dispatch: every one past
       the first rode along in a coalesced batch. *)
    let reqs = Hashtbl.create 16 in
    Array.iter
      (fun e ->
        List.iter
          (fun (p, _) ->
            Hashtbl.replace reqs (p.p_client.c_id, p.p_req) ())
          e.e_waiters)
      entries;
    let distinct = Hashtbl.length reqs in
    if distinct > 1 then begin
      st.st_stats.s_batched <- st.st_stats.s_batched + (distinct - 1);
      Gp.Telemetry.incr ~by:(distinct - 1) "serve.batched"
    end;
    st.st_stats.s_dispatches <- st.st_stats.s_dispatches + 1;
    st.st_stats.s_evaluated <- st.st_stats.s_evaluated + depth;
    let outcomes, _pstats =
      Gp.Parmap.run_batch (pool_handle st) (Array.map (fun e -> e.e_task) entries)
    in
    let persist = ref [] in
    Array.iteri
      (fun i e ->
        let outcome =
          match outcomes.(i) with
          | Gp.Parmap.Ok v ->
            (* The evaluator's result policy, applied before storing or
               replying, so the daemon's store holds exactly what a
               local engine would have persisted. *)
            let v = Driver.Evaluator.sanitize v in
            Hashtbl.replace st.mem e.e_digest v;
            if st.store <> None then persist := (e.e_digest, v) :: !persist;
            Gp.Parmap.Ok v
          | (Gp.Parmap.Crashed _ | Gp.Parmap.Timed_out | Gp.Parmap.Gave_up) as f
            ->
            (* Infrastructure faults are forwarded, never stored — the
               same contract as the local engine's cache. *)
            f
        in
        List.iter
          (fun (preq, idx) ->
            preq.p_outcomes.(idx) <- Some outcome;
            preq.p_remaining <- preq.p_remaining - 1;
            if preq.p_remaining = 0 then respond_eval st preq)
          e.e_waiters)
      entries;
    if !persist <> [] then
      Option.iter
        (fun s -> Driver.Shardstore.append s (List.rev !persist))
        st.store
  end

(* --- The accept loop ------------------------------------------------------ *)

let bind_socket path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    (* A socket file is stale if nothing accepts on it: a previous
       daemon that died without unlinking.  Probe with a connect. *)
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let alive =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if alive then
      failwith
        (Printf.sprintf "serve: %s: a daemon is already serving here" path)
    else begin
      Logs.warn (fun m -> m "serve: removing stale socket file %s" path);
      (try Sys.remove path with Sys_error _ -> ())
    end
  | _ ->
    failwith
      (Printf.sprintf "serve: %s exists and is not a socket; refusing" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let accept_clients st listen_fd =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      let id = st.next_client in
      st.next_client <- id + 1;
      let c =
        {
          c_fd = fd;
          c_id = id;
          c_hello = false;
          c_in = Buffer.create 256;
          c_out = Buffer.create 256;
          c_out_off = 0;
          c_inflight = 0;
          c_last = Unix.gettimeofday ();
          c_closed = false;
        }
      in
      Hashtbl.replace st.clients id c
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

let prune_idle st =
  match st.cfg.idle_timeout_s with
  | None -> ()
  | Some limit ->
    let now = Unix.gettimeofday () in
    let stale =
      Hashtbl.fold
        (fun _ c acc ->
          if c.c_inflight = 0 && now -. c.c_last > limit then c :: acc else acc)
        st.clients []
    in
    List.iter
      (fun c ->
        Logs.info (fun m ->
            m "serve: disconnecting idle client %d (quiet for over %gs)"
              c.c_id limit);
        close_client st c)
      stale

let write_metrics st =
  Option.iter
    (fun path ->
      let s = st.st_stats in
      try
        let oc = open_out path in
        Printf.fprintf oc
          "{\"requests\": %d, \"batched\": %d, \"rejected\": %d, \
           \"store_hits\": %d, \"coalesced\": %d, \"evaluated\": %d, \
           \"dispatches\": %d, \"max_queue_depth\": %d}\n"
          s.s_requests s.s_batched s.s_rejected s.s_store_hits s.s_coalesced
          s.s_evaluated s.s_dispatches s.s_max_queue;
        close_out oc
      with Sys_error e ->
        Logs.warn (fun m -> m "serve: metrics not written: %s" e))
    st.cfg.metrics_out

let run ?(stop = fun () -> false) (cfg : config) =
  if cfg.queue_cap < 1 then invalid_arg "Serve.Server.run: queue_cap < 1";
  if cfg.inflight_cap < 1 then invalid_arg "Serve.Server.run: inflight_cap < 1";
  let st =
    {
      cfg;
      store = Option.map Driver.Shardstore.open_store cfg.cache_dir;
      mem = Hashtbl.create 4096;
      clients = Hashtbl.create 16;
      queue = Queue.create ();
      by_digest = Hashtbl.create 256;
      study_ids = Hashtbl.create 4;
      study_descs = Hashtbl.create 4;
      next_study = 1;
      next_client = 1;
      handle = None;
      draining = false;
      st_stats =
        {
          s_requests = 0;
          s_batched = 0;
          s_rejected = 0;
          s_store_hits = 0;
          s_coalesced = 0;
          s_evaluated = 0;
          s_dispatches = 0;
          s_max_queue = 0;
        };
    }
  in
  let listen_fd = bind_socket cfg.socket in
  let stop_flag = ref false in
  let on_signal = Sys.Signal_handle (fun _ -> stop_flag := true) in
  let old_term = Sys.signal Sys.sigterm on_signal in
  let old_int = Sys.signal Sys.sigint on_signal in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Logs.info (fun m -> m "serve: listening on %s" cfg.socket);
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigpipe old_pipe;
      Hashtbl.iter (fun _ c -> try Unix.close c.c_fd with _ -> ()) st.clients;
      Hashtbl.reset st.clients;
      Option.iter Gp.Parmap.shutdown st.handle;
      st.handle <- None;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Sys.remove cfg.socket with Sys_error _ -> ());
      write_metrics st)
    (fun () ->
      let finished = ref false in
      while not !finished do
        if (!stop_flag || stop ()) && not st.draining then begin
          st.draining <- true;
          Logs.info (fun m ->
              m "serve: shutdown requested; draining %d queued task%s"
                (Queue.length st.queue)
                (if Queue.length st.queue = 1 then "" else "s"))
        end;
        let reads =
          (if st.draining then [] else [ listen_fd ])
          @ Hashtbl.fold (fun _ c acc -> c.c_fd :: acc) st.clients []
        in
        let writes =
          Hashtbl.fold
            (fun _ c acc ->
              if Buffer.length c.c_out > c.c_out_off then c.c_fd :: acc
              else acc)
            st.clients []
        in
        (match Unix.select reads writes [] 0.05 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          (* A signal woke us (likely SIGTERM): fall through and recheck
             the flag — never blind-retry the select here. *)
          ()
        | readable, writable, _ ->
          if List.memq listen_fd readable then accept_clients st listen_fd;
          let by_fd fd =
            Hashtbl.fold
              (fun _ c acc -> if c.c_fd == fd then Some c else acc)
              st.clients None
          in
          List.iter
            (fun fd ->
              if fd != listen_fd then
                Option.iter (fun c -> handle_readable st c) (by_fd fd))
            readable;
          List.iter
            (fun fd -> Option.iter (fun c -> ignore (flush_out st c)) (by_fd fd))
            writable);
        prune_idle st;
        (* Everything that arrived this pass — from however many
           clients — drains as one pool batch. *)
        dispatch st;
        if st.draining && Queue.is_empty st.queue then begin
          (* Flush the remaining responses with a short deadline, then
             leave: the queue is drained and answered. *)
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec flush_all () =
            let dirty =
              Hashtbl.fold
                (fun _ c acc -> if flush_out st c then acc else c.c_fd :: acc)
                st.clients []
            in
            if dirty <> [] && Unix.gettimeofday () < deadline then begin
              (match Unix.select [] dirty [] 0.2 with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | _ -> ());
              flush_all ()
            end
          in
          flush_all ();
          finished := true
        end
      done;
      Logs.info (fun m ->
          m "serve: drained; %d request(s) served, %d evaluated, %d rejected"
            st.st_stats.s_requests st.st_stats.s_evaluated
            st.st_stats.s_rejected))
