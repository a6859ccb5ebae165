(* Tests for the [metaopt serve] daemon and its protocol: shared work
   across clients (colliding digests evaluated once, everyone gets the
   same bits), typed backpressure (queue-full and in-flight-cap
   rejections), graceful SIGTERM drain (an outstanding request is still
   answered, the socket is unlinked, the store reopens clean),
   stale-socket recovery at bind time, and the served_vs_local oracle's
   registration.  The daemon runs in a forked child per test; everything
   here needs the fork backend and is skipped without it. *)

module P = Serve.Protocol

let with_dir tag f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "metaopt-serve-%s-%d" tag (Unix.getpid ()))
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

let have_fork = List.mem `Fork (Gp.Parmap.capabilities ())

(* The study shape every test serves: cheap, deterministic, real. *)
let desc =
  {
    Driver.Study.rd_kind = Driver.Study.Hyperblock_study;
    rd_benches = [ "codrle4" ];
    rd_machine = Machine.Config.table3;
    rd_fast_sim = true;
    rd_compiled_eval = true;
  }

let genome = Driver.Study.baseline_genome_of Driver.Study.Hyperblock_study

let task digest = { P.t_digest = digest; t_genome = genome; t_case = 0 }

(* The store's strict loader only accepts 32-hex-char digest keys;
   anything else would be evicted on reload. *)
let dg n = Printf.sprintf "%032x" n

(* --- daemon child + raw client plumbing --------------------------------- *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fork_daemon ~dir ?(configure = fun c -> c) ?chaos_plan () =
  let socket = Filename.concat dir "sock" in
  match Unix.fork () with
  | 0 ->
    (try
       (match chaos_plan with
       | Some spec -> (
         match Gp.Chaos.plan_of_string spec with
         | Ok p -> Gp.Chaos.arm p
         | Error msg -> failwith msg)
       | None -> ());
       Serve.Server.run (configure (Serve.Server.default_config ~socket));
       Unix._exit 0
     with e ->
       (* Leave the reason where the parent's failure message points. *)
       (try
          let oc = open_out (Filename.concat dir "daemon-error") in
          output_string oc (Printexc.to_string e);
          close_out oc
        with _ -> ());
       Unix._exit 1)
  | pid -> (socket, pid)

let wait_for_daemon ~socket ~pid =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec poll () =
    let up =
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match
            Gp.Parmap.retry_eintr (fun () ->
                Unix.connect fd (Unix.ADDR_UNIX socket))
          with
          | () -> true
          | exception Unix.Unix_error _ -> false)
    in
    if not up then begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _, status ->
        let err = Filename.concat (Filename.dirname socket) "daemon-error" in
        let reason =
          if Sys.file_exists err then read_file err else "no reason recorded"
        in
        Alcotest.fail
          (Printf.sprintf "daemon child died before listening (%s): %s"
             (match status with
             | Unix.WEXITED n -> Printf.sprintf "exit %d" n
             | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
             | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)
             reason));
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "daemon did not come up within 30s";
      ignore (Unix.select [] [] [] 0.05);
      poll ()
    end
  in
  poll ()

let stop_daemon ~socket ~pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status =
    try snd (Gp.Parmap.retry_eintr (fun () -> Unix.waitpid [] pid))
    with Unix.Unix_error _ -> Unix.WEXITED 0
  in
  Alcotest.(check bool)
    "daemon exits cleanly on SIGTERM" true
    (status = Unix.WEXITED 0);
  Alcotest.(check bool) "socket unlinked on exit" false (Sys.file_exists socket)

let with_daemon ~dir ?configure ?chaos_plan f =
  let socket, pid = fork_daemon ~dir ?configure ?chaos_plan () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Gp.Parmap.retry_eintr (fun () -> Unix.waitpid [] pid))
      with Unix.Unix_error _ -> ())
  @@ fun () ->
  wait_for_daemon ~socket ~pid;
  f ~socket ~pid

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Gp.Parmap.retry_eintr (fun () -> Unix.connect fd (Unix.ADDR_UNIX socket));
  P.client_handshake fd;
  fd

let open_study fd =
  P.send_request fd (P.Open_study desc);
  match P.read_response fd with
  | P.Study_opened { study } -> study
  | _ -> Alcotest.fail "expected Study_opened"

let eval_ok fd ~req ~study digests =
  P.send_request fd
    (P.Eval
       {
         req;
         study;
         dataset = Benchmarks.Bench.Train;
         tasks = Array.of_list (List.map task digests);
       });
  match P.read_response fd with
  | P.Eval_result { req = r; outcomes } ->
    Alcotest.(check int) "response correlates to the request" req r;
    Array.map
      (function
        | Gp.Parmap.Ok v -> v
        | _ -> Alcotest.fail "expected an Ok outcome")
      outcomes
  | P.Rejected _ -> Alcotest.fail "unexpected rejection"
  | _ -> Alcotest.fail "expected Eval_result"

(* Pull one integer counter out of the daemon's one-line JSON metrics
   summary. *)
let metric json key =
  let pat = Printf.sprintf "\"%s\": " key in
  let rec find i =
    if i + String.length pat > String.length json then
      Alcotest.fail (Printf.sprintf "metric %s not in %s" key json)
    else if String.sub json i (String.length pat) = pat then begin
      let j = ref (i + String.length pat) in
      let start = !j in
      while
        !j < String.length json
        && json.[!j] >= '0'
        && json.[!j] <= '9'
      do
        incr j
      done;
      int_of_string (String.sub json start (!j - start))
    end
    else find (i + 1)
  in
  find 0

let bits = Int64.bits_of_float

(* --- shared work across clients ------------------------------------------ *)

(* Two clients whose batches collide on a digest: the daemon evaluates
   each distinct digest exactly once (the second client is served from
   memory, the store, or a coalesced queue entry — which one depends on
   arrival timing, but the sum is invariant), both see bit-identical
   values, and after a SIGTERM drain the store holds exactly the union. *)
let test_shared_work () =
  if have_fork then
    with_dir "shared" @@ fun dir ->
    let cache = Filename.concat dir "cache" in
    let metrics = Filename.concat dir "metrics.json" in
    let da = dg 0xa and db = dg 0xb and dc = dg 0xc in
    let va, vb, va', vc =
      with_daemon ~dir
        ~configure:(fun c ->
          { c with Serve.Server.cache_dir = Some cache;
            metrics_out = Some metrics })
        (fun ~socket ~pid ->
          let a = connect socket in
          let b = connect socket in
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
                [ a; b ])
          @@ fun () ->
          let sa = open_study a in
          let sb = open_study b in
          Alcotest.(check int) "same description, same study id" sa sb;
          let ra = eval_ok a ~req:1 ~study:sa [ da; db ] in
          let rb = eval_ok b ~req:1 ~study:sb [ da; dc ] in
          stop_daemon ~socket ~pid;
          (ra.(0), ra.(1), rb.(0), rb.(1)))
    in
    Alcotest.(check bool) "speedups are positive" true (va > 0.0 && vb > 0.0);
    Alcotest.(check int64) "colliding digest: identical bits" (bits va)
      (bits va');
    let json = read_file metrics in
    Alcotest.(check int) "both requests counted" 2 (metric json "requests");
    Alcotest.(check int) "three distinct digests evaluated once each" 3
      (metric json "evaluated");
    Alcotest.(check int) "the collision was shared, not recomputed" 1
      (metric json "store_hits" + metric json "coalesced");
    Alcotest.(check int) "nothing rejected" 0 (metric json "rejected");
    (* The drained store holds exactly the union of both clients' work
       and reopens without a single eviction. *)
    let s = Driver.Shardstore.open_store cache in
    Alcotest.(check int) "no evictions on reload" 0
      (Driver.Shardstore.evictions s);
    List.iter
      (fun (d, v) ->
        match Driver.Shardstore.find s d with
        | Some got ->
          Alcotest.(check int64)
            (Printf.sprintf "store holds %s" d)
            (bits v) (bits got)
        | None -> Alcotest.fail (Printf.sprintf "store lost %s" d))
      [ (da, va); (db, vb); (dc, vc) ]

(* --- typed backpressure --------------------------------------------------- *)

(* A batch whose fresh digests cannot fit is rejected whole — before
   anything is enqueued — and a batch that fits still succeeds
   afterwards. *)
let test_queue_full () =
  if have_fork then
    with_dir "qfull" @@ fun dir ->
    with_daemon ~dir
      ~configure:(fun c -> { c with Serve.Server.queue_cap = 2 })
      (fun ~socket ~pid:_ ->
        let fd = connect socket in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        let study = open_study fd in
        P.send_request fd
          (P.Eval
             {
               req = 7;
               study;
               dataset = Benchmarks.Bench.Train;
               tasks = Array.of_list (List.map task [ dg 0x11; dg 0x12; dg 0x13 ]);
             });
        (match P.read_response fd with
        | P.Rejected { req; reason = P.Queue_full } ->
          Alcotest.(check int) "rejection correlates to the request" 7 req
        | _ -> Alcotest.fail "expected Rejected Queue_full");
        (* Nothing was half-enqueued: a batch that fits runs fine. *)
        let r = eval_ok fd ~req:8 ~study [ dg 0x11; dg 0x12 ] in
        Alcotest.(check int) "full batch answered" 2 (Array.length r))

(* A second request pipelined past the in-flight cap is rejected while
   the first still completes.  Both frames go out in one write so the
   daemon reads them in one pass, before any dispatch. *)
let test_inflight_cap () =
  if have_fork then
    with_dir "inflight" @@ fun dir ->
    with_daemon ~dir
      ~configure:(fun c -> { c with Serve.Server.inflight_cap = 1 })
      (fun ~socket ~pid:_ ->
        let fd = connect socket in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        let study = open_study fd in
        let frame_of req digest =
          Bytes.to_string
            (P.frame
               (P.encode_request
                  (P.Eval
                     {
                       req;
                       study;
                       dataset = Benchmarks.Bench.Train;
                       tasks = [| task digest |];
                     })))
        in
        let both = frame_of 1 (dg 0x21) ^ frame_of 2 (dg 0x22) in
        let b = Bytes.of_string both in
        let off = ref 0 in
        while !off < Bytes.length b do
          off :=
            !off
            + Gp.Parmap.retry_eintr (fun () ->
                  Unix.write fd b !off (Bytes.length b - !off))
        done;
        let r1 = P.read_response fd in
        let r2 = P.read_response fd in
        let rejected, answered =
          match (r1, r2) with
          | P.Rejected _, _ -> (r1, r2)
          | _, P.Rejected _ -> (r2, r1)
          | _ -> Alcotest.fail "expected one Rejected response"
        in
        (match rejected with
        | P.Rejected { req; reason = P.Inflight_cap } ->
          Alcotest.(check int) "the pipelined request was rejected" 2 req
        | _ -> Alcotest.fail "expected Rejected Inflight_cap");
        match answered with
        | P.Eval_result { req; outcomes } ->
          Alcotest.(check int) "the first request was answered" 1 req;
          Alcotest.(check int) "with its one outcome" 1 (Array.length outcomes)
        | _ -> Alcotest.fail "expected Eval_result for the first request")

(* --- graceful drain -------------------------------------------------------- *)

(* SIGTERM while a request is mid-evaluation (a chaos nap keeps the
   worker busy well past the signal): the daemon finishes the batch,
   answers, persists, unlinks the socket and exits 0. *)
let test_sigterm_drains () =
  if have_fork then
    with_dir "drain" @@ fun dir ->
    let cache = Filename.concat dir "cache" in
    let v =
      with_daemon ~dir
        ~configure:(fun c -> { c with Serve.Server.cache_dir = Some cache })
        ~chaos_plan:"parmap.task:0@1=slow:0.3"
        (fun ~socket ~pid ->
          let fd = connect socket in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
          @@ fun () ->
          let study = open_study fd in
          P.send_request fd
            (P.Eval
               {
                 req = 1;
                 study;
                 dataset = Benchmarks.Bench.Train;
                 tasks = [| task (dg 0x31) |];
               });
          (* Give the daemon one loop pass to accept the request, then
             signal while the napping worker still holds the batch. *)
          ignore (Unix.select [] [] [] 0.15);
          Unix.kill pid Sys.sigterm;
          let v =
            match P.read_response fd with
            | P.Eval_result { req = 1; outcomes = [| Gp.Parmap.Ok v |] } -> v
            | _ -> Alcotest.fail "drain must answer the outstanding request"
          in
          let status =
            snd (Gp.Parmap.retry_eintr (fun () -> Unix.waitpid [] pid))
          in
          Alcotest.(check bool)
            "daemon exits cleanly after the drain" true
            (status = Unix.WEXITED 0);
          Alcotest.(check bool)
            "socket unlinked" false (Sys.file_exists socket);
          v)
    in
    let s = Driver.Shardstore.open_store cache in
    Alcotest.(check int) "drained store reopens clean" 0
      (Driver.Shardstore.evictions s);
    match Driver.Shardstore.find s (dg 0x31) with
    | Some got ->
      Alcotest.(check int64) "drained result persisted" (bits v) (bits got)
    | None -> Alcotest.fail "drained result missing from the store"

(* --- dropped clients see EOF ------------------------------------------------ *)

(* Client B is connected (and accepted) before client A's first Eval
   spawns the daemon's pool, so the forked workers start life with B's
   connection among the daemon's descriptors.  When the daemon prunes
   the idle B, B must see its connection close: a worker still holding
   the socket would keep it open for as long as the pool lives. *)
let test_pruned_client_sees_eof () =
  if have_fork then
    with_dir "prune" @@ fun dir ->
    let idle = 0.5 in
    with_daemon ~dir
      ~configure:(fun c -> { c with Serve.Server.idle_timeout_s = Some idle })
      (fun ~socket ~pid:_ ->
        let b = connect socket in
        let a = connect socket in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
              [ a; b ])
        @@ fun () ->
        let study = open_study a in
        (* B's last word comes just before A's Eval, so B is still
           connected when the daemon reads that Eval and spawns its pool
           in the same pass. *)
        ignore (open_study b);
        ignore (eval_ok a ~req:1 ~study [ dg 0x41 ]);
        (* B has been quiet since; the daemon drops it within one idle
           timeout plus a loop pass. *)
        let deadline = Unix.gettimeofday () +. idle +. 1.0 in
        let buf = Bytes.create 64 in
        let rec await_eof () =
          let left = deadline -. Unix.gettimeofday () in
          if left <= 0.0 then
            Alcotest.fail "pruned client never saw its connection close"
          else
            match Unix.select [ b ] [] [] left with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> await_eof ()
            | [], _, _ -> await_eof ()
            | _ -> (
              match Unix.read b buf 0 (Bytes.length buf) with
              | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> ()
              | _ -> Alcotest.fail "pruned client got data instead of EOF")
        in
        await_eof ())

(* --- stale sockets ---------------------------------------------------------- *)

let test_stale_socket () =
  if have_fork then begin
    (* A leftover socket file with no listener: the daemon removes it,
       binds, and unlinks again on exit. *)
    with_dir "stale" @@ fun dir ->
    let socket = Filename.concat dir "sock" in
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX socket);
    Unix.close fd;
    Alcotest.(check bool) "stale socket file exists" true
      (Sys.file_exists socket);
    Serve.Server.run ~stop:(fun () -> true)
      (Serve.Server.default_config ~socket);
    Alcotest.(check bool) "stale socket replaced then unlinked" false
      (Sys.file_exists socket);
    (* A live daemon on the path: a second daemon must refuse, and must
       not unlink the live socket. *)
    with_daemon ~dir (fun ~socket ~pid:_ ->
        (match
           Serve.Server.run ~stop:(fun () -> true)
             (Serve.Server.default_config ~socket)
         with
        | () -> Alcotest.fail "second daemon must refuse a live socket"
        | exception Failure _ -> ());
        Alcotest.(check bool) "live socket left in place" true
          (Sys.file_exists socket);
        let fd = connect socket in
        Unix.close fd)
  end

(* --- malformed digests ------------------------------------------------------- *)

(* A client's digest becomes a store key verbatim, so the daemon refuses
   any request carrying one that is not 32 lowercase hex characters with
   [Server_error], queueing nothing — not even the request's valid tasks.
   An empty digest used to kill the daemon in the store's shard lookup;
   one carrying a newline used to write a forged line the store then
   loaded as an answer for a digest no one evaluated.  The daemon keeps
   serving, and its store holds only what it evaluated. *)
let test_malformed_digests () =
  if have_fork then
    with_dir "digest" @@ fun dir ->
    let cache = Filename.concat dir "cache" in
    let forged = dg 0x77 ^ " 0x1.8p+1\n" ^ dg 0x78 in
    with_daemon ~dir
      ~configure:(fun c -> { c with Serve.Server.cache_dir = Some cache })
      (fun ~socket ~pid ->
        let fd = connect socket in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        let study = open_study fd in
        List.iteri
          (fun req bad ->
            P.send_request fd
              (P.Eval
                 {
                   req;
                   study;
                   dataset = Benchmarks.Bench.Train;
                   tasks = [| task (dg 0x79); task bad |];
                 });
            match P.read_response fd with
            | P.Server_error _ -> ()
            | _ -> Alcotest.failf "malformed digest %S was not refused" bad
            | exception End_of_file ->
              Alcotest.failf "daemon dropped the connection on digest %S" bad)
          [ ""; forged ];
        let r = eval_ok fd ~req:9 ~study [ dg 0x7a ] in
        Alcotest.(check int) "a valid request is still answered" 1
          (Array.length r);
        stop_daemon ~socket ~pid);
    let s = Driver.Shardstore.open_store cache in
    Alcotest.(check int) "no evictions on reload" 0
      (Driver.Shardstore.evictions s);
    List.iter
      (fun d ->
        Alcotest.(check bool)
          (Printf.sprintf "store holds nothing for %s" d)
          true
          (Driver.Shardstore.find s d = None))
      [ dg 0x77; dg 0x78; dg 0x79 ];
    Alcotest.(check bool) "the valid request was persisted" true
      (Driver.Shardstore.find s (dg 0x7a) <> None)

(* --- oracle registration ---------------------------------------------------- *)

let test_oracle_registered () =
  Alcotest.(check bool)
    "served_vs_local is registered" true
    (Fuzz.Oracle.find "served_vs_local" <> None);
  Alcotest.(check int) "nine oracles" 9 (List.length Fuzz.Oracle.names)

let suite =
  [
    Alcotest.test_case "shared work across clients" `Slow test_shared_work;
    Alcotest.test_case "queue-full rejection" `Slow test_queue_full;
    Alcotest.test_case "in-flight cap rejection" `Slow test_inflight_cap;
    Alcotest.test_case "SIGTERM drains and persists" `Slow test_sigterm_drains;
    Alcotest.test_case "stale and live sockets" `Slow test_stale_socket;
    Alcotest.test_case "pruned client sees EOF" `Slow
      test_pruned_client_sees_eof;
    Alcotest.test_case "malformed digests refused" `Slow
      test_malformed_digests;
    Alcotest.test_case "served_vs_local oracle registered" `Quick
      test_oracle_registered;
  ]
