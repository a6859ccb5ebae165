(* End-to-end benchmark of metaopt studies.

   A user of this system waits for whole studies: set-up (prepare the
   benchmarks, measure the baselines, open the store), then generations
   of fitness evaluations, then the final train/novel measurement.  Each
   workload below is one such study shape, driven through the public
   API only and checked for correct results.

     dune exec e2ebench/e2e.exe                     # all workloads: 3 timed
                                                    # runs + 1 traced run each
     dune exec e2ebench/e2e.exe -- --workload pf-dss --seed 7 --seconds 20 --trace 0
     dune exec e2ebench/e2e.exe -- --reference      # recompute the pinned digests
     dune exec e2ebench/e2e.exe -- --smoke          # tiny sizes, schema + replay

   One run ([--workload]) repeats rounds of its workload for [--seconds]
   and prints, as its last stdout line, one JSON object: [correct],
   [attempted] and [failed] evaluations, and [metrics] — the end-to-end
   metrics with [--trace 0], the per-layer ledger with [--trace 1].
   See README.md for the metric definitions. *)

module Study = Driver.Study
module Evaluator = Driver.Evaluator
module J = Gp.Telemetry

let now = Unix.gettimeofday
let say fmt = Printf.ksprintf (fun s -> prerr_endline s) fmt

(* --- Workloads ------------------------------------------------------------ *)

type shape =
  | Local of { backend : Gp.Parmap.backend; jobs : int }
  | Stored of { reruns : int }  (* `Seq -j1 over a fresh shard store *)
  | Served of { clients : int; per_client : int }

type workload = {
  name : string;
  kind : Study.kind;
  benches : string list;
  pop : int;
  gens : int;
  shape : shape;
}

let served_benches = [ "codrle4"; "decodrle4"; "rawcaudio"; "huff_enc" ]

(* Why each workload is here is recorded in BENCHMARK.json and README.md. *)
let workloads =
  [
    { name = "pf-dss"; kind = Study.Prefetch_study;
      benches = Benchmarks.Registry.prefetch_train; pop = 40; gens = 10;
      shape = Local { backend = `Seq; jobs = 1 } };
    { name = "sched-dss-j2"; kind = Study.Sched_study;
      benches = Benchmarks.Registry.hyperblock_train; pop = 48; gens = 6;
      shape = Local { backend = `Fork; jobs = 2 } };
    { name = "hb-store"; kind = Study.Hyperblock_study;
      benches = Benchmarks.Registry.hyperblock_train; pop = 24; gens = 6;
      shape = Stored { reruns = 2 } };
    { name = "serve-2c"; kind = Study.Hyperblock_study;
      benches = served_benches; pop = 40; gens = 12;
      shape = Served { clients = 2; per_client = 2 } };
  ]

let smoke_sized w =
  {
    w with
    pop = 8;
    gens = 2;
    benches = List.filteri (fun i _ -> i < 3) w.benches;
    shape =
      (match w.shape with
      | Stored _ -> Stored { reruns = 1 }
      | Served s -> Served { s with per_client = 1 }
      | Local _ as l -> l);
  }

(* Result digests of round 0 at a seed, produced by [--reference] on the
   golden slow path. *)
let pins =
  [
    ((42, "pf-dss"), "b58ef9fc8ad0d8eaa508a76d5df55096");
    ((42, "sched-dss-j2"), "d5b36a4a1bb0710c4e75f134fa2fab3d");
    ((42, "hb-store"), "579879d0f15e6f8db404aaa898e019af");
    ((42, "serve-2c"), "cd595eb2b5e54401b55e9a05be0a1a08");
  ]

(* --- Metric tables -------------------------------------------------------- *)

let end_to_end =
  [
    ("setup_s", "s"); ("study_s", "s"); ("requests_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("train_speedup", "x"); ("novel_speedup", "x");
  ]

let per_layer =
  [
    ("gp.self_s", "s"); ("gp.genomes", "count");
    ("simplify.s", "s"); ("simplify.calls", "count");
    ("simplify.unique_ratio", "ratio");
    ("evaluator.busy_s", "s"); ("evaluator.self_s", "s");
    ("evaluator.batches", "count"); ("evaluator.requests", "count");
    ("evaluator.memo_hits", "count"); ("evaluator.disk_hits", "count");
    ("evaluator.misses", "count"); ("evaluator.hit_ratio", "ratio");
    ("evaluator.evaluations", "count"); ("evaluator.evals_per_s", "1/s");
    ("evaluator.faults", "count");
    ("evaluator.fault_rate", "ratio");
    ("shardstore.open_s", "s"); ("shardstore.find_us", "us");
    ("shardstore.bytes", "bytes"); ("shardstore.evictions", "count");
    ("shardstore.write_errors", "count"); ("shardstore.rerun_s", "s");
    ("frontend.s", "s"); ("opt.s", "s"); ("profile.layout_s", "s");
    ("profile.collect_s", "s"); ("study.baseline_s", "s");
    ("compile.s", "s"); ("prefetch.insert_s", "s");
    ("hyperblock.form_s", "s"); ("regalloc.alloc_s", "s");
    ("sched.list_s", "s"); ("compile.layout_s", "s");
    ("compile.candidates", "count"); ("regalloc.spills", "count");
    ("prefetch.inserted", "count");
    ("simcache.artifact_hits", "count"); ("simcache.replays", "count");
    ("simcache.simulations", "count"); ("simcache.hit_ratio", "ratio");
    ("simcache.hit_s", "s"); ("simulate.s", "s");
    ("simulate.minstr_per_s", "Minstr/s"); ("simulate.replay_s", "s");
    ("simulate.dynamic_instrs", "count");
    ("study.close_s", "s"); ("parmap.pool_spawn_s", "s");
    ("parmap.task_s_p50", "s"); ("parmap.queue_wait_s_p50", "s");
    ("parmap.dispatch_s", "s"); ("parmap.chunk_size_p50", "count");
    ("parmap.steals", "count"); ("parmap.retries", "count");
    ("client.requests", "count"); ("client.tasks_per_request", "count");
    ("client.rtt_ms_p50", "ms"); ("client.rtt_ms_p90", "ms");
    ("serve.requests", "count"); ("serve.batched", "count");
    ("serve.coalesced", "count"); ("serve.store_hits", "count");
    ("serve.evaluated", "count"); ("serve.dispatches", "count");
    ("serve.max_queue_depth", "count"); ("serve.rejected", "count");
    ("study.train_speedup", "x"); ("study.novel_speedup", "x");
    ("trace.overhead_ratio", "ratio"); ("trace.unattributed_ratio", "ratio");
  ]

(* --- Small utilities ------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let json_of_file path =
  match J.json_of_string (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let num = function
  | Some (J.Int i) -> float_of_int i
  | Some (J.Float f) -> f
  | _ -> 0.0

let rec path_num keys j =
  match keys with
  | [] -> num (Some j)
  | k :: rest -> (
    match J.member k j with Some v -> path_num rest v | None -> 0.0)

(* Peak resident set of this process, in kB. *)
let vm_hwm_kb () =
  match
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  with
  | Some kb -> kb
  | None -> failwith "no VmHWM in /proc/self/status"

let digest_of ~best_expr ~rows ~(history : Gp.Evolve.generation_stats list) =
  let b = Buffer.create 4096 in
  let f x = Printf.bprintf b "%Lx " (Int64.bits_of_float x) in
  Buffer.add_string b best_expr;
  List.iter
    (fun (n, t, v) ->
      Printf.bprintf b "\n%s " n;
      f t;
      f v)
    rows;
  List.iter
    (fun (h : Gp.Evolve.generation_stats) ->
      Printf.bprintf b "\n%d " h.gen;
      f h.best_fitness;
      f h.mean_fitness;
      Printf.bprintf b "%d %s %s" h.best_size
        (String.concat "," (List.map string_of_int h.subset))
        h.best_expr)
    history;
  Digest.to_hex (Digest.string (Buffer.contents b))

let combine = function
  | [ d ] -> d
  | ds -> Digest.to_hex (Digest.string (String.concat "" ds))

(* --- One study ------------------------------------------------------------ *)

let params w seed =
  { Gp.Params.scaled with population_size = w.pop; generations = w.gens;
    rng_seed = seed }

let config w ~seed =
  let backend, jobs =
    match w.shape with
    | Local l -> (l.backend, l.jobs)
    | Stored _ | Served _ -> (`Seq, 1)
  in
  { Study.default_config with params = params w seed; backend; jobs }

type study = {
  inputs : Replay.inputs option;  (* traced runs only *)
  create_span : int;
  digest : string;
  best : Gp.Expr.genome;
  rows : (string * float * float) list;
  created_at : float;
  setup_s : float;
  study_s : float;
  evals : int;
  cache : Evaluator.cache_stats;  (* both dataset engines *)
  faults : int;
  retried : int;
  batches : Replay.batch list;  (* traced runs only, in call order *)
  genomes : int;  (* submitted by the evolution loop *)
}

(* create_with -> Evolve.run -> train/novel rows -> close, timing the
   set-up and the whole study; with tracing on, each call is a live span.
   [lock] serializes context creation across client threads: the
   optimizer's clone counters are process-global. *)
let run_study ?lock w cfg =
  let log = ref [] and genomes = ref 0 in
  Spans.with_ ~parent:0 "study" (fun root ->
      let t0 = now () in
      let create_span = ref 0 in
      let ctx =
        Spans.with_ ~parent:root "Study.create_with" (fun id ->
            create_span := id;
            let create () = Study.create_with cfg w.kind w.benches in
            match lock with Some m -> Mutex.protect m create | None -> create ())
      in
      let t1 = now () in
      let call ~parent dataset ev gs ~cases =
        Spans.with_ ~parent "Evaluator.evaluate_batch" (fun span ->
            let rows = Evaluator.evaluate_batch ev gs ~cases in
            if !Spans.on then
              log := { Replay.span; dataset; genomes = gs; cases; rows } :: !log;
            rows)
      in
      let r =
        Spans.with_ ~parent:root "Gp.Evolve.run" (fun id ->
            let p = Study.problem_of ctx in
            let evaluate_batch gs ~cases =
              genomes := !genomes + Array.length gs;
              call ~parent:id Benchmarks.Bench.Train ctx.eval_train gs ~cases
            in
            Gp.Evolve.run ~params:cfg.params
              { p with evaluator = { p.evaluator with evaluate_batch } })
      in
      let cases = List.init (Array.length ctx.prepared) Fun.id in
      let row dataset ev =
        (call ~parent:root dataset ev [| r.best |] ~cases).(0)
      in
      let train = row Benchmarks.Bench.Train ctx.eval_train in
      let novel = row Benchmarks.Bench.Novel ctx.eval_novel in
      Spans.with_ ~parent:root "Study.close" (fun _ -> Study.close ctx);
      let t2 = now () in
      let rows =
        List.map
          (fun i ->
            ( ctx.prepared.(i).Driver.Compiler.bench.Benchmarks.Bench.name,
              train.(i), novel.(i) ))
          cases
      in
      let best_expr =
        Gp.Sexp.to_string (Study.feature_set_of w.kind) (Gp.Simplify.genome r.best)
      in
      let f = Study.faults ctx in
      let c1 = Evaluator.cache_stats ctx.eval_train
      and c2 = Evaluator.cache_stats ctx.eval_novel in
      {
        inputs = (if !Spans.on then Some (Replay.inputs_of ctx) else None);
        create_span = !create_span;
        digest = digest_of ~best_expr ~rows ~history:r.history;
        best = r.best;
        rows;
        created_at = t1;
        setup_s = t1 -. t0;
        study_s = t2 -. t0;
        evals =
          Evaluator.evaluations ctx.eval_train + Evaluator.evaluations ctx.eval_novel;
        cache =
          {
            memo_hits = c1.memo_hits + c2.memo_hits;
            disk_hits = c1.disk_hits + c2.disk_hits;
            misses = c1.misses + c2.misses;
          };
        faults = Evaluator.total_faults f;
        retried = f.retried;
        batches = List.rev !log;
        genomes = !genomes;
      })

(* --- Rounds --------------------------------------------------------------- *)

(* One unit of a workload: a study, a cold study plus its warm reruns
   over one store, or the served clients' studies against one daemon. *)
type round = {
  studies : study list;  (* in seed order *)
  digest : string;
  setups : float list;
  study_s : float;  (* the study, or the served makespan *)
  study_setup_s : float;  (* the set-up inside [study_s] *)
  wall_s : float;  (* everything the round timed *)
  evals : int;  (* fresh evaluations *)
  requests : int;  (* (genome, case) fitness requests inside [study_s] *)
  reruns : float list;
  rtt_ms : float list;
  rtt_tasks : int;
  daemon : J.json;  (* served: the daemon's counters, registry and VmHWM *)
  store : string option;
  errors : string list;
}

let round_seed ~seed r = seed + (7919 * r)

let requests (s : study) =
  s.cache.Evaluator.memo_hits + s.cache.disk_hits + s.cache.misses

let local_round w ~seed =
  let s = run_study w (config w ~seed) in
  {
    studies = [ s ]; digest = s.digest; setups = [ s.setup_s ];
    study_s = s.study_s; study_setup_s = s.setup_s; wall_s = s.study_s;
    evals = s.evals; requests = requests s; reruns = []; rtt_ms = [];
    rtt_tasks = 0; daemon = J.Null;
    store = None; errors = [];
  }

let stored_round w ~reruns ~seed ~out =
  let dir = Filename.concat out (Printf.sprintf "store-%d" (Unix.getpid ())) in
  rm_rf dir;
  let cfg = { (config w ~seed) with cache_dir = Some dir } in
  let cold = run_study w cfg in
  let warm = List.init reruns (fun _ -> run_study w cfg) in
  let errors =
    List.concat_map
      (fun (s : study) ->
        (if s.digest <> cold.digest then [ "warm rerun digest differs from cold" ]
         else [])
        @ if s.evals <> 0 then [ "warm rerun evaluated candidates" ] else [])
      warm
  in
  {
    studies = cold :: warm; digest = cold.digest;
    setups = List.map (fun (s : study) -> s.setup_s) (cold :: warm);
    study_s = cold.study_s; study_setup_s = cold.setup_s;
    wall_s = Stats.sum (List.map (fun (s : study) -> s.study_s) (cold :: warm));
    evals = cold.evals;
    requests = requests cold;
    reruns = List.map (fun (s : study) -> s.study_s) warm;
    rtt_ms = []; rtt_tasks = 0; daemon = J.Null; store = Some dir; errors;
  }

(* Served rounds.  Every Eval round trip of the client is timed through
   the dialer, including the client's own backoff on rejection. *)
let rtts : (float * int) list ref = ref []
let rtt_lock = Mutex.create ()

let install_timed_dialer () =
  Study.set_remote_dialer (fun ~socket desc ->
      let h = Serve.Client.dial ~socket desc in
      {
        h with
        Study.rh_eval =
          (fun dataset ->
            let eval = h.Study.rh_eval dataset in
            fun batch ->
              let t0 = now () in
              let r = eval batch in
              let dt = now () -. t0 in
              Mutex.protect rtt_lock (fun () ->
                  rtts := (dt, Array.length batch) :: !rtts);
              r);
      })

(* The daemon is this executable rerun with [--daemon SOCKET]: a fresh
   process, so its peak RSS is its own.  At exit it leaves its counters in
   [SOCKET.counters.json] and its telemetry registry and peak RSS in
   [SOCKET.info.json]. *)
let daemon_main ~socket ~traced =
  if traced then begin
    let sink, _ = J.memory_sink () in
    J.set_sink (Some sink)
  end;
  Serve.Server.run
    {
      (Serve.Server.default_config ~socket) with
      metrics_out = Some (socket ^ ".counters.json");
    };
  let info =
    J.Obj
      [ ("registry", J.registry_json ()); ("vm_hwm_kb", J.Int (vm_hwm_kb ())) ]
  in
  Out_channel.with_open_bin (socket ^ ".info.json") (fun oc ->
      output_string oc (J.json_to_string info))

let wait_listening pid socket =
  let deadline = now () +. 30.0 in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "daemon exited before listening");
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if now () > deadline then failwith "daemon never listened";
      Unix.sleepf 0.005;
      go ()
  in
  go ()

let served_round w ~clients ~per_client ~seed ~out ~traced =
  let socket = Printf.sprintf "%s/d%d.sock" out (Unix.getpid ()) in
  let counters = socket ^ ".counters.json" and info = socket ^ ".info.json" in
  List.iter rm_rf [ socket; counters; info ];
  Mutex.protect rtt_lock (fun () -> rtts := []);
  let t0 = now () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--daemon"; socket; "--trace"; (if traced then "1" else "0") |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let stop_daemon () =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    match Gp.Parmap.retry_eintr (fun () -> Unix.waitpid [] pid) with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "daemon did not exit cleanly"
  in
  let studies, t_end =
    Fun.protect
      ~finally:(fun () -> try stop_daemon () with Failure _ -> ())
      (fun () ->
        wait_listening pid socket;
        let lock = Mutex.create () in
        let results = Array.make clients (Error Not_found) in
        let client c () =
          results.(c) <-
            (try
               Ok
                 (List.init per_client (fun i ->
                      let seed = seed + (c * per_client) + i in
                      run_study ~lock w
                        { (config w ~seed) with remote = Some socket }))
             with e -> Error e)
        in
        let threads = List.init clients (fun c -> Thread.create (client c) ()) in
        List.iter Thread.join threads;
        let t_end = now () in
        ( List.concat_map
            (function Ok ss -> ss | Error e -> raise e)
            (Array.to_list results),
          t_end ))
  in
  let daemon =
    J.Obj [ ("counters", json_of_file counters); ("info", json_of_file info) ]
  in
  List.iter rm_rf [ counters; info ];
  let firsts =
    List.filteri (fun i _ -> i mod per_client = 0) studies
    |> List.map (fun (s : study) -> s.created_at -. t0)
  in
  let rtt = Mutex.protect rtt_lock (fun () -> !rtts) in
  {
    studies; digest = combine (List.map (fun (s : study) -> s.digest) studies);
    setups = [ List.fold_left Float.max 0.0 firsts ];
    study_s = t_end -. t0;
    study_setup_s = List.fold_left Float.max 0.0 firsts;
    wall_s = t_end -. t0;
    evals = int_of_float (path_num [ "counters"; "evaluated" ] daemon);
    requests = List.fold_left (fun a s -> a + requests s) 0 studies;
    reruns = [];
    rtt_ms = List.map (fun (dt, _) -> dt *. 1000.0) rtt;
    rtt_tasks = List.fold_left (fun a (_, n) -> a + n) 0 rtt;
    daemon; store = None; errors = [];
  }

let round w ~seed ~out ~traced =
  match w.shape with
  | Local _ -> local_round w ~seed
  | Stored { reruns } -> stored_round w ~reruns ~seed ~out
  | Served { clients; per_client } ->
    served_round w ~clients ~per_client ~seed ~out ~traced

(* --- Correctness ---------------------------------------------------------- *)

let pin_errors w ~seed (r : round) =
  match List.assoc_opt (seed, w.name) pins with
  | Some pin when pin <> r.digest ->
    [ Printf.sprintf "digest %s differs from the seed-%d pin %s" r.digest seed pin ]
  | _ -> []

(* The best genome's rows, recomputed through the golden slow path
   (reference interpreter, tree-walking heuristic evaluation, no
   simulation sharing) — an oracle independent of every fast path the
   timed studies took. *)
let golden_errors w (s : study) =
  let svc = Study.service_of ~fast_sim:false ~compiled_eval:false w.kind w.benches in
  let cg = Gp.Simplify.genome s.best in
  List.concat
    (List.mapi
       (fun case (name, train, novel) ->
         let same dataset v =
           Int64.bits_of_float (Evaluator.sanitize (svc.svc_eval dataset cg case))
           = Int64.bits_of_float v
         in
         if same Benchmarks.Bench.Train train && same Benchmarks.Bench.Novel novel
         then []
         else [ Printf.sprintf "%s row differs from the golden slow path" name ])
       s.rows)

(* --- Result line ---------------------------------------------------------- *)

let result_line ~errors ~attempted ~failed metrics =
  List.iter (fun e -> say "e2e: INCORRECT: %s" e) errors;
  J.json_to_string
    (J.Obj
       [
         ("correct", J.Bool (errors = []));
         ("attempted", J.Int (max 1 attempted));
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, unit, v) ->
                  (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
                metrics) );
       ])

let with_units table values =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> (name, unit, v)
      | None -> failwith ("metric not computed: " ^ name))
    table

let counts rounds =
  let ss = List.concat_map (fun r -> r.studies) rounds in
  let faults = List.fold_left (fun a (s : study) -> a + s.faults) 0 ss in
  (List.fold_left (fun a r -> a + r.evals) 0 rounds + faults, faults)

(* Peak RSS of the process that evaluated the round: the daemon when
   served, else the round's own process. *)
let round_rss_kb w (r : round) =
  match w.shape with
  | Served _ -> path_num [ "info"; "vm_hwm_kb" ] r.daemon
  | Local _ | Stored _ -> float_of_int (vm_hwm_kb ())

(* Runs [f] in a forked child and returns its result, so that no timed
   round inherits the heap, worker pools or peak RSS of the rounds
   before it. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let code =
      match f () with
      | v ->
        Marshal.to_channel oc (Ok v) [];
        0
      | exception e ->
        Marshal.to_channel oc (Error (Printexc.to_string e)) [];
        1
    in
    close_out oc;
    Unix._exit code
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v =
      try (Marshal.from_channel ic : (_, string) result)
      with End_of_file -> Error "round process died"
    in
    close_in ic;
    ignore (Gp.Parmap.retry_eintr (fun () -> Unix.waitpid [] pid));
    match v with Ok v -> v | Error e -> failwith e)

(* The paper's figure average: mean speedup over a round's benches (and
   over its studies when it has several; a warm rerun repeats its cold
   study exactly, so only the cold one counts). *)
let mean_speedup sel (r : round) =
  let ss =
    match r.reruns with [] -> r.studies | _ -> [ List.hd r.studies ]
  in
  Stats.mean
    (List.map
       (fun (s : study) -> Stats.mean (List.map (fun (_, t, n) -> sel (t, n)) s.rows))
       ss)

(* --- Timed run (--trace 0) ------------------------------------------------ *)

(* Rounds start while the slowest round so far still fits before the
   deadline, so a run measures for at most [seconds] (and at least one
   round). *)
let timed_run w ~seed ~seconds ~out ~smoke =
  let deadline = now () +. seconds in
  let rec go r slowest acc =
    let t0 = now () in
    let rd, rss_kb =
      in_child (fun () ->
          let rd = round w ~seed:(round_seed ~seed r) ~out ~traced:false in
          Option.iter rm_rf rd.store;
          (rd, round_rss_kb w rd))
    in
    let slowest = Float.max slowest (now () -. t0) in
    say "e2e: %s round %d: study %.3fs setup %.3fs, %d evaluations" w.name r
      rd.study_s rd.study_setup_s rd.evals;
    let acc = (rd, rss_kb) :: acc in
    if now () +. slowest <= deadline then go (r + 1) slowest acc else List.rev acc
  in
  let rounds, rss_kb = List.split (go 0 0.0 []) in
  let first = List.hd rounds in
  let errors =
    List.concat_map (fun r -> r.errors) rounds
    @ (if smoke then [] else pin_errors w ~seed first)
    @ golden_errors w (List.hd first.studies)
  in
  let busy = Stats.sum (List.map (fun r -> r.study_s -. r.study_setup_s) rounds) in
  let attempted, failed = counts rounds in
  result_line ~errors ~attempted ~failed
    (with_units end_to_end
       [
         ("setup_s", Stats.median (List.concat_map (fun r -> r.setups) rounds));
         ("study_s", Stats.median (List.map (fun r -> r.study_s) rounds));
         ( "requests_per_s",
           float_of_int (List.fold_left (fun a r -> a + r.requests) 0 rounds) /. busy );
         ("peak_rss_mb", Stats.median rss_kb /. 1024.0);
         ("train_speedup", Stats.median (List.map (mean_speedup fst) rounds));
         ("novel_speedup", Stats.median (List.map (mean_speedup snd) rounds));
       ])

(* --- Traced run (--trace 1) ----------------------------------------------- *)

(* The store a Stored round leaves: each context's two opens (one per
   dataset engine) replayed under its create_with span, and the mean cost
   of a lookup over every key the round evaluated. *)
let store_ledger w (traced : round) (r : Replay.round) dir =
  let opened =
    List.concat_map
      (fun (s : study) ->
        List.init 2 (fun _ ->
            Spans.replayed ~parent:s.create_span "Shardstore.open_store" (fun _ ->
                Driver.Shardstore.open_store dir)))
      traced.studies
  in
  let inputs = Option.get (List.hd traced.studies).inputs in
  (* The evaluator's store key: scope, case name and canonical key. *)
  let digests =
    Hashtbl.fold
      (fun (dataset, key, case) _ acc ->
        let scope =
          Printf.sprintf "%s/%s/%s" (Study.kind_name w.kind)
            inputs.machine.Machine.Config.name
            (match dataset with
            | Benchmarks.Bench.Train -> "train"
            | Benchmarks.Bench.Novel -> "novel")
        in
        let name =
          inputs.prepared.(case).Driver.Compiler.bench.Benchmarks.Bench.name
        in
        Digest.to_hex (Digest.string (scope ^ "\x00" ^ name ^ "\x00" ^ key))
        :: acc)
      r.Replay.values []
  in
  let h = List.hd opened in
  let finds = ref 0 and t0 = now () in
  while now () -. t0 < 0.02 do
    List.iter (fun d -> ignore (Driver.Shardstore.find h d)) digests;
    finds := !finds + List.length digests
  done;
  let count f = List.fold_left (fun a h -> a + f h) 0 opened in
  [
    ("shardstore.find_us", (now () -. t0) *. 1e6 /. float_of_int (max 1 !finds));
    ( "shardstore.bytes",
      Array.fold_left
        (fun a f -> a + (Unix.stat (Filename.concat dir f)).Unix.st_size)
        0 (Sys.readdir dir)
      |> float_of_int );
    ("shardstore.evictions", float_of_int (count Driver.Shardstore.evictions));
    ("shardstore.write_errors", float_of_int (count Driver.Shardstore.write_errors));
  ]

(* Replay the inner layers of every traced study, then fold spans, the
   replay ledger, the evaluators' own counters and the telemetry
   registry into the per-layer ledger. *)
let layer_metrics w ~(plain : round) ~(traced : round) ~registry =
  let r = Replay.new_round () in
  let mismatches =
    List.fold_left
      (fun a (s : study) ->
        a + Replay.study r ~create_span:s.create_span (Option.get s.inputs) s.batches)
      0 traced.studies
  in
  let store = Option.map (store_ledger w traced r) traced.store in
  let spans = Spans.with_self !Spans.all in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun ((s : Spans.t), _) -> Hashtbl.replace by_id s.id s.name) spans;
  let parent_name (s : Spans.t) =
    Option.value ~default:"" (Hashtbl.find_opt by_id s.parent)
  in
  let total ?parent name =
    List.fold_left
      (fun a ((s : Spans.t), _) ->
        if s.name = name && Option.fold ~none:true ~some:(( = ) (parent_name s)) parent
        then a +. Spans.dur s
        else a)
      0.0 spans
  in
  let self name =
    List.fold_left
      (fun a ((s : Spans.t), self) -> if s.name = name then a +. self else a)
      0.0 spans
  in
  let study_total = total "study" in
  let attributed =
    List.fold_left
      (fun a ((s : Spans.t), self) ->
        if s.name = "study" then a else a +. Float.max 0.0 self)
      0.0 spans
  in
  let ss = traced.studies in
  let sumi f = float_of_int (List.fold_left (fun a s -> a + f s) 0 ss) in
  let cache f = sumi (fun (s : study) -> f s.cache) in
  let memo = cache (fun c -> c.Evaluator.memo_hits)
  and disk = cache (fun c -> c.Evaluator.disk_hits)
  and miss = cache (fun c -> c.Evaluator.misses) in
  let requests = memo +. disk +. miss in
  let evaluations = sumi (fun s -> s.evals) and faults = sumi (fun s -> s.faults) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let hist name field = path_num [ "histograms"; name; field ] registry in
  let serve k = path_num [ "counters"; k ] traced.daemon in
  let g = Replay.get in
  (* Both rounds' round trips, so that about ten lie beyond the p90. *)
  let rtt_ms = plain.rtt_ms @ traced.rtt_ms in
  let from_store k =
    Option.fold ~none:0.0 ~some:(fun l -> List.assoc k l) store
  in
  let metrics =
    [
      ("gp.self_s", self "Gp.Evolve.run");
      ("gp.genomes", sumi (fun s -> s.genomes));
      ("simplify.s", total "Gp.Simplify.genome");
      ("simplify.calls", g "simplify.calls");
      ( "simplify.unique_ratio",
        ratio (float_of_int (Hashtbl.length r.Replay.keys)) (g "simplify.calls") );
      ("evaluator.busy_s", total "Evaluator.evaluate_batch");
      ("evaluator.self_s", self "Evaluator.evaluate_batch");
      ("evaluator.batches", sumi (fun s -> List.length s.batches));
      ("evaluator.requests", requests);
      ("evaluator.memo_hits", memo);
      ("evaluator.disk_hits", disk);
      ("evaluator.misses", miss);
      ("evaluator.hit_ratio", ratio (memo +. disk) requests);
      ("evaluator.evaluations", evaluations);
      ( "evaluator.evals_per_s",
        ratio (float_of_int traced.evals) (traced.study_s -. traced.study_setup_s) );
      ("evaluator.faults", faults);
      ("evaluator.fault_rate", ratio faults (evaluations +. faults));
      ("shardstore.open_s", total "Shardstore.open_store");
      ("shardstore.find_us", from_store "shardstore.find_us");
      ("shardstore.bytes", from_store "shardstore.bytes");
      ("shardstore.evictions", from_store "shardstore.evictions");
      ("shardstore.write_errors", from_store "shardstore.write_errors");
      ( "shardstore.rerun_s",
        if traced.reruns = [] then 0.0 else Stats.median traced.reruns );
      ("frontend.s", total "Frontend.Minic.compile");
      ("opt.s", total "Opt.Pipeline.run");
      ("profile.layout_s", total ~parent:"Compiler.prepare" "Profile.Layout.prepare");
      ("profile.collect_s", total "Profile.Prof.collect");
      ("study.baseline_s", total "study.baseline");
      ("compile.s", total "Compiler.compile");
      ("prefetch.insert_s", total "Prefetch.Insert.run_batched");
      ("hyperblock.form_s", total "Hyperblock.Form.run");
      ("regalloc.alloc_s", total "Regalloc.Alloc.run");
      ("sched.list_s", total "List_sched.schedule_program_cycles");
      ("compile.layout_s", total ~parent:"Compiler.compile" "Profile.Layout.prepare");
      ("compile.candidates", g "compile.candidates");
      ("regalloc.spills", g "regalloc.spills");
      ("prefetch.inserted", g "prefetch.inserted");
      ("simcache.artifact_hits", g "simcache.artifact_hits");
      ("simcache.replays", g "simcache.replays");
      ("simcache.simulations", g "simcache.simulations");
      ( "simcache.hit_ratio",
        ratio
          (g "simcache.artifact_hits" +. g "simcache.replays")
          (g "simcache.artifact_hits" +. g "simcache.replays"
         +. g "simcache.simulations") );
      ("simcache.hit_s", g "simcache.hit_s");
      ("simulate.s", g "simulate.s");
      ( "simulate.minstr_per_s",
        ratio (g "simulate.dynamic_instrs" /. 1e6) (g "simulate.s") );
      ("simulate.replay_s", g "simulate.replay_s");
      ("simulate.dynamic_instrs", g "simulate.dynamic_instrs");
      ("study.close_s", total "Study.close");
      ("parmap.pool_spawn_s", hist "parmap.pool_spawn_s" "sum");
      ("parmap.task_s_p50", hist "parmap.task_s" "p50");
      ("parmap.queue_wait_s_p50", hist "parmap.queue_wait_s" "p50");
      ("parmap.dispatch_s", hist "parmap.dispatch_s" "sum");
      ("parmap.chunk_size_p50", hist "parmap.chunk_size" "p50");
      ("parmap.steals", path_num [ "counters"; "parmap.steals" ] registry);
      ("parmap.retries", sumi (fun s -> s.retried));
      ("client.requests", float_of_int (List.length traced.rtt_ms));
      ( "client.tasks_per_request",
        ratio (float_of_int traced.rtt_tasks)
          (float_of_int (List.length traced.rtt_ms)) );
      ("client.rtt_ms_p50", if rtt_ms = [] then 0.0 else Stats.percentile rtt_ms 50.0);
      ("client.rtt_ms_p90", if rtt_ms = [] then 0.0 else Stats.percentile rtt_ms 90.0);
      ("serve.requests", serve "requests");
      ("serve.batched", serve "batched");
      ("serve.coalesced", serve "coalesced");
      ("serve.store_hits", serve "store_hits");
      ("serve.evaluated", serve "evaluated");
      ("serve.dispatches", serve "dispatches");
      ("serve.max_queue_depth", serve "max_queue_depth");
      ("serve.rejected", serve "rejected");
      ("study.train_speedup", mean_speedup fst traced);
      ("study.novel_speedup", mean_speedup snd traced);
      ("trace.overhead_ratio", ratio traced.wall_s plain.wall_s);
      ("trace.unattributed_ratio", ratio (study_total -. attributed) study_total);
    ]
  in
  (mismatches, metrics)

let traced_run w ~seed ~out ~smoke =
  let plain =
    in_child (fun () ->
        let rd = round w ~seed ~out ~traced:false in
        Option.iter rm_rf rd.store;
        rd)
  in
  Spans.reset ();
  Spans.on := true;
  let local = match w.shape with Served _ -> false | _ -> true in
  (* The telemetry registry is not thread-safe, so the served workload's
     client threads run without it and its registry is the daemon's. *)
  if local then begin
    let sink, _ = J.memory_sink () in
    J.set_sink (Some sink)
  end;
  let traced = round w ~seed ~out ~traced:true in
  let registry =
    if local then J.registry_json ()
    else
      Option.value ~default:J.Null
        (Option.bind (J.member "info" traced.daemon) (J.member "registry"))
  in
  J.set_sink None;
  let mismatches, metrics = layer_metrics w ~plain ~traced ~registry in
  Spans.on := false;
  Option.iter rm_rf traced.store;
  let path = Filename.concat out (w.name ^ ".trace.jsonl") in
  Spans.write_jsonl path !Spans.all;
  say "e2e: %d spans written to %s" (List.length !Spans.all) path;
  (* On the -j1 workloads the self times should sum to study_s within
     10%.  A miss is reported, not failed: the replay is a second
     execution, and host load can change between the two. *)
  let unattributed = List.assoc "trace.unattributed_ratio" metrics in
  (match w.shape with
  | (Local { backend = `Seq; _ } | Stored _)
    when (not smoke) && Float.abs unattributed > 0.10 ->
    say "e2e: WARNING: self times miss study_s by %.1f%%" (100.0 *. unattributed)
  | _ -> ());
  let errors =
    plain.errors @ traced.errors
    @ (if plain.digest <> traced.digest then [ "traced digest differs from timed" ]
       else [])
    @ (if mismatches > 0 then
         [ Printf.sprintf "%d replayed values differ from the evaluator's" mismatches ]
       else [])
    @ if smoke then [] else pin_errors w ~seed plain
  in
  let attempted, failed = counts [ traced ] in
  result_line ~errors ~attempted ~failed (with_units per_layer metrics)

(* --- Reference digests (--reference) -------------------------------------- *)

(* Round 0's digest recomputed by the stock driver on the golden slow
   path: `Seq -j1, reference interpreter, tree-walking heuristics, no
   store, no daemon.  Served results are bit-identical to local ones, so
   the served workload is its clients' studies run locally. *)
let reference_digest w ~seed =
  let golden =
    { Study.default_config with backend = `Seq; jobs = 1; fast_sim = false;
      compiled_eval = false }
  in
  let one seed =
    let g =
      Study.evolve_general_with { golden with params = params w seed } w.kind
        w.benches
    in
    digest_of ~best_expr:g.best_expr ~rows:g.train_rows ~history:g.history
  in
  match w.shape with
  | Served { clients; per_client } ->
    combine (List.init (clients * per_client) (fun i -> one (seed + i)))
  | Local _ | Stored _ -> one seed

let reference ws ~seed =
  List.fold_left
    (fun ok w ->
      let t0 = now () in
      let d = reference_digest w ~seed in
      let pinned = List.assoc_opt (seed, w.name) pins in
      Printf.printf "((%d, %S), %S);  (* %s, %.1fs *)\n%!" seed w.name d
        (match pinned with
        | Some p when p = d -> "matches the pin"
        | Some _ -> "DIFFERS from the pin"
        | None -> "no pin")
        (now () -. t0);
      ok && pinned = Some d)
    true ws

(* --- Child runs: the full report and the smoke check ---------------------- *)

let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = String.split_on_char '\n' (String.trim (In_channel.input_all ic)) in
  let status = Unix.close_process_in ic in
  let last = List.nth lines (List.length lines - 1) in
  match (status, J.json_of_string last) with
  | Unix.WEXITED 0, Ok j -> j
  | _ -> failwith (Printf.sprintf "e2e %s: no result" (String.concat " " args))

let metric_values j =
  match J.member "metrics" j with
  | Some (J.Obj ms) -> ms
  | _ -> []

let correct j = J.member "correct" j = Some (J.Bool true)

(* Layers ranked by self time, from the metrics that do not nest inside
   one another. *)
let self_time_layers =
  [
    "gp.self_s"; "simplify.s"; "evaluator.self_s"; "shardstore.open_s";
    "frontend.s"; "opt.s"; "profile.layout_s"; "profile.collect_s";
    "prefetch.insert_s"; "hyperblock.form_s"; "regalloc.alloc_s";
    "sched.list_s"; "compile.layout_s"; "simcache.hit_s"; "simulate.s";
    "simulate.replay_s"; "study.close_s";
  ]

let top_layers traced =
  let v name = path_num [ "metrics"; name; "value" ] traced in
  List.sort (fun a b -> Float.compare (v b) (v a)) self_time_layers
  |> List.filteri (fun i _ -> i < 3)
  |> List.map (fun name -> (name, v name))

(* Three timed runs and one traced run per workload, each in a fresh
   process. *)
let aggregate ~seed ~seconds ~out ~results =
  let runs = 3 in
  let report =
    List.map
      (fun w ->
        let run trace =
          child
            [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
              Printf.sprintf "%g" seconds; "--trace"; trace; "--out"; out ]
        in
        let timed = List.init runs (fun _ -> run "0") in
        let traced = run "1" in
        let ok = List.for_all correct (traced :: timed) in
        Printf.printf "\n%s%s\n" w.name (if ok then "" else "  INCORRECT");
        Printf.printf "  %-14s %-6s %12s %12s %12s %3s\n" "metric" "unit" "median"
          "q1" "q3" "n";
        let e2e =
          List.map
            (fun (name, unit) ->
              let xs =
                List.map (fun j -> path_num [ "metrics"; name; "value" ] j) timed
              in
              let q1, med, q3 = Stats.quartiles xs in
              Printf.printf "  %-14s %-6s %12.4f %12.4f %12.4f %3d\n" name unit med
                q1 q3 (List.length xs);
              ( name,
                J.Obj
                  [
                    ("unit", J.String unit); ("median", J.Float med);
                    ("q1", J.Float q1); ("q3", J.Float q3);
                    ("n", J.Int (List.length xs));
                    ("samples", J.List (List.map (fun x -> J.Float x) xs));
                  ] ))
            end_to_end
        in
        let top = top_layers traced in
        Printf.printf "  top layers by self time: %s\n"
          (String.concat ", "
             (List.map (fun (n, v) -> Printf.sprintf "%s %.3fs" n v) top));
        ( ok,
          ( w.name,
            J.Obj
              [
                ("correct", J.Bool ok);
                ("end_to_end", J.Obj e2e);
                ("per_layer", J.Obj (metric_values traced));
                ( "top_layers",
                  J.List
                    (List.map
                       (fun (n, v) -> J.Obj [ ("name", J.String n); ("s", J.Float v) ])
                       top) );
              ] ) ))
      workloads
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (J.json_to_string
               (J.Obj
                  [
                    ("seed", J.Int seed); ("seconds", J.Float seconds);
                    ("runs", J.Int runs);
                    ("workloads", J.Obj (List.map snd report));
                  ]));
          output_char oc '\n'))
    results;
  List.for_all fst report

(* The declared metric tables of BENCHMARK.json must be the ones this
   harness prints. *)
let check_declared path =
  let j = json_of_file path in
  let names key =
    match J.member key j with
    | Some (J.List l) ->
      List.map
        (fun m ->
          let str k = match J.member k m with Some (J.String s) -> s | _ -> "" in
          (str "name", str "unit"))
        l
    | _ -> []
  in
  let problems =
    (if names "end_to_end" <> end_to_end then [ "end_to_end" ] else [])
    @ (if names "per_layer" <> per_layer then [ "per_layer" ] else [])
    @
    if List.map fst (names "workloads") <> List.map (fun w -> w.name) workloads
    then [ "workloads" ]
    else []
  in
  List.iter (fun p -> say "e2e smoke: %s of %s differs from the harness" p path) problems;
  problems = []

let smoke ~out ~declared =
  let schema_ok table j =
    let ms = metric_values j in
    correct j
    && J.member "failed" j = Some (J.Int 0)
    && (match J.member "attempted" j with Some (J.Int n) -> n >= 1 | _ -> false)
    && List.length ms = List.length table
    && List.for_all
         (fun (name, unit) ->
           match List.assoc_opt name ms with
           | Some m ->
             J.member "unit" m = Some (J.String unit)
             && Float.is_finite (num (J.member "value" m))
           | None -> false)
         table
  in
  let runs_ok =
    List.for_all
      (fun w ->
        List.for_all
          (fun (trace, table) ->
            let j =
              child
                [ "--workload"; w.name; "--seconds"; "0"; "--trace"; trace;
                  "--out"; out; "--smoke" ]
            in
            let ok = schema_ok table j in
            say "e2e smoke: %s --trace %s %s" w.name trace (if ok then "ok" else "FAILED");
            ok)
          [ ("0", end_to_end); ("1", per_layer) ])
      workloads
  in
  Option.fold ~none:true ~some:check_declared declared && runs_ok

(* --- Command line --------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref 0 and out = ref "e2ebench/out" in
  let results = ref "" and smoke_mode = ref false and reference_mode = ref false in
  let declared = ref "" and daemon = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measure rounds for S seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer ledger");
      ("--out", Arg.Set_string out, "DIR traces, stores and sockets (default e2ebench/out)");
      ("--results", Arg.Set_string results, "FILE write the full report as JSON");
      ("--smoke", Arg.Set smoke_mode, " tiny sizes: schema, digest and replay checks");
      ("--reference", Arg.Set reference_mode, " recompute round-0 digests on the golden path");
      ("--benchmark-json", Arg.Set_string declared, "FILE check its metric tables (with --smoke)");
      ("--daemon", Arg.Set_string daemon, "SOCKET serve a served workload's round (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e [--workload NAME --seed N --seconds S --trace 0|1] [--reference] [--smoke]";
  if !daemon <> "" then begin
    daemon_main ~socket:!daemon ~traced:(!trace = 1);
    exit 0
  end;
  mkdir_p !out;
  let ws =
    if !workload = "" then workloads
    else
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | Some w -> [ if !smoke_mode then smoke_sized w else w ]
      | None ->
        say "e2e: unknown workload %s" !workload;
        exit 2
  in
  let ok =
    if !reference_mode then reference ws ~seed:!seed
    else if !workload <> "" then begin
      let w = List.hd ws in
      (match w.shape with Served _ -> install_timed_dialer () | _ -> ());
      print_endline
        (if !trace = 1 then traced_run w ~seed:!seed ~out:!out ~smoke:!smoke_mode
         else timed_run w ~seed:!seed ~seconds:!seconds ~out:!out ~smoke:!smoke_mode);
      true
    end
    else if !smoke_mode then
      smoke ~out:!out ~declared:(if !declared = "" then None else Some !declared)
    else
      aggregate ~seed:!seed ~seconds:!seconds ~out:!out
        ~results:(if !results = "" then None else Some !results)
  in
  exit (if ok then 0 else 1)
