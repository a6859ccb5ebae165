(* The parallel, cached fitness engine.  See evaluator.mli for the
   batch-request pipeline: canonicalize -> cache lookup -> Parmap fan-out
   -> cache fill, and for the fault model: infrastructure failures
   (crashed, hung or abandoned evaluations) score 0 like a bad candidate
   but are counted separately and never persisted. *)

type fault_stats = {
  crashed : int;
  timed_out : int;
  gave_up : int;
  retried : int;
}

let merge_faults a b =
  {
    crashed = a.crashed + b.crashed;
    timed_out = a.timed_out + b.timed_out;
    gave_up = a.gave_up + b.gave_up;
    retried = a.retried + b.retried;
  }

let total_faults f = f.crashed + f.timed_out + f.gave_up

(* A remote dispatcher: receives (digest, canonical genome, case) for
   every miss and returns one Parmap-shaped outcome per task.  The
   digest is the same persistent key the local store would use, so the
   far side can serve shared hits; the canonical genome rides along so
   the far side evaluates exactly what a local pool would have (it must
   NOT re-canonicalize — noise seeding keys on the genome structure). *)
type remote =
  (string * Gp.Expr.genome * int) array -> float Gp.Parmap.outcome array

type t = {
  pool : Gp.Parmap.pool;
  remote : remote option;
  fs : Gp.Feature_set.t;
  scope : string;
  case_name : int -> string;
  eval : Gp.Expr.genome -> int -> float;
  memo : (string * int, float) Hashtbl.t;   (* (canonical key, case) *)
  store : Shardstore.t option;              (* digest -> fitness, on disk *)
  (* The pool handle every local batch runs on, created on the first
     batch and reused for the engine's lifetime: on a supervised engine
     its forked workers keep warm state (decoded layouts, simulation
     caches) between batches, which is the whole point of keeping it
     alive. *)
  mutable handle :
    (Gp.Expr.genome * string * int, float) Gp.Parmap.handle option;
  mutable evaluations : int;
  mutable f_crashed : int;
  mutable f_timed_out : int;
  mutable f_gave_up : int;
  mutable f_retried : int;
  (* Batch-time request classification (memo hit / disk hit / miss),
     cumulative since [create]. *)
  mutable h_memo : int;
  mutable h_disk : int;
  mutable h_miss : int;
}

type cache_stats = { memo_hits : int; disk_hits : int; misses : int }

let sanitize = Gp.Evolve.sanitize

(* The persistent key folds in everything fitness depends on besides the
   expression itself: the caller's scope (study, machine, dataset) and the
   case's benchmark name. *)
let store_key ~scope ~case_name key =
  Digest.to_hex (Digest.string (scope ^ "\x00" ^ case_name ^ "\x00" ^ key))

let digest_key t key case =
  store_key ~scope:t.scope ~case_name:(t.case_name case) key

(* Persistence lives in {!Shardstore}: "digest value" lines, hex floats
   for exact round-trips, in one file under one lock, with
   compaction-on-load and store-wide write degradation.  The handle is
   the caller's: a study context opens one and shares it. *)

let create ?(pool = Gp.Parmap.pool ()) ?store ?remote ~fs ~scope ~case_name
    ~eval () =
  {
    pool;
    remote;
    fs;
    scope;
    case_name;
    eval;
    memo = Hashtbl.create 4096;
    store;
    handle = None;
    evaluations = 0;
    f_crashed = 0;
    f_timed_out = 0;
    f_gave_up = 0;
    f_retried = 0;
    h_memo = 0;
    h_disk = 0;
    h_miss = 0;
  }

let faults t =
  {
    crashed = t.f_crashed;
    timed_out = t.f_timed_out;
    gave_up = t.f_gave_up;
    retried = t.f_retried;
  }

let cache_stats t =
  { memo_hits = t.h_memo; disk_hits = t.h_disk; misses = t.h_miss }

let shutdown t =
  match t.handle with
  | Some h ->
    Gp.Parmap.shutdown h;
    t.handle <- None
  | None -> ()

let canon t g =
  let cg = Gp.Simplify.genome g in
  (cg, Gp.Sexp.to_string t.fs cg)

let lookup t key case =
  match Hashtbl.find_opt t.memo (key, case) with
  | Some _ as hit -> hit
  | None -> (
    match
      match t.store with
      | Some s -> Shardstore.find s (digest_key t key case)
      | None -> None
    with
    | Some v ->
      Hashtbl.replace t.memo (key, case) v;
      Some v
    | None -> None)

(* Like [lookup], but classifies the request and bumps the hit/miss
   counters — used only during batch task collection, so the final
   result-assembly pass doesn't double-count every request as a memo
   hit. *)
let lookup_counted t key case =
  if Hashtbl.mem t.memo (key, case) then begin
    t.h_memo <- t.h_memo + 1;
    true
  end
  else
    match lookup t key case with
    | Some _ ->
      t.h_disk <- t.h_disk + 1;
      true
    | None ->
      t.h_miss <- t.h_miss + 1;
      false

(* A task's worker is supervised whenever its failure would otherwise be
   invisible or fatal: any multi-worker run, or any run with a deadline.
   Plain sequential evaluation runs on a [`Seq] handle instead —
   in-process (cheap, side effects observable — tests rely on it) with
   exception isolation only.  The [`Seq] backend is the
   always-sequential reference; [`Fork] degrades to in-process when fork
   is unavailable on the platform. *)
let supervises (pool : Gp.Parmap.pool) =
  pool.Gp.Parmap.backend = `Fork
  && Gp.Parmap.available
  && (pool.Gp.Parmap.jobs > 1 || pool.Gp.Parmap.timeout_s <> None)

let handle t =
  match t.handle with
  | Some h -> h
  | None ->
    let pool =
      if supervises t.pool then t.pool else Gp.Parmap.pool ~backend:`Seq ()
    in
    let h = Gp.Parmap.create pool ~f:(fun (cg, _, case) -> t.eval cg case) in
    t.handle <- Some h;
    h

let evaluate_batch t genomes ~cases =
  let tel = Gp.Telemetry.enabled () in
  let t_batch = if tel then Gp.Telemetry.now_s () else 0.0 in
  let evals0 = t.evaluations in
  let faults0 = t.f_crashed + t.f_timed_out + t.f_gave_up in
  let stats0 = cache_stats t in
  let keyed = Array.map (canon t) genomes in
  (* Unique (key, case) pairs not already cached, in first-seen order. *)
  let pending : (string * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let tasks = ref [] in
  Array.iter
    (fun (cg, key) ->
      List.iter
        (fun case ->
          if
            (not (lookup_counted t key case))
            && not (Hashtbl.mem pending (key, case))
          then begin
            Hashtbl.add pending (key, case) ();
            tasks := (cg, key, case) :: !tasks
          end)
        cases)
    keyed;
  let tasks = Array.of_list (List.rev !tasks) in
  let entries = ref [] in
  (* A real result: sanitized, memoized, persisted, and counted as an
     evaluation.  Genuinely bad candidates (wrong output, non-finite
     cycles) come through here as 0 and are cached like any result. *)
  let record_ok (_, key, case) v =
    let v = sanitize v in
    t.evaluations <- t.evaluations + 1;
    Hashtbl.replace t.memo (key, case) v;
    if t.store <> None then entries := (digest_key t key case, v) :: !entries
  in
  (* An infrastructure failure: scores 0 so evolution discards the
     candidate, is memoized so one hung genome cannot stall every
     generation of this run, but is never written to the disk cache — a
     transient OOM or timeout must not poison future runs. *)
  let record_fault (_, key, case) what =
    (match what with
    | `Crashed msg ->
      t.f_crashed <- t.f_crashed + 1;
      Logs.warn (fun m ->
          m "evaluation on %s crashed (fitness 0, not cached): %s"
            (t.case_name case) msg)
    | `Timed_out ->
      t.f_timed_out <- t.f_timed_out + 1;
      Logs.warn (fun m ->
          m "evaluation on %s timed out (fitness 0, not cached)"
            (t.case_name case))
    | `Gave_up ->
      t.f_gave_up <- t.f_gave_up + 1;
      Logs.warn (fun m ->
          m "evaluation on %s abandoned after retries (fitness 0, not cached)"
            (t.case_name case)));
    Hashtbl.replace t.memo (key, case) 0.0
  in
  let record_outcomes outcomes =
    Array.iteri
      (fun i task ->
        match outcomes.(i) with
        | Gp.Parmap.Ok v -> record_ok task v
        | Gp.Parmap.Crashed msg -> record_fault task (`Crashed msg)
        | Gp.Parmap.Timed_out -> record_fault task `Timed_out
        | Gp.Parmap.Gave_up -> record_fault task `Gave_up)
      tasks
  in
  (match t.remote with
  | Some dispatch when Array.length tasks > 0 ->
    (* Served mode: the daemon owns the pool and the store; this side
       only ships digested misses and records the outcomes. *)
    let rtasks =
      Array.map (fun (cg, key, case) -> (digest_key t key case, cg, case)) tasks
    in
    let outcomes = dispatch rtasks in
    if Array.length outcomes <> Array.length tasks then
      failwith
        (Printf.sprintf
           "Evaluator: remote dispatcher returned %d outcomes for %d tasks"
           (Array.length outcomes) (Array.length tasks));
    record_outcomes outcomes
  | Some _ -> ()
  | None ->
    let outcomes, stats = Gp.Parmap.run_batch (handle t) tasks in
    t.f_retried <- t.f_retried + stats.Gp.Parmap.retries;
    record_outcomes outcomes);
  if !entries <> [] then
    Option.iter (fun s -> Shardstore.append s (List.rev !entries)) t.store;
  if tel then begin
    let wall = Gp.Telemetry.now_s () -. t_batch in
    let s = cache_stats t in
    let memo_hits = s.memo_hits - stats0.memo_hits in
    let disk_hits = s.disk_hits - stats0.disk_hits in
    let misses = s.misses - stats0.misses in
    let requests = memo_hits + disk_hits + misses in
    Gp.Telemetry.observe "evaluator.batch_s" wall;
    Gp.Telemetry.incr ~by:memo_hits "evaluator.memo_hits";
    Gp.Telemetry.incr ~by:disk_hits "evaluator.disk_hits";
    Gp.Telemetry.incr ~by:misses "evaluator.misses";
    Gp.Telemetry.emit ~kind:"cache"
      [
        ("scope", Gp.Telemetry.String t.scope);
        ("genomes", Gp.Telemetry.Int (Array.length genomes));
        ("cases", Gp.Telemetry.Int (List.length cases));
        ("requests", Gp.Telemetry.Int requests);
        ("memo_hits", Gp.Telemetry.Int memo_hits);
        ("disk_hits", Gp.Telemetry.Int disk_hits);
        ("misses", Gp.Telemetry.Int misses);
        ( "hit_rate",
          Gp.Telemetry.Float
            (if requests > 0 then
               float_of_int (memo_hits + disk_hits) /. float_of_int requests
             else 0.0) );
        ("evaluated", Gp.Telemetry.Int (t.evaluations - evals0));
        ( "faults",
          Gp.Telemetry.Int
            (t.f_crashed + t.f_timed_out + t.f_gave_up - faults0) );
        ("wall_s", Gp.Telemetry.Float wall);
      ]
  end;
  Array.map
    (fun (_, key) ->
      Array.of_list
        (List.map
           (fun case -> Option.value ~default:0.0 (lookup t key case))
           cases))
    keyed

let evaluate t g case = (evaluate_batch t [| g |] ~cases:[ case ]).(0).(0)

let evaluations t = t.evaluations

let evolve_evaluator t =
  {
    Gp.Evolve.evaluate_batch = (fun genomes ~cases -> evaluate_batch t genomes ~cases);
    evaluations = (fun () -> t.evaluations);
  }
