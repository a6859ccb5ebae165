(* Tests for the sharded fitness store underneath the evaluator's disk
   cache: digest addressing, per-shard locking under concurrent writers
   (on disjoint shards and on one colliding shard), compaction of
   damaged shards and its idempotence, and which files a store reads. *)

module S = Driver.Shardstore

let with_dir tag f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "metaopt-shardstore-%s-%d" tag (Unix.getpid ()))
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
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A crafted 32-hex-char digest whose first byte — and so, at 16 shards,
   whose shard — is [prefix]. *)
let digest_in prefix n = Printf.sprintf "%02x%030x" prefix n

let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  end

let whole_line line =
  match String.index_opt line ' ' with
  | Some 32 ->
    float_of_string_opt (String.sub line 33 (String.length line - 33)) <> None
  | _ -> false

let test_addressing () =
  with_dir "addr" @@ fun dir ->
  let s = S.open_store dir in
  Alcotest.(check int) "shard count" 16 S.shards;
  (* first-byte addressing: prefix i lands in shard i *)
  for i = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "prefix %02x" i)
      i
      (S.shard_of (digest_in i 7))
  done;
  Alcotest.(check int) "prefix wraps mod shards" 0 (S.shard_of (digest_in 16 7));
  Alcotest.(check int) "ff wraps to the last shard" 15
    (S.shard_of (digest_in 0xff 0));
  (* one entry per shard: each shard file holds exactly its line, and
     awkward values round-trip exactly through the hex-float rendering *)
  let value i = 1.0 +. (Float.of_int i /. 3.0) in
  S.append s (List.init 16 (fun i -> (digest_in i i, value i)));
  for i = 0 to 15 do
    let lines = read_lines (S.shard_file s i) in
    Alcotest.(check int) (Printf.sprintf "shard %d holds one line" i) 1
      (List.length lines)
  done;
  let s2 = S.open_store dir in
  for i = 0 to 15 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "entry %d round-trips" i)
      (value i)
      (Option.get (S.find s2 (digest_in i i)))
  done

(* Two forked writers on the same store.  [spread = false] sends both
   writers to one shard (every append contends on that shard's lock);
   [spread = true] gives each writer its own shard (appends never
   contend).  Either way every line must survive whole and every value
   must round-trip. *)
let concurrent_writers ~spread () =
  if Gp.Parmap.available then begin
    let tag = if spread then "disjoint" else "colliding" in
    with_dir tag @@ fun dir ->
    let n = 40 in
    let prefix_of w = if spread then w else 0 in
    let value w i = Float.of_int ((w * 1000) + i) /. 7.0 in
    flush stdout;
    flush stderr;
    let writer w =
      match Unix.fork () with
      | 0 ->
        (try
           let s = S.open_store dir in
           (* one append call per entry, to maximize interleaving *)
           for i = 0 to n - 1 do
             S.append s [ (digest_in (prefix_of w) ((w * 1000) + i), value w i) ]
           done;
           Unix._exit (if S.write_errors s = 0 then 0 else 1)
         with _ -> Unix._exit 1)
      | pid -> pid
    in
    let p1 = writer 1 in
    let p2 = writer 2 in
    let clean pid =
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> true
      | _ -> false
    in
    Alcotest.(check bool) "writer 1 exited cleanly" true (clean p1);
    Alcotest.(check bool) "writer 2 exited cleanly" true (clean p2);
    let s = S.open_store dir in
    (if spread then begin
       Alcotest.(check int) "writer 1's shard complete" n
         (List.length (read_lines (S.shard_file s 1)));
       Alcotest.(check int) "writer 2's shard complete" n
         (List.length (read_lines (S.shard_file s 2)))
     end
     else
       Alcotest.(check int) "both writers' lines in the one shard" (2 * n)
         (List.length (read_lines (S.shard_file s 0))));
    List.iter
      (fun w ->
        let file = S.shard_file s (prefix_of w) in
        List.iter
          (fun line ->
            if not (whole_line line) then
              Alcotest.failf "torn line %S in %s" line file)
          (read_lines file);
        for i = 0 to n - 1 do
          Alcotest.(check (float 0.0))
            (Printf.sprintf "writer %d entry %d round-trips" w i)
            (value w i)
            (Option.get (S.find s (digest_in (prefix_of w) ((w * 1000) + i))))
        done)
      [ 1; 2 ];
    Alcotest.(check int) "no compaction was needed" 0 (S.evictions s)
  end

let test_concurrent_disjoint () = concurrent_writers ~spread:true ()
let test_concurrent_colliding () = concurrent_writers ~spread:false ()

let test_compaction_idempotent () =
  with_dir "compact" @@ fun dir ->
  (* seed one shard with a keeper, a superseded duplicate, and a torn
     final line (a killed writer's half-append) *)
  let s = S.open_store dir in
  let d_keep = digest_in 5 1 and d_dup = digest_in 5 2 in
  let oc = open_out (S.shard_file s 5) in
  Printf.fprintf oc "%s %h\n" d_keep 2.5;
  Printf.fprintf oc "%s %h\n" d_dup 1.0;
  Printf.fprintf oc "%s %h\n" d_dup 9.0;
  output_string oc "00112233445566778899aabbccddeef";
  close_out oc;
  (* first open: the dup and the torn line are evicted, last write wins,
     and the shard is rewritten with only whole lines *)
  let s1 = S.open_store dir in
  Alcotest.(check int) "two lines evicted" 2 (S.evictions s1);
  Alcotest.(check (float 0.0)) "keeper served" 2.5
    (Option.get (S.find s1 d_keep));
  Alcotest.(check (float 0.0)) "last write wins for the dup" 9.0
    (Option.get (S.find s1 d_dup));
  let compacted = read_lines (S.shard_file s1 5) in
  Alcotest.(check int) "compacted to the survivors" 2 (List.length compacted);
  List.iter
    (fun l ->
      if not (whole_line l) then Alcotest.failf "uncompacted line %S" l)
    compacted;
  (* second open: nothing left to evict and the file is untouched —
     compaction is idempotent *)
  let s2 = S.open_store dir in
  Alcotest.(check int) "clean reload evicts nothing" 0 (S.evictions s2);
  Alcotest.(check (list string)) "file byte-stable" compacted
    (read_lines (S.shard_file s2 5));
  Alcotest.(check (float 0.0)) "still served after reload" 9.0
    (Option.get (S.find s2 d_dup))

(* Regression: a signal landing while an append blocks in lockf (or
   mid-write) used to raise Unix_error (EINTR, ...) out of the append
   path and permanently degrade the shard — or, worse, the swallowed
   lockf failure let the append proceed unlocked.  Here a forked child
   holds the shard's lock while the parent appends under a SIGALRM storm
   (interval timer into a no-op handler; timers are not inherited across
   fork, so only the parent is stormed): the parent's lock wait is
   interrupted over and over and must be restarted, never abandoned and
   never bypassed. *)
let test_eintr_storm_append () =
  if Gp.Parmap.available then begin
    with_dir "eintr" @@ fun dir ->
    let s = S.open_store dir in
    (* materialize the shard file so the child can lock it *)
    S.append s [ (digest_in 4 0, 0.5) ];
    let path = S.shard_file s 4 in
    let r, w = Unix.pipe () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      (try
         Unix.close r;
         let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
         Unix.lockf fd Unix.F_LOCK 0;
         (* tell the parent the lock is held, then sit on it *)
         ignore (Unix.write w (Bytes.of_string "k") 0 1);
         ignore (Unix.select [] [] [] 0.4);
         Unix._exit 0
       with _ -> Unix._exit 1)
    | pid ->
      Unix.close w;
      ignore (Unix.read r (Bytes.create 1) 0 1);
      Unix.close r;
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
          (* blocks on the child's lock; the storm interrupts the wait *)
          for i = 1 to 8 do
            S.append s [ (digest_in 4 i, Float.of_int i /. 3.0) ]
          done);
      ignore (Unix.waitpid [] pid);
      Alcotest.(check int) "no write errors under the storm" 0
        (S.write_errors s);
      Alcotest.(check bool) "no shard degraded" false (S.mem_any_degraded s);
      List.iter
        (fun line ->
          if not (whole_line line) then Alcotest.failf "torn line %S" line)
        (read_lines path);
      let s2 = S.open_store dir in
      Alcotest.(check int) "every append persisted whole" 9
        (List.length (read_lines path));
      Alcotest.(check int) "reload evicts nothing" 0 (S.evictions s2);
      for i = 0 to 8 do
        Alcotest.(check (float 0.0))
          (Printf.sprintf "entry %d round-trips" i)
          (if i = 0 then 0.5 else Float.of_int i /. 3.0)
          (Option.get (S.find s2 (digest_in 4 i)))
      done
  end

let arm_plan spec =
  match Gp.Chaos.plan_of_string spec with
  | Ok plan -> Gp.Chaos.arm plan
  | Error e -> Alcotest.failf "bad chaos plan %S: %s" spec e

(* Regression: a persistent lockf failure used to be swallowed and the
   group written unlocked.  Now the one append is skipped (counted,
   memo keeps the value), the file never sees an unlocked write, and the
   shard is not degraded — the next append takes the lock again. *)
let test_lock_failure_skips_append () =
  with_dir "lockfail" @@ fun dir ->
  Fun.protect ~finally:Gp.Chaos.disarm @@ fun () ->
  (* the second store-wide append's lock fails persistently *)
  arm_plan "evaluator.cache_lock:2@1=raise:enolck";
  let s = S.open_store dir in
  let d1 = digest_in 7 1 and d2 = digest_in 7 2 and d3 = digest_in 7 3 in
  S.append s [ (d1, 1.5) ];
  S.append s [ (d2, 2.5) ];
  (* skipped, not written unlocked *)
  S.append s [ (d3, 3.5) ];
  Alcotest.(check int) "the skipped append is counted" 1 (S.write_errors s);
  Alcotest.(check bool) "shard not degraded" false (S.mem_any_degraded s);
  Alcotest.(check (float 0.0)) "memo still serves the skipped value" 2.5
    (Option.get (S.find s d2));
  let lines = read_lines (S.shard_file s 7) in
  Alcotest.(check int) "only the locked appends reached disk" 2
    (List.length lines);
  List.iter
    (fun l -> if not (whole_line l) then Alcotest.failf "torn line %S" l)
    lines;
  Gp.Chaos.disarm ();
  let s2 = S.open_store dir in
  Alcotest.(check (float 0.0)) "first append persisted" 1.5
    (Option.get (S.find s2 d1));
  Alcotest.(check (float 0.0)) "post-failure append persisted" 3.5
    (Option.get (S.find s2 d3));
  Alcotest.(check bool) "skipped value is gone after reopen" true
    (S.find s2 d2 = None)

(* An injected EINTR out of the first lock wait on every append: the
   retry discipline must reacquire and write locked, with no errors. *)
let test_lock_eintr_injected () =
  with_dir "lockeintr" @@ fun dir ->
  Fun.protect ~finally:Gp.Chaos.disarm @@ fun () ->
  arm_plan "evaluator.cache_lock@1=raise:eintr";
  let s = S.open_store dir in
  for i = 1 to 5 do
    S.append s [ (digest_in 9 i, Float.of_int i) ]
  done;
  Alcotest.(check int) "interrupted locks retried, not failed" 0
    (S.write_errors s);
  Alcotest.(check int) "every append landed" 5
    (List.length (read_lines (S.shard_file s 9)));
  Gp.Chaos.disarm ();
  let s2 = S.open_store dir in
  Alcotest.(check int) "reload evicts nothing" 0 (S.evictions s2)

(* A store reads its 16 shard files and nothing else: a pre-shard
   fitness-cache.tsv or a shard-XX.tsv above shard-0f.tsv in the same
   directory is neither loaded nor touched, so an entry held only there
   is a miss (recomputed by the evaluator), never a wrong answer. *)
let test_validation () =
  with_dir "valid" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let d_legacy = digest_in 3 42 and d_high = digest_in 0x13 7 in
  let stray name digest =
    let path = Filename.concat dir name in
    let oc = open_out path in
    Printf.fprintf oc "%s %h\n" digest 4.25;
    output_string oc "not a cache line\n";
    close_out oc;
    (path, read_lines path)
  in
  let strays =
    [ stray "fitness-cache.tsv" d_legacy; stray "shard-13.tsv" d_high ]
  in
  let s = S.open_store dir in
  Alcotest.(check bool) "healthy" false (S.mem_any_degraded s);
  Alcotest.(check bool) "pre-shard file not read" true
    (S.find s d_legacy = None);
  Alcotest.(check bool) "above-range shard not read" true
    (S.find s d_high = None);
  Alcotest.(check int) "stray damage is not an eviction" 0 (S.evictions s);
  S.append s [ (d_legacy, 1.5); (d_high, 2.5) ];
  List.iter
    (fun (path, before) ->
      Alcotest.(check (list string))
        (Filename.basename path ^ " untouched")
        before (read_lines path))
    strays;
  Alcotest.(check (float 0.0)) "recomputed entry persisted in range" 2.5
    (Option.get (S.find (S.open_store dir) d_high))

(* An append refuses every entry that would not load back — a malformed
   digest (empty, short, upper-case, or carrying a forged second line)
   or a non-finite value — and keeps the rest: the store reloads with no
   evictions, and nothing the refused entries spelled out is found. *)
let test_refused_append () =
  with_dir "refuse" @@ fun dir ->
  let s = S.open_store dir in
  let good = digest_in 5 1 and forged_key = digest_in 5 2 in
  let forged = good ^ " 0x1.8p+1\n" ^ forged_key in
  S.append s
    [
      ("", 1.0);
      (forged, 2.0);
      (String.sub good 0 31, 3.0);
      (String.uppercase_ascii (digest_in 0xab 3), 4.0);
      (digest_in 5 4, nan);
      (good, 5.0);
    ];
  Alcotest.(check int) "no write errors" 0 (S.write_errors s);
  let check_store name s =
    Alcotest.(check (option (float 0.0))) (name ^ ": valid entry kept")
      (Some 5.0) (S.find s good);
    Alcotest.(check (option (float 0.0))) (name ^ ": no forged entry") None
      (S.find s forged_key);
    Alcotest.(check (option (float 0.0))) (name ^ ": malformed key absent")
      None (S.find s forged)
  in
  check_store "open" s;
  let s2 = S.open_store dir in
  Alcotest.(check int) "reload evicts nothing" 0 (S.evictions s2);
  check_store "reloaded" s2;
  Alcotest.(check (list string)) "one line written"
    [ Printf.sprintf "%s %h" good 5.0 ]
    (read_lines (S.shard_file s2 5))

(* A torn append that ends the file mid-line can still parse: a hex
   float cut short reads as a finite, wrong value.  Text after the last
   newline is therefore evicted, never served. *)
let test_unterminated_tail_evicted () =
  with_dir "tail" @@ fun dir ->
  let s = S.open_store dir in
  let d_keep = digest_in 3 1 and d_torn = digest_in 3 2 in
  let oc = open_out (S.shard_file s 3) in
  Printf.fprintf oc "%s %h\n" d_keep 2.5;
  (* "0x1.9a2b3cp+18" cut after "0x1.9a2b": 1.6, were it parsed *)
  Printf.fprintf oc "%s 0x1.9a2b" d_torn;
  close_out oc;
  let s1 = S.open_store dir in
  Alcotest.(check int) "the tail is evicted" 1 (S.evictions s1);
  Alcotest.(check (option (float 0.0))) "the keeper is served" (Some 2.5)
    (S.find s1 d_keep);
  Alcotest.(check (option (float 0.0))) "the torn value is not" None
    (S.find s1 d_torn);
  Alcotest.(check (list string)) "compacted to the whole line"
    [ Printf.sprintf "%s %h" d_keep 2.5 ]
    (read_lines (S.shard_file s1 3))

(* --- Persisted baselines ---------------------------------------------- *)

let store_lines dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f -> read_lines (Filename.concat dir f))

let stored_cfg ?(backend = `Seq) ?(jobs = 1) dir =
  { Driver.Study.default_config with
    Driver.Study.backend; jobs; cache_dir = Some dir }

let with_context cfg kind benches f =
  let ctx = Driver.Study.create_with cfg kind benches in
  Fun.protect ~finally:(fun () -> Driver.Study.close ctx) (fun () -> f ctx)

(* Baselines as exact bits: cycles as their float bits, then checksums. *)
let baseline_bits (ctx : Driver.Study.context) =
  List.map
    (fun (c, sum) -> (Int64.bits_of_float c, sum))
    (Array.to_list ctx.baseline_train @ Array.to_list ctx.baseline_novel)

let check_baselines name expected (ctx : Driver.Study.context) =
  Alcotest.(check (list (pair int64 int))) (name ^ ": baselines bit-equal")
    expected (baseline_bits ctx)

let check_counts name ~loaded ~measured (ctx : Driver.Study.context) =
  Alcotest.(check (pair int int)) (name ^ ": baselines loaded, measured")
    (loaded, measured)
    (ctx.baselines_loaded, ctx.baselines_measured)

let prefetch_benches = [ "015.doduc"; "101.tomcatv" ]

(* How many of the context's benches had their training profile run. *)
let profiled (ctx : Driver.Study.context) =
  Array.fold_left
    (fun n (p : Driver.Compiler.prepared) ->
      if Lazy.is_val p.Driver.Compiler.prof then n + 1 else n)
    0 ctx.prepared

(* [f ()] under a memory sink, with its last [run_summary] record's
   [benches_profiled] and [profile_s]. *)
let with_profile_summary f =
  let sink, records = Gp.Telemetry.memory_sink () in
  Gp.Telemetry.set_sink (Some sink);
  let v = Fun.protect ~finally:(fun () -> Gp.Telemetry.set_sink None) f in
  let summary =
    List.find
      (fun r ->
        Gp.Telemetry.member "kind" r = Some (Gp.Telemetry.String "run_summary"))
      (List.rev (records ()))
  in
  let field k =
    match Gp.Telemetry.member k summary with
    | Some (Gp.Telemetry.Int i) -> float_of_int i
    | Some (Gp.Telemetry.Float x) -> x
    | _ -> Alcotest.failf "run_summary has no numeric %s" k
  in
  (v, int_of_float (field "benches_profiled"), field "profile_s")

(* A short evolution's printed study as exact bits: the best
   expression, each generation and each bench's train and novel rows. *)
let short_evolve cfg kind benches =
  let params =
    { Gp.Params.tiny with Gp.Params.population_size = 6; generations = 2 }
  in
  let g =
    Driver.Study.evolve_general_with { cfg with Driver.Study.params } kind
      benches
  in
  ( g.Driver.Study.best_expr,
    List.map
      (fun (s : Gp.Evolve.generation_stats) ->
        (s.gen, Int64.bits_of_float s.best_fitness, s.best_expr))
      g.history,
    List.map
      (fun (b, t, n) -> (b, Int64.bits_of_float t, Int64.bits_of_float n))
      g.train_rows )

let study =
  Alcotest.(
    triple string
      (list (triple int int64 string))
      (list (triple string int64 int64)))

(* A context over a store that holds its baselines measures none of
   them: no simulation, no summary answer, no artifact hit, and no
   training profile.  Prefetch baselines carry noise jitter, so this
   also pins the exact encoding. *)
let test_warm_context_simulates_nothing () =
  with_dir "warm" @@ fun dir ->
  let cfg = stored_cfg dir in
  let kind = Driver.Study.Prefetch_study in
  let cold =
    with_context cfg kind prefetch_benches (fun ctx ->
        check_counts "cold" ~loaded:0 ~measured:4 ctx;
        baseline_bits ctx)
  in
  Alcotest.(check int) "three parts per baseline" 12
    (List.length (store_lines dir));
  with_context cfg kind prefetch_benches (fun ctx ->
      check_counts "warm" ~loaded:4 ~measured:0 ctx;
      check_baselines "warm" cold ctx;
      let st = Driver.Simcache.stats ctx.sim in
      Alcotest.(check (list int)) "warm: simulations, replays, artifact hits"
        [ 0; 0; 0 ]
        Driver.Simcache.[ st.simulations; st.replays; st.artifact_hits ];
      Alcotest.(check int) "warm: benches profiled" 0 (profiled ctx));
  (* The same short evolution without a store, over the warm baselines,
     and over a fully warm store prints the same study; only the fully
     warm one profiles nothing. *)
  let evolve cfg = short_evolve cfg kind prefetch_benches in
  let reference = evolve Driver.Study.default_config in
  let partly, n, secs = with_profile_summary (fun () -> evolve cfg) in
  Alcotest.check study "baselines from the store" reference partly;
  Alcotest.(check int) "baselines from the store: benches profiled" 2 n;
  Alcotest.(check bool) "baselines from the store: profile_s > 0" true
    (secs > 0.0);
  let warm, n, secs = with_profile_summary (fun () -> evolve cfg) in
  Alcotest.check study "everything from the store" reference warm;
  Alcotest.(check (pair int (float 0.0)))
    "everything from the store: benches profiled, profile_s" (0, 0.0)
    (n, secs)

(* Dropping one part of one baseline, or tearing it, makes that one
   baseline a miss: it alone is measured again, bit-equal, and appended
   again, so the next context loads every baseline. *)
let test_damaged_baseline_remeasured () =
  with_dir "damaged" @@ fun dir ->
  let cfg = stored_cfg dir in
  let kind = Driver.Study.Prefetch_study in
  let cold = with_context cfg kind prefetch_benches baseline_bits in
  let shard =
    List.find
      (fun f -> read_lines f <> [])
      (List.init S.shards (S.shard_file (S.open_store dir)))
  in
  let rewrite f =
    let lines = read_lines shard in
    Out_channel.with_open_bin shard (fun oc -> output_string oc (f lines))
  in
  let remeasured name =
    with_context cfg kind prefetch_benches (fun ctx ->
        check_counts name ~loaded:3 ~measured:1 ctx;
        check_baselines name cold ctx);
    with_context cfg kind prefetch_benches (fun ctx ->
        check_counts (name ^ ", reloaded") ~loaded:4 ~measured:0 ctx;
        check_baselines (name ^ ", reloaded") cold ctx)
  in
  let whole lines = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  (* deleted: the shard's first line *)
  rewrite (fun lines -> whole (List.tl lines));
  remeasured "deleted";
  (* torn: the shard's last line cut mid-value, with no newline *)
  rewrite (fun lines ->
      match List.rev lines with
      | last :: rest ->
        whole (List.rev rest)
        ^ String.sub last 0 (33 + ((String.length last - 33) / 2))
      | [] -> Alcotest.fail "empty shard");
  remeasured "torn"

(* Kinds never share baselines: a sched context over a directory a
   hyperblock context filled, over the same bench, measures its own. *)
let test_baselines_scoped_by_kind () =
  with_dir "kinds" @@ fun dir ->
  let cfg = stored_cfg dir in
  let benches = [ "codrle4" ] in
  let hb = Driver.Study.Hyperblock_study and sched = Driver.Study.Sched_study in
  with_context cfg hb benches (check_counts "hyperblock" ~loaded:0 ~measured:2);
  let reference =
    with_context Driver.Study.default_config sched benches baseline_bits
  in
  with_context cfg sched benches (fun ctx ->
      check_counts "sched" ~loaded:0 ~measured:2 ctx;
      check_baselines "sched" reference ctx;
      Alcotest.(check bool) "sched simulated its own" true
        ((Driver.Simcache.stats ctx.sim).simulations > 0));
  with_context cfg hb benches
    (check_counts "hyperblock, warm" ~loaded:2 ~measured:0);
  with_context cfg sched benches
    (check_counts "sched, warm" ~loaded:2 ~measured:0)

(* The prefetch study draws its noise per (genome, case index), so a
   context over [101.tomcatv] alone, where it is case 0, must not read
   what a context over [015.doduc; 101.tomcatv] stored for it as case 1:
   over that store it gives the same baselines and the same evolution
   as with no store. *)
let test_noisy_store_keyed_by_index () =
  with_dir "index" @@ fun dir ->
  let cfg = stored_cfg dir in
  let kind = Driver.Study.Prefetch_study and alone = [ "101.tomcatv" ] in
  ignore (short_evolve cfg kind prefetch_benches);
  let reference =
    with_context Driver.Study.default_config kind alone baseline_bits
  in
  with_context cfg kind alone (fun ctx ->
      check_counts "alone" ~loaded:0 ~measured:2 ctx;
      check_baselines "alone" reference ctx);
  Alcotest.check study "alone over the two-bench store"
    (short_evolve Driver.Study.default_config kind alone)
    (short_evolve cfg kind alone)

(* Noise-free values depend on the bench alone, so their stores stay
   shared across bench lists. *)
let test_noise_free_store_shared () =
  with_dir "shared" @@ fun dir ->
  let cfg = stored_cfg dir in
  let hb = Driver.Study.Hyperblock_study in
  with_context cfg hb [ "rawcaudio"; "codrle4" ]
    (check_counts "two benches" ~loaded:0 ~measured:4);
  with_context cfg hb [ "codrle4" ]
    (check_counts "codrle4 alone" ~loaded:2 ~measured:0)

(* A cold context on the fork pool at -j2 persists exactly what a -j1
   one does.  A context that can fork profiles every bench before it
   does, over a cold store and over a warm one, so that its workers
   inherit the profiles. *)
let test_fork_baselines_persisted () =
  if List.mem `Fork (Gp.Parmap.capabilities ()) then
    with_dir "fork" @@ fun dir ->
    let seq_dir = Filename.concat dir "seq"
    and fork_dir = Filename.concat dir "fork" in
    let kind = Driver.Study.Sched_study
    and benches = [ "codrle4"; "huff_dec" ] in
    let seq = with_context (stored_cfg seq_dir) kind benches baseline_bits in
    let fork_cfg = stored_cfg ~backend:`Fork ~jobs:2 fork_dir in
    with_context fork_cfg kind benches (fun ctx ->
        check_counts "fork" ~loaded:0 ~measured:4 ctx;
        check_baselines "fork" seq ctx;
        Alcotest.(check int) "fork: benches profiled" 2 (profiled ctx));
    with_context fork_cfg kind benches (fun ctx ->
        check_counts "fork, warm" ~loaded:4 ~measured:0 ctx;
        check_baselines "fork, warm" seq ctx;
        Alcotest.(check int) "fork, warm: benches profiled" 2 (profiled ctx));
    Alcotest.(check (list string)) "same lines on disk"
      (List.sort compare (store_lines seq_dir))
      (List.sort compare (store_lines fork_dir));
    with_context (stored_cfg fork_dir) kind benches (fun ctx ->
        check_counts "warm over the fork store" ~loaded:4 ~measured:0 ctx;
        check_baselines "warm over the fork store" seq ctx)

(* [--cache-dir] under parents that do not exist yet: the store creates
   them and persists, rather than warning on every shard. *)
let test_cache_dir_parents_created () =
  with_dir "parents" @@ fun dir ->
  let nested = Filename.concat dir (Filename.concat "a" "b") in
  let cfg =
    { (stored_cfg nested) with
      Driver.Study.params =
        { Gp.Params.tiny with Gp.Params.population_size = 4; generations = 1 } }
  in
  ignore
    (Driver.Study.specialize_with cfg Driver.Study.Hyperblock_study "codrle4");
  Alcotest.(check bool) "fitness and baselines persisted" true
    (List.length (store_lines nested) > 6);
  with_context cfg Driver.Study.Hyperblock_study [ "codrle4" ]
    (check_counts "rerun" ~loaded:2 ~measured:0)

let suite =
  [
    Alcotest.test_case "digest addressing" `Quick test_addressing;
    Alcotest.test_case "concurrent writers, disjoint shards" `Quick
      test_concurrent_disjoint;
    Alcotest.test_case "concurrent writers, colliding shard" `Quick
      test_concurrent_colliding;
    Alcotest.test_case "compaction idempotent" `Quick
      test_compaction_idempotent;
    Alcotest.test_case "EINTR storm during contended append" `Quick
      test_eintr_storm_append;
    Alcotest.test_case "persistent lock failure skips the append" `Quick
      test_lock_failure_skips_append;
    Alcotest.test_case "injected lock EINTR is retried" `Quick
      test_lock_eintr_injected;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "refused append" `Quick test_refused_append;
    Alcotest.test_case "unterminated tail evicted" `Quick
      test_unterminated_tail_evicted;
    Alcotest.test_case "warm context simulates nothing" `Slow
      test_warm_context_simulates_nothing;
    Alcotest.test_case "damaged baseline re-measured" `Slow
      test_damaged_baseline_remeasured;
    Alcotest.test_case "baselines scoped by kind" `Slow
      test_baselines_scoped_by_kind;
    Alcotest.test_case "noisy store keyed by case index" `Slow
      test_noisy_store_keyed_by_index;
    Alcotest.test_case "noise-free store shared" `Slow
      test_noise_free_store_shared;
    Alcotest.test_case "fork baselines persisted" `Slow
      test_fork_baselines_persisted;
    Alcotest.test_case "cache dir parents created" `Slow
      test_cache_dir_parents_created;
  ]
