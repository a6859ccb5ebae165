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
  match Gp.Chaos.plan_of_string ~seed:0 spec with
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
  ]
