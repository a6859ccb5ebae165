(* A content-addressed fitness store sharded by digest prefix.

   The store is [shards] (16) append-only files, shard-00.tsv ..
   shard-0f.tsv, each under its own per-shard lockf: writers touching
   disjoint shards never contend, and a shard whose filesystem fails
   degrades alone instead of silencing the whole store.

   One line per entry — "digest value\n", 32-hex-char digest, hex float
   — so lines are exact round-trips and strict validation can reject
   torn writes.  A digest's shard is its first byte (two hex chars) mod
   16, a pure function of content, so any process finds entries where
   any other left them.  Only these 16 files are read: any other file in
   the directory is ignored, and an entry held nowhere else is
   recomputed, never answered wrongly.

   Compaction happens on load: a shard whose file contains malformed
   lines (torn by a killed writer, including any text after the last
   newline) or superseded duplicate digests is
   rewritten in place under its exclusive lock — truncate and rewrite
   through the same descriptor, never rename, so a concurrent appender
   holding the path cannot be left appending to an unlinked inode.
   Dropped lines are counted as evictions.  Compacting a clean shard is
   a no-op, so compaction is idempotent. *)

type t = {
  dir : string;
  tbl : (string, float) Hashtbl.t; (* digest -> fitness, all shards merged *)
  degraded : bool array; (* per shard, sticky for the store's lifetime *)
  mutable appends : int; (* 1-based per-shard-write counter; chaos-site key *)
  mutable evictions : int; (* lines dropped by compaction *)
  mutable write_errors : int;
}

let shards = 16

let shard_file t i = Filename.concat t.dir (Printf.sprintf "shard-%02x.tsv" i)

(* Strict line validation: the digest must be exactly the 32 lowercase
   hex characters [Digest.to_hex] produces and the value must parse to a
   finite float. *)
let is_digest s =
  String.length s = 32
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       s

let parse_line line =
  match String.index_opt line ' ' with
  | None -> None
  | Some i ->
    let digest = String.sub line 0 i in
    let value = String.sub line (i + 1) (String.length line - i - 1) in
    if not (is_digest digest) then None
    else (
      match float_of_string_opt value with
      | Some v when Float.is_finite v -> Some (digest, v)
      | _ -> None)

let hex_val c =
  if c >= '0' && c <= '9' then Char.code c - Char.code '0'
  else Char.code c - Char.code 'a' + 10

let shard_of digest = ((hex_val digest.[0] * 16) + hex_val digest.[1]) mod shards

let render entries =
  let buf = Buffer.create 256 in
  List.iter
    (fun (digest, v) -> Buffer.add_string buf (Printf.sprintf "%s %h\n" digest v))
    entries;
  Buffer.to_bytes buf

(* Every syscall on the append/compact path goes through
   [Parmap.retry_eintr]: the supervised pools' SIGCHLD/SIGKILL traffic
   routinely interrupts a blocked lockf or write, and an EINTR is a
   retryable non-event, not a reason to degrade a shard. *)
let retry_eintr = Gp.Parmap.retry_eintr

(* Take the shard's exclusive lock, restarting interrupted waits.
   [Ok ()] means the lock is held; [Error e] is a persistent failure
   (ENOLCK and friends) and the caller must not touch the file —
   appending unlocked is exactly the torn-line interleaving the lock
   exists to prevent. *)
let lock_exclusive fd =
  match retry_eintr (fun () -> Unix.lockf fd Unix.F_LOCK 0) with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) -> Error e

(* Load one shard file, compacting it in place when it holds malformed
   or superseded lines.  The whole pass runs under the shard's exclusive
   lock so a concurrent appender can neither tear our read nor lose an
   append between our read and the rewrite. *)
let load_shard t i =
  let path = shard_file t i in
  match
    retry_eintr (fun () -> Unix.openfile path [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)
  with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let locked = lock_exclusive fd = Ok () in
        let ic = Unix.in_channel_of_descr fd in
        let order = ref [] in (* first-seen order of digests *)
        let local : (string, float) Hashtbl.t = Hashtbl.create 64 in
        let lines = ref 0 in
        let malformed = ref 0 in
        let dups = ref 0 in
        (* Every append ends its lines with a newline, so text after the
           last one is a torn write however well it parses: a hex float
           cut short can still read as a finite, wrong value. *)
        let text = In_channel.input_all ic in
        let body, tail =
          match String.rindex_opt text '\n' with
          | Some i -> (String.sub text 0 i, String.length text - i - 1)
          | None -> ("", String.length text)
        in
        if tail > 0 then begin
          incr lines;
          incr malformed
        end;
        List.iter
          (fun line ->
            if line <> "" then begin
              incr lines;
              match parse_line line with
              | Some (digest, v) ->
                if Hashtbl.mem local digest then incr dups
                else order := digest :: !order;
                Hashtbl.replace local digest v (* last write wins *)
              | None -> incr malformed
            end)
          (String.split_on_char '\n' body);
        Hashtbl.iter (fun d v -> Hashtbl.replace t.tbl d v) local;
        (* Rewriting without the lock could drop a concurrent writer's
           append between our read and the truncate; an unlocked load
           still serves hits but leaves compaction to a later opener. *)
        if locked && (!malformed > 0 || !dups > 0) then begin
          (* Compact: rewrite the surviving entries through the same
             descriptor.  Anything dropped is an eviction. *)
          let survivors =
            List.rev_map (fun d -> (d, Hashtbl.find local d)) !order
          in
          let b = render (List.rev survivors) in
          (try
             retry_eintr (fun () -> Unix.ftruncate fd 0);
             ignore (Unix.lseek fd 0 Unix.SEEK_SET);
             Gp.Parmap.write_all fd b
           with Unix.Unix_error _ -> ());
          t.evictions <- t.evictions + !malformed + !dups;
          Logs.warn (fun m ->
              m
                "fitness shard %s: compacted on load (%d malformed, %d \
                 superseded of %d lines)"
                path !malformed !dups !lines)
        end)

let open_store dir =
  Gp.Dirs.mkdir_p dir;
  let t =
    {
      dir;
      tbl = Hashtbl.create 1024;
      degraded = Array.make shards false;
      appends = 0;
      evictions = 0;
      write_errors = 0;
    }
  in
  for i = 0 to shards - 1 do
    load_shard t i
  done;
  if t.evictions > 0 then
    Gp.Telemetry.incr ~by:t.evictions "evaluator.cache_evictions";
  t

let find t digest = Hashtbl.find_opt t.tbl digest

let mem_any_degraded t = Array.exists Fun.id t.degraded

let evictions t = t.evictions

let write_errors t = t.write_errors

let degrade t i reason =
  t.degraded.(i) <- true;
  t.write_errors <- t.write_errors + 1;
  Gp.Telemetry.incr "evaluator.cache_write_errors";
  Logs.warn (fun m ->
      m
        "fitness shard %s not writable (%s); that shard continues \
         memo-only — its results from this run will not be persisted"
        (shard_file t i) reason)

(* A persistent lockf failure is softer than an unwritable shard: this
   one group is skipped (the memo keeps serving its values) but the
   shard is not degraded — the next append tries the lock again. *)
let skip_unlocked t i err =
  t.write_errors <- t.write_errors + 1;
  Gp.Telemetry.incr "evaluator.cache_write_errors";
  Logs.warn (fun m ->
      m
        "fitness shard %s: could not take the append lock (%s); skipping \
         this append rather than writing unlocked — the values stay \
         memo-only"
        (shard_file t i) (Unix.error_message err))

(* The shard lock, with the chaos lock site in front: [raise:eintr]
   interrupts the first wait (the retry discipline must reacquire), any
   other [raise:MSG] simulates a persistent ENOLCK-class failure. *)
let lock_for_append t fd =
  match
    Gp.Chaos.fire ~site:Gp.Chaos.site_cache_lock ~key:t.appends ~attempt:1
  with
  | Some (Gp.Chaos.Raise msg) when String.lowercase_ascii msg = "eintr" ->
    let interrupted = ref false in
    (match
       retry_eintr (fun () ->
           if not !interrupted then begin
             interrupted := true;
             raise (Unix.Unix_error (Unix.EINTR, "lockf", ""))
           end;
           Unix.lockf fd Unix.F_LOCK 0)
     with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) -> Error e)
  | Some (Gp.Chaos.Raise _) -> Error Unix.ENOLCK
  | Some _ | None -> lock_exclusive fd

(* Append one shard's entries under its exclusive lock; the whole group
   goes out in one write so concurrent appenders never interleave torn
   lines.  The chaos site fires once per shard write with the store-wide
   append counter as its key, so plans can target the Nth write. *)
let append_shard t i entries =
  if entries = [] || t.degraded.(i) then ()
  else begin
    t.appends <- t.appends + 1;
    let fault =
      Gp.Chaos.fire ~site:Gp.Chaos.site_cache_write ~key:t.appends ~attempt:1
    in
    let path = shard_file t i in
    try
      (match fault with
      | Some (Gp.Chaos.Raise _) ->
        raise (Unix.Unix_error (Unix.ENOSPC, "write", path))
      | Some Gp.Chaos.Torn_write | Some _ | None -> ());
      let fd =
        retry_eintr (fun () ->
            Unix.openfile path
              [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
              0o644)
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match lock_for_append t fd with
          | Error e -> skip_unlocked t i e
          | Ok () ->
            let b = render entries in
            (* A chaos-injected torn write persists only half the group,
               cut mid-line — the recoverable corruption compaction must
               evict on the next open. *)
            Gp.Parmap.write_all fd
              (match fault with
              | Some Gp.Chaos.Torn_write -> Bytes.sub b 0 (Bytes.length b / 2)
              | _ -> b))
    with
    | Unix.Unix_error (e, _, _) -> degrade t i (Unix.error_message e)
    | Sys_error msg -> degrade t i msg
  end

(* Entries arrive pre-validated by the evaluator's write path and the
   serve daemon; the filter here keeps the store self-defending no
   matter who calls it: a line that would not load back (a malformed
   digest, which could also carry a forged line, or a non-finite value)
   is never written.  Grouping preserves first-seen order within each
   shard. *)
let append t entries =
  let entries =
    List.filter
      (fun (digest, v) ->
        if not (is_digest digest) then begin
          Logs.warn (fun m ->
              m "fitness cache: refusing to persist malformed digest %S"
                digest);
          false
        end
        else if Float.is_finite v then true
        else begin
          Logs.warn (fun m ->
              m "fitness cache: refusing to persist non-finite value %h for %s"
                v digest);
          false
        end)
      entries
  in
  if entries <> [] then begin
    let groups = Array.make shards [] in
    List.iter
      (fun ((digest, v) as e) ->
        Hashtbl.replace t.tbl digest v;
        let i = shard_of digest in
        groups.(i) <- e :: groups.(i))
      entries;
    Array.iteri (fun i g -> append_shard t i (List.rev g)) groups
  end
