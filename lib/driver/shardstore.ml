(* A content-addressed fitness store in one append-only file.

   The store is DIR/fitness.tsv under one exclusive lockf.  One line
   per entry — "digest value\n", 32-hex-char digest, hex float — so
   lines are exact round-trips and strict validation can reject torn
   writes.  Only this file is read: any other file in the directory is
   ignored, and an entry held nowhere else is recomputed, never
   answered wrongly.

   Compaction happens on load: a file that contains malformed lines
   (torn by a killed writer, including any text after the last
   newline) or superseded duplicate digests is rewritten in place under
   its exclusive lock — truncate and rewrite through the same
   descriptor, never rename, so a concurrent appender holding the path
   cannot be left appending to an unlinked inode.  Dropped lines are
   counted as evictions.  Compacting a clean file is a no-op, so
   compaction is idempotent. *)

type t = {
  file : string;
  tbl : (string, float) Hashtbl.t; (* digest -> fitness *)
  mutable degraded : bool; (* sticky for the store's lifetime *)
  mutable appends : int; (* 1-based write counter; chaos-site key *)
  mutable evictions : int; (* lines dropped by compaction *)
  mutable write_errors : int;
}

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

let render entries =
  let buf = Buffer.create 256 in
  List.iter
    (fun (digest, v) -> Buffer.add_string buf (Printf.sprintf "%s %h\n" digest v))
    entries;
  Buffer.to_bytes buf

(* Every syscall on the append/compact path goes through
   [Parmap.retry_eintr]: the supervised pools' SIGCHLD/SIGKILL traffic
   routinely interrupts a blocked lockf or write, and an EINTR is a
   retryable non-event, not a reason to degrade the store. *)
let retry_eintr = Gp.Parmap.retry_eintr

(* Take the file's exclusive lock, restarting interrupted waits.
   [Ok ()] means the lock is held; [Error e] is a persistent failure
   (ENOLCK and friends) and the caller must not touch the file —
   appending unlocked is exactly the torn-line interleaving the lock
   exists to prevent. *)
let lock_exclusive fd =
  match retry_eintr (fun () -> Unix.lockf fd Unix.F_LOCK 0) with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) -> Error e

(* Load the file, compacting it in place when it holds malformed or
   superseded lines.  The whole pass runs under the exclusive lock so a
   concurrent appender can neither tear our read nor lose an append
   between our read and the rewrite. *)
let load t =
  match
    retry_eintr (fun () ->
        Unix.openfile t.file [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)
  with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let locked = lock_exclusive fd = Ok () in
        let ic = Unix.in_channel_of_descr fd in
        let order = ref [] in (* first-seen order of digests *)
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
                if Hashtbl.mem t.tbl digest then incr dups
                else order := digest :: !order;
                Hashtbl.replace t.tbl digest v (* last write wins *)
              | None -> incr malformed
            end)
          (String.split_on_char '\n' body);
        (* Rewriting without the lock could drop a concurrent writer's
           append between our read and the truncate; an unlocked load
           still serves hits but leaves compaction to a later opener. *)
        if locked && (!malformed > 0 || !dups > 0) then begin
          (* Compact: rewrite the surviving entries through the same
             descriptor.  Anything dropped is an eviction. *)
          let b =
            render (List.rev_map (fun d -> (d, Hashtbl.find t.tbl d)) !order)
          in
          (try
             retry_eintr (fun () -> Unix.ftruncate fd 0);
             ignore (Unix.lseek fd 0 Unix.SEEK_SET);
             Gp.Parmap.write_all fd b
           with Unix.Unix_error _ -> ());
          t.evictions <- !malformed + !dups;
          Logs.warn (fun m ->
              m
                "fitness store %s: compacted on load (%d malformed, %d \
                 superseded of %d lines)"
                t.file !malformed !dups !lines)
        end)

let open_store dir =
  Gp.Dirs.mkdir_p dir;
  let t =
    {
      file = Filename.concat dir "fitness.tsv";
      tbl = Hashtbl.create 1024;
      degraded = false;
      appends = 0;
      evictions = 0;
      write_errors = 0;
    }
  in
  load t;
  if t.evictions > 0 then
    Gp.Telemetry.incr ~by:t.evictions "evaluator.cache_evictions";
  t

let file t = t.file

let find t digest = Hashtbl.find_opt t.tbl digest

let degraded t = t.degraded

let evictions t = t.evictions

let write_errors t = t.write_errors

let degrade t reason =
  t.degraded <- true;
  t.write_errors <- t.write_errors + 1;
  Gp.Telemetry.incr "evaluator.cache_write_errors";
  Logs.warn (fun m ->
      m
        "fitness store %s not writable (%s); continuing memo-only — \
         results from this run will not be persisted"
        t.file reason)

(* A persistent lockf failure is softer than an unwritable file: this
   one append is skipped (the memo keeps serving its values) but the
   store is not degraded — the next append tries the lock again. *)
let skip_unlocked t err =
  t.write_errors <- t.write_errors + 1;
  Gp.Telemetry.incr "evaluator.cache_write_errors";
  Logs.warn (fun m ->
      m
        "fitness store %s: could not take the append lock (%s); skipping \
         this append rather than writing unlocked — the values stay \
         memo-only"
        t.file (Unix.error_message err))

(* The file lock, with the chaos lock site in front: [raise:eintr]
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

(* Entries arrive pre-validated by the evaluator's write path and the
   serve daemon; the filter here keeps the store self-defending no
   matter who calls it: a line that would not load back (a malformed
   digest, which could also carry a forged line, or a non-finite value)
   is never written.  The rest enter the table and, unless the store is
   degraded, go out under the exclusive lock in one write, so
   concurrent appenders never interleave torn lines.  The chaos site
   fires once per write with the store-wide append counter as its key,
   so plans can target the Nth write. *)
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
  List.iter (fun (digest, v) -> Hashtbl.replace t.tbl digest v) entries;
  if entries <> [] && not t.degraded then begin
    t.appends <- t.appends + 1;
    let fault =
      Gp.Chaos.fire ~site:Gp.Chaos.site_cache_write ~key:t.appends ~attempt:1
    in
    try
      (match fault with
      | Some (Gp.Chaos.Raise _) ->
        raise (Unix.Unix_error (Unix.ENOSPC, "write", t.file))
      | Some Gp.Chaos.Torn_write | Some _ | None -> ());
      let fd =
        retry_eintr (fun () ->
            Unix.openfile t.file
              [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
              0o644)
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match lock_for_append t fd with
          | Error e -> skip_unlocked t e
          | Ok () ->
            let b = render entries in
            (* A chaos-injected torn write persists only half the batch,
               cut mid-line — the recoverable corruption compaction must
               evict on the next open. *)
            Gp.Parmap.write_all fd
              (match fault with
              | Some Gp.Chaos.Torn_write -> Bytes.sub b 0 (Bytes.length b / 2)
              | _ -> b))
    with
    | Unix.Unix_error (e, _, _) -> degrade t (Unix.error_message e)
    | Sys_error msg -> degrade t msg
  end
