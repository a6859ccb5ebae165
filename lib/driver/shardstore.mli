(** The evaluator's persistent fitness store, content-addressed and
    sharded by digest prefix.

    One {!open_store} per cache directory: entries ("digest value"
    lines, hex floats for exact round-trips) are spread over the
    {!shards} append-only files [shard-00.tsv] .. [shard-0f.tsv] by the
    first byte of their digest, each file under its own advisory
    [lockf].  Concurrent studies sharing a --cache-dir therefore only
    contend when they touch the same shard, and a shard whose filesystem
    fails (ENOSPC, a revoked mount) degrades alone — the other shards
    keep persisting.

    Opening the store loads those files, and no others, into one
    in-memory table, and {e compacts} any shard holding torn or
    superseded lines: the shard
    is rewritten in place under its exclusive lock (truncate + rewrite,
    never rename, so a concurrent appender cannot be stranded on an
    unlinked inode) and every dropped line is counted as an eviction
    ([evaluator.cache_evictions] in telemetry).  Compaction is
    idempotent — a clean shard is never rewritten.

    Failed shard writes are counted under [evaluator.cache_write_errors]
    and warned about once per shard; the chaos site
    [evaluator.cache_write] fires once per shard write, keyed by the
    store-wide append counter, and [evaluator.cache_lock] fires around
    the per-shard append lock with the same key.

    Every lockf/open/write on the append and compaction paths restarts
    on EINTR ({!Gp.Parmap.retry_eintr}): signals from the supervised
    pools never degrade a shard.  A {e persistent} lock failure skips
    that one append (counted, warned, values stay memo-only) rather than
    writing unlocked, and does not degrade the shard.  All descriptors
    are opened [O_CLOEXEC] so pre-forked pool workers and daemon
    children never inherit store fds. *)

type t

val shards : int
(** 16: the number of shard files, part of the store's addressing. *)

val open_store : string -> t
(** [open_store dir] creates [dir] if needed, loads the shard files and
    compacts damaged ones. *)

val is_digest : string -> bool
(** Whether a string is a store key: exactly the 32 lowercase hex
    characters [Digest.to_hex] produces. *)

val find : t -> string -> float option
(** Lookup by 32-hex-char digest in the merged in-memory table. *)

val append : t -> (string * float) list -> unit
(** Persist a batch: entries are grouped by shard and each group is
    appended under its shard's exclusive lock in one write.  Entries
    whose digest fails {!is_digest} and non-finite values are refused
    (warned, skipped, kept out of the table).  Appends to a degraded shard
    are silently dropped; the entries still enter the in-memory table,
    so the running process keeps its hits either way. *)

val shard_of : string -> int
(** The shard index a digest lives in: its first byte mod {!shards}. *)

val shard_file : t -> int -> string
(** The path of shard [i]'s file. *)

val mem_any_degraded : t -> bool
(** Whether at least one shard has stopped persisting (sticky). *)

val evictions : t -> int
(** Lines dropped by compaction on load. *)

val write_errors : t -> int
(** Failed or skipped shard writes since open.  A genuine write error
    also degrades its shard; a persistent lock failure only skips the
    one append. *)
