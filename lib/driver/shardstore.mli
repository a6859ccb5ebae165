(** The evaluator's persistent fitness store: one content-addressed,
    append-only file, [DIR/fitness.tsv], under one advisory [lockf].

    Open one handle per cache directory and share it: a study context
    opens one and hands it to its baselines and both dataset
    evaluators, so the file loads once.  The store holds fitness and,
    beside it, each context's baselines (the cycles, and the output
    checksum as two exact 32-bit halves) under reserved keys that no
    canonical genome key can equal; to the store both are plain
    entries.  Entries are "digest value" lines, hex floats for exact
    round-trips.  Every append takes the file's exclusive lock and goes
    out in one write, so concurrent studies sharing a --cache-dir never
    interleave torn lines.

    Only [fitness.tsv] is read.  Older layouts' files in the same
    directory (the 16 [shard-XX.tsv] files, a [fitness-cache.tsv]) are
    neither read nor touched: an entry held only there is a miss,
    recomputed, never answered wrongly.

    Opening the store creates the directory and any missing parents,
    loads the file into one in-memory table, and {e compacts} it when
    it holds torn or superseded lines (text after the last newline is
    torn, however well it parses): the file is rewritten in place under
    its exclusive lock (truncate + rewrite, never rename, so a
    concurrent appender cannot be stranded on an unlinked inode) and
    every dropped line is counted as an eviction
    ([evaluator.cache_evictions] in telemetry).  Compaction is
    idempotent — a clean file is never rewritten.  A torn append's
    fragment joins the next append's first line into one line with two
    spaces, which never parses: it is evicted on the next load and
    recomputed.

    The first failed write (ENOSPC, EACCES, a revoked mount) degrades
    the whole store to memo-only, sticky for the handle's lifetime: it
    is counted under [evaluator.cache_write_errors], warned about once,
    and later appends only fill the in-memory table.  The chaos site
    [evaluator.cache_write] fires once per write, keyed by the
    store-wide append counter, and [evaluator.cache_lock] fires around
    the append lock with the same key.

    Every lockf/open/write on the append and compaction paths restarts
    on EINTR ({!Gp.Parmap.retry_eintr}): signals from the supervised
    pools never degrade the store.  A {e persistent} lock failure skips
    that one append (counted, warned, values stay memo-only) rather than
    writing unlocked, and does not degrade the store.  All descriptors
    are opened [O_CLOEXEC] so pre-forked pool workers and daemon
    children never inherit store fds. *)

type t

val open_store : string -> t
(** [open_store dir] creates [dir] and its missing parents if needed
    ({!Gp.Dirs.mkdir_p}), loads [dir/fitness.tsv] and compacts it if
    damaged.  A directory that cannot be created leaves the store to
    degrade, with a warning, on its first append. *)

val file : t -> string
(** The path of the store's file, [dir/fitness.tsv]. *)

val is_digest : string -> bool
(** Whether a string is a store key: exactly the 32 lowercase hex
    characters [Digest.to_hex] produces. *)

val find : t -> string -> float option
(** Lookup by 32-hex-char digest in the in-memory table. *)

val append : t -> (string * float) list -> unit
(** Persist a batch under the file's exclusive lock in one write.
    Entries whose digest fails {!is_digest} and non-finite values are
    refused (warned, skipped, kept out of the table).  Appends to a
    degraded store are silently dropped; the entries still enter the
    in-memory table, so the running process keeps its hits either
    way. *)

val degraded : t -> bool
(** Whether the store has stopped persisting after a failed write
    (sticky). *)

val evictions : t -> int
(** Lines dropped by compaction on load. *)

val write_errors : t -> int
(** Failed or skipped writes since open.  A genuine write error also
    degrades the store; a persistent lock failure only skips the one
    append. *)
