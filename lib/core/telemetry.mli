(** A zero-dependency metrics and tracing core for the evaluation stack.

    The GP loop spends nearly all its wall clock compiling and simulating
    candidates; this module is the substrate every layer reports into so a
    run can answer "where did the time go?" without a profiler: wall-clock
    {!span}s, {!Counter}s, {!Histogram}s with exact percentiles, a
    process-wide registry of named metrics, and a pluggable {!sink} that
    writes one JSON object per line (JSONL).

    Telemetry is {e off by default}: with no sink installed, {!enabled} is
    [false] and every instrumentation entry point ({!incr}, {!observe},
    {!span}, {!emit}) returns immediately without reading the clock,
    touching the registry, or allocating — the instrumented code paths are
    bit-identical to uninstrumented ones.  Instrumentation never draws
    from any [Random] state, so enabling telemetry cannot perturb an
    evolution run.

    Forked workers ({!Parmap}) drop the inherited sink immediately after
    [fork], so child-side instrumentation can never interleave torn lines
    into the parent's stream. *)

(** {1 JSON} *)

(** A minimal JSON document.  Non-finite floats serialize as [null]
    (JSON has no representation for them). *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val json_to_string : json -> string
(** Compact single-line rendering (no trailing newline). *)

val json_of_string : string -> (json, string) result
(** Parse one JSON document; [Error msg] on malformed input.  Together
    with {!json_to_string} this round-trips every value this module can
    emit (used by the schema tests and the bench-report validator). *)

val member : string -> json -> json option
(** [member k (Obj ...)] is the value bound to [k], if any; [None] on
    non-objects. *)

(** {1 Sinks} *)

(** A record destination.  [write] receives one complete record; [close]
    flushes and releases any underlying channel. *)
type sink = { write : json -> unit; close : unit -> unit }

val jsonl_sink : string -> sink
(** A sink appending one line per record to the named file (created if
    missing).  Write failures degrade to silence — telemetry must never
    take a run down. *)

val memory_sink : unit -> sink * (unit -> json list)
(** An in-memory sink plus an accessor returning every record written so
    far, oldest first (for tests). *)

val set_sink : sink option -> unit
(** Install or remove the process sink.  Installing closes any previous
    sink; [set_sink None] closes and disables.  Also resets the registry
    and the record clock when a sink is installed, so each run's [ts]
    starts near 0. *)

val enabled : unit -> bool
(** Whether a sink is installed.  Every instrumentation entry point is a
    no-op when this is [false]. *)

val set_trace : bool -> unit
(** When true (and a sink is installed), every {!span} additionally emits
    a [kind = "span"] record with its start time and duration.  Off by
    default; spans always feed their named histogram either way. *)

(** {1 Metrics} *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> unit
  val value : t -> int
end

(** A streaming histogram with exact percentiles: samples are kept (as a
    growing float array) and sorted on demand, which is fine at the
    volumes one run produces (one sample per task / span). *)
module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  (** 0 when empty. *)

  val min : t -> float
  val max : t -> float
  (** 0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [0, 100], by linear interpolation
      between closest ranks; 0 when empty. *)

  val to_json : t -> json
  (** [{count, sum, mean, min, max, p50, p95}]. *)
end

(** {1 Registry}

    A process-wide table of named metrics.  Names are interned: two
    lookups of the same name return the same metric.  The registry is
    reset whenever a sink is installed. *)

val counter : string -> Counter.t
val histogram : string -> Histogram.t

val registry_json : unit -> json
(** Snapshot of every named metric: [{counters: {...}, histograms:
    {...}}]. *)

val reset : unit -> unit
(** Drop every named metric (counters and histograms). *)

(** {1 Instrumentation entry points}

    All of these are guarded no-ops when {!enabled} is [false]. *)

val now_s : unit -> float
(** Seconds since the record clock's epoch (sink installation, or process
    start).  Monotone non-decreasing under normal clock behaviour; used
    as the [ts] stamp of every emitted record. *)

val incr : ?by:int -> string -> unit
(** Bump the named registry counter. *)

val observe : string -> float -> unit
(** Add a sample to the named registry histogram. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording its wall-clock duration into the
    [name] histogram; with {!set_trace} on it also emits a
    [kind = "span"] record.  When disabled it is exactly [f ()].
    Exceptions propagate; the duration of a raising [f] is not
    recorded. *)

val emit : kind:string -> (string * json) list -> unit
(** Write one record to the sink: the given fields prefixed with
    [kind] and a [ts] stamp ({!now_s}). *)
