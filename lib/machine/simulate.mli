(** Trace-driven EPIC timing simulation.

    The interpreter executes the transformed, scheduled program once and
    streams its dynamic events into the timing model:

    cycles = sum of executed blocks' schedule lengths
           + cache stalls beyond an L1 hit per load
           + prefetch-queue backpressure
           + misprediction penalty per mispredicted branch
           + a redirect bubble per taken control transfer
           + [config.call_overhead_cycles] per dynamic call (0 on stock
             machines: call latency is already in schedule lengths).

    The same timing model can also consume a recorded event trace
    ({!replay}); the event sequence is identical, so cycles are
    bit-identical to re-interpreting.

    [noise] injects multiplicative measurement noise, modelling the real,
    non-reproducible Itanium of the paper's prefetching study. *)

type result = {
  cycles : float;
  output : float list;
  checksum : int;
  dynamic_instrs : int;
  branches : int;
  mispredicts : int;
  cache : Cache.stats;
}

type engine = [ `Fast | `Reference ]
(** [`Fast] runs the closure engine with the timing model fused in,
    [`Reference] the tree-walker through a timing observer; both produce
    bit-identical results. *)

val jittered : ?noise:Random.State.t * float -> float -> float
(** Apply the multiplicative measurement-noise model to a cycle count;
    identity without [noise].  Exposed so noise can be layered onto
    shared noise-free results with the exact float operations [run]
    would have performed. *)

val run :
  ?engine:engine -> ?fuel:int -> ?overrides:(string * float array) list ->
  ?noise:Random.State.t * float -> config:Config.t ->
  schedule_cycles:int array -> Profile.Layout.t -> result
(** [schedule_cycles] maps each global block uid of the prepared layout to
    its VLIW schedule length.
    @raise Invalid_argument if the array is too short. *)

val run_traced :
  ?fuel:int -> ?overrides:(string * float array) list ->
  ?max_trace_events:int -> config:Config.t -> schedule_cycles:int array ->
  Profile.Layout.t -> result * Trace.t option
(** Simulate (noise-free, closure engine) while recording the dynamic
    event stream.  Returns the trace unless it outgrew [max_trace_events]
    (default {!Trace.default_max_events}). *)

val replay :
  config:Config.t -> schedule_cycles:int array -> Trace.t -> result
(** Re-time a recorded run under (possibly different) schedule lengths by
    walking the event array; bit-identical to the simulation that would
    have recorded the same events.  Noise-free.
    @raise Invalid_argument if the array is too short for the trace. *)
