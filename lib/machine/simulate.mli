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

    Only the first term depends on the schedule.  A run's block-entry
    counts and the schedule-independent remainder (a {!summary}) fix its
    cycles under any schedule lengths ({!retime}).  Every term is an
    integer far below 2^53, so the sum is exact in any order and
    [retime (summarize ...)] is bit-identical to the reference engine's
    event-order sum.

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

type summary = {
  block_entries : int array;  (** entries per block uid *)
  remainder : result;
      (** the noise-free result with [cycles] holding every term but the
          schedule lengths; the rest does not depend on the schedule *)
}
(** A run, minus its schedule: plain data, so it can cross a process
    boundary. *)

type engine = [ `Fast | `Reference ]
(** [`Fast] runs the closure engine with the timing model fused in
    ([retime] of [summarize]), [`Reference] the tree-walker through a
    timing observer that adds each block's length as it is entered; both
    produce bit-identical results. *)

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

val summarize :
  ?fuel:int -> ?overrides:(string * float array) list -> config:Config.t ->
  Profile.Layout.t -> summary
(** Run the closure engine once, counting block entries instead of
    adding schedule lengths. *)

val retime :
  ?noise:Random.State.t * float -> schedule_cycles:int array -> summary ->
  result
(** The run's result under [schedule_cycles]: the remainder plus the sum
    of entries times length over block uids, then [noise]; equal to
    {!run} under the same lengths.
    @raise Invalid_argument if the array is too short. *)
