(* Trace-driven EPIC timing simulation.

   The interpreter executes the (transformed, scheduled) program once and
   streams its dynamic events into the timing model:

     cycles = sum over executed blocks of the block's schedule length
            + per-load cache stalls beyond an L1 hit
            + mispredict penalty per mispredicted branch
            + redirect bubble per taken control transfer
            + config.call_overhead_cycles per dynamic call (0 on stock
              machines: the scheduler already embeds call latency in
              schedule lengths).

   Schedule lengths come from the VLIW list scheduler and are indexed by
   the global block uid of the prepared layout.  This decoupled model
   captures the first-order effects the paper's heuristics trade off:
   issue slots and dependence height (schedule lengths), memory latency
   (cache stalls), and control transfer costs (mispredictions).

   [run] instantiates the closure engine with this model fused in; the
   reference engine, trace recording ([run_traced]) and trace replay
   ([replay]) drive the same model through an observer.  The event
   sequence is identical on every path, so cycles are bit-identical.

   [noise] injects multiplicative measurement noise, used by the
   prefetching study to model a real, non-reproducible machine. *)

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

(* The timing model.  Cycles accumulate in an all-float record, which
   OCaml stores unboxed, so no event allocates. *)
type clock = {
  mutable cycles : float;
  penalty : float;        (* per mispredicted branch *)
  redirect : float;       (* per taken control transfer *)
  call_overhead : float;  (* per dynamic call *)
}

type timing = {
  clock : clock;
  block_cycles : float array;  (* schedule length by block uid *)
  cache : Cache.t;
  predictor : Profile.Predictor.t;
}

let timing ~(config : Config.t) ~(schedule_cycles : int array) ~n_branch_sites
    =
  {
    clock =
      {
        cycles = 0.0;
        penalty = float_of_int config.Config.mispredict_penalty;
        redirect = float_of_int config.Config.taken_branch_redirect;
        call_overhead = config.Config.call_overhead_cycles;
      };
    block_cycles = Array.map float_of_int schedule_cycles;
    cache = Cache.create config;
    predictor = Profile.Predictor.create ~n_sites:n_branch_sites;
  }

module Timing = struct
  type t = timing

  let block_enter t uid =
    t.clock.cycles <- t.clock.cycles +. t.block_cycles.(uid)

  let branch t site taken =
    let c = t.clock in
    if taken then c.cycles <- c.cycles +. c.redirect;
    if Profile.Predictor.observe t.predictor ~site ~taken then
      c.cycles <- c.cycles +. c.penalty

  let load t addr =
    t.clock.cycles <- t.clock.cycles +. float_of_int (Cache.load t.cache addr)

  let store t addr = Cache.store t.cache addr

  let prefetch t addr =
    t.clock.cycles <-
      t.clock.cycles +. float_of_int (Cache.prefetch t.cache addr)

  let call t _ =
    let c = t.clock in
    if c.call_overhead > 0.0 then c.cycles <- c.cycles +. c.call_overhead
end

(* The closure engine with the timing model fused in: events go straight
   to [Cache] and [Predictor]. *)
module Fused = Profile.Interp.Make (Timing)

(* The same timing model as an observer, for the reference engine,
   recording and replay. *)
let timing_observer (t : timing) : Profile.Interp.observer =
  {
    Profile.Interp.block_enter = Timing.block_enter t;
    branch = Timing.branch t;
    mem =
      (fun kind addr ->
        match kind with
        | Profile.Interp.Mload -> Timing.load t addr
        | Profile.Interp.Mstore -> Timing.store t addr
        | Profile.Interp.Mprefetch -> Timing.prefetch t addr);
    call = Timing.call t;
  }

let jittered ?noise cycles =
  match noise with
  | None -> cycles
  | Some (rng, amplitude) ->
    let jitter = 1.0 +. (amplitude *. (Random.State.float rng 2.0 -. 1.0)) in
    cycles *. jitter

let check_lengths ~schedule_cycles (layout : Profile.Layout.t) =
  if Array.length schedule_cycles < layout.Profile.Layout.n_blocks then
    invalid_arg "Simulate.run: schedule_cycles too short"

let assemble ?noise (t : timing) ~output ~dynamic_instrs =
  {
    cycles = jittered ?noise t.clock.cycles;
    output;
    checksum = Profile.Interp.checksum output;
    dynamic_instrs;
    branches = t.predictor.Profile.Predictor.branches;
    mispredicts = t.predictor.Profile.Predictor.mispredicts;
    cache = Cache.stats t.cache;
  }

let run ?(engine = `Fast) ?(fuel = 30_000_000) ?(overrides = []) ?noise
    ~(config : Config.t) ~(schedule_cycles : int array)
    (layout : Profile.Layout.t) : result =
  check_lengths ~schedule_cycles layout;
  let t =
    timing ~config ~schedule_cycles
      ~n_branch_sites:layout.Profile.Layout.n_branch_sites
  in
  let res =
    match engine with
    | `Fast -> Fused.run t ~fuel ~overrides layout
    | `Reference ->
      Profile.Interp.run_reference ~observer:(timing_observer t) ~fuel
        ~overrides layout
  in
  assemble ?noise t ~output:res.Profile.Interp.output
    ~dynamic_instrs:res.Profile.Interp.steps

(* Simulate and record the dynamic event stream.  Returns the noise-free
   result plus the trace when it fit the event budget; the recording
   wrapper forwards events unchanged, so the result is bit-identical to
   [run] without noise. *)
let run_traced ?(fuel = 30_000_000) ?(overrides = []) ?max_trace_events
    ~(config : Config.t) ~(schedule_cycles : int array)
    (layout : Profile.Layout.t) : result * Trace.t option =
  check_lengths ~schedule_cycles layout;
  let t =
    timing ~config ~schedule_cycles
      ~n_branch_sites:layout.Profile.Layout.n_branch_sites
  in
  let tr =
    Trace.create ?max_events:max_trace_events
      ~n_blocks:layout.Profile.Layout.n_blocks
      ~n_branch_sites:layout.Profile.Layout.n_branch_sites ()
  in
  let observer = Trace.recording_observer tr (timing_observer t) in
  let res = Profile.Interp.run ~observer ~fuel ~overrides layout in
  Trace.finish tr res;
  let result =
    assemble t ~output:res.Profile.Interp.output
      ~dynamic_instrs:res.Profile.Interp.steps
  in
  (result, if Trace.complete tr then Some tr else None)

(* Re-time a recorded run under (possibly different) schedule lengths by
   walking the event array instead of re-interpreting.  Noise-free. *)
let replay ~(config : Config.t) ~(schedule_cycles : int array) (tr : Trace.t) :
    result =
  (* An overflowed recording is a prefix of the run: re-timing it would
     silently under-count cycles, so reject it up front (Trace.replay
     would also raise, but only after cache/predictor setup). *)
  if not (Trace.complete tr) then
    invalid_arg "Simulate.replay: incomplete trace (event budget overflowed)";
  if Array.length schedule_cycles < tr.Trace.n_blocks then
    invalid_arg "Simulate.replay: schedule_cycles too short";
  let t =
    timing ~config ~schedule_cycles ~n_branch_sites:tr.Trace.n_branch_sites
  in
  Trace.replay tr (timing_observer t);
  assemble t ~output:tr.Trace.output ~dynamic_instrs:tr.Trace.steps
