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

   Only the first term depends on the schedule; the rest depends only on
   the event stream.  [summarize] instantiates the closure engine with
   this model fused in, counting block entries by uid instead of adding
   their lengths, and [retime] adds sum(count * length) to the remainder.
   Every summand is an integer far below 2^53 (which is why
   [call_overhead_cycles] is an int), so every partial sum is exact and
   the total does not depend on the order of additions: [retime] equals,
   bit for bit, the event-order sum the reference engine computes
   through an observer.

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

type summary = { block_entries : int array; remainder : result }

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
  entries : int array;  (* block entries by uid *)
  cache : Cache.t;
  predictor : Profile.Predictor.t;
}

let timing ~(config : Config.t) (layout : Profile.Layout.t) =
  {
    clock =
      {
        cycles = 0.0;
        penalty = float_of_int config.Config.mispredict_penalty;
        redirect = float_of_int config.Config.taken_branch_redirect;
        call_overhead = float_of_int config.Config.call_overhead_cycles;
      };
    entries = Array.make layout.Profile.Layout.n_blocks 0;
    cache = Cache.create config;
    predictor =
      Profile.Predictor.create ~n_sites:layout.Profile.Layout.n_branch_sites;
  }

module Timing = struct
  type t = timing

  let block_enter t uid = t.entries.(uid) <- t.entries.(uid) + 1

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

let jittered ?noise cycles =
  match noise with
  | None -> cycles
  | Some (rng, amplitude) ->
    let jitter = 1.0 +. (amplitude *. (Random.State.float rng 2.0 -. 1.0)) in
    cycles *. jitter

let assemble (t : timing) (res : Profile.Interp.result) =
  {
    cycles = t.clock.cycles;
    output = res.Profile.Interp.output;
    checksum = Profile.Interp.checksum res.Profile.Interp.output;
    dynamic_instrs = res.Profile.Interp.steps;
    branches = t.predictor.Profile.Predictor.branches;
    mispredicts = t.predictor.Profile.Predictor.mispredicts;
    cache = Cache.stats t.cache;
  }

let summarize ?(fuel = 30_000_000) ?(overrides = []) ~(config : Config.t)
    (layout : Profile.Layout.t) : summary =
  let t = timing ~config layout in
  let res = Fused.run t ~fuel ~overrides layout in
  { block_entries = t.entries; remainder = assemble t res }

let retime ?noise ~(schedule_cycles : int array) (s : summary) : result =
  let n = Array.length s.block_entries in
  if Array.length schedule_cycles < n then
    invalid_arg "Simulate.retime: schedule_cycles too short";
  let blocks = ref 0 in
  for uid = 0 to n - 1 do
    blocks := !blocks + (s.block_entries.(uid) * schedule_cycles.(uid))
  done;
  let r = s.remainder in
  { r with cycles = jittered ?noise (r.cycles +. float_of_int !blocks) }

(* The reference engine drives the same model through an observer,
   adding each block's length as it is entered. *)
let reference ~fuel ~overrides ~config ~schedule_cycles layout =
  let t = timing ~config layout in
  let c = t.clock and lengths = Array.map float_of_int schedule_cycles in
  let observer =
    {
      Profile.Interp.block_enter =
        (fun uid -> c.cycles <- c.cycles +. lengths.(uid));
      branch = Timing.branch t;
      mem =
        (fun kind addr ->
          match kind with
          | Profile.Interp.Mload -> Timing.load t addr
          | Profile.Interp.Mstore -> Timing.store t addr
          | Profile.Interp.Mprefetch -> Timing.prefetch t addr);
      call = Timing.call t;
    }
  in
  assemble t (Profile.Interp.run_reference ~observer ~fuel ~overrides layout)

let run ?(engine = `Fast) ?(fuel = 30_000_000) ?(overrides = []) ?noise
    ~(config : Config.t) ~(schedule_cycles : int array)
    (layout : Profile.Layout.t) : result =
  if Array.length schedule_cycles < layout.Profile.Layout.n_blocks then
    invalid_arg "Simulate.run: schedule_cycles too short";
  match engine with
  | `Fast ->
    retime ?noise ~schedule_cycles (summarize ~fuel ~overrides ~config layout)
  | `Reference ->
    let r = reference ~fuel ~overrides ~config ~schedule_cycles layout in
    { r with cycles = jittered ?noise r.cycles }
