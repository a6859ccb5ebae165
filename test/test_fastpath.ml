(* Golden equivalence suite for the simulation fast paths.

   The invariant under test: the closure-compiled engine (fused with the
   timing model or driving an observer), retimed cycle summaries,
   artifact-keyed result sharing and decisions walked from recorded
   hyperblock formation steps produce bit-identical cycles,
   checksums, dynamic counts, cache statistics and event streams to the
   reference tree-walking interpreter, across all four studies. *)

let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_result name (a : Machine.Simulate.result)
    (b : Machine.Simulate.result) =
  check_bits (name ^ ": cycles") a.Machine.Simulate.cycles
    b.Machine.Simulate.cycles;
  Alcotest.(check int)
    (name ^ ": checksum")
    a.Machine.Simulate.checksum b.Machine.Simulate.checksum;
  Alcotest.(check int)
    (name ^ ": dynamic_instrs")
    a.Machine.Simulate.dynamic_instrs b.Machine.Simulate.dynamic_instrs;
  Alcotest.(check int)
    (name ^ ": branches")
    a.Machine.Simulate.branches b.Machine.Simulate.branches;
  Alcotest.(check int)
    (name ^ ": mispredicts")
    a.Machine.Simulate.mispredicts b.Machine.Simulate.mispredicts;
  Alcotest.(check (list (float 0.0)))
    (name ^ ": output")
    a.Machine.Simulate.output b.Machine.Simulate.output;
  Alcotest.(check bool)
    (name ^ ": cache stats")
    true
    (a.Machine.Simulate.cache = b.Machine.Simulate.cache)

(* Study kind -> (benches, machine, opt config) exactly as
   Study.create_with wires them. *)
let study_cases =
  [
    (Driver.Study.Hyperblock_study, [ "codrle4"; "rawcaudio" ]);
    (Driver.Study.Regalloc_study, [ "codrle4"; "huff_enc" ]);
    (Driver.Study.Prefetch_study, [ "015.doduc" ]);
    (Driver.Study.Sched_study, [ "codrle4" ]);
  ]

let prepare_for kind bench =
  let opt_config =
    match kind with
    | Driver.Study.Prefetch_study -> Opt.Pipeline.no_unroll
    | _ -> Opt.Pipeline.default
  in
  Driver.Compiler.prepare ~opt_config (Benchmarks.Registry.find bench)

let compile_for kind prepared =
  let machine = Driver.Study.machine_of kind in
  let heuristics =
    Driver.Study.heuristics_with kind (Driver.Study.baseline_genome_of kind)
  in
  (machine, Driver.Compiler.compile ~machine ~heuristics prepared)

(* An engine's observer-mode run: its outcome and every event it
   reported, in order, one int per event with a tag in the low three
   bits. *)
let event_stream run ?fuel ~overrides (layout : Profile.Layout.t) =
  let events = ref (Array.make 4096 0) and n = ref 0 in
  let push tag v =
    if !n = Array.length !events then begin
      let grown = Array.make (2 * !n) 0 in
      Array.blit !events 0 grown 0 !n;
      events := grown
    end;
    !events.(!n) <- (v lsl 3) lor tag;
    incr n
  in
  let observer =
    {
      Profile.Interp.block_enter = push 0;
      branch = (fun site taken -> push (if taken then 2 else 1) site);
      mem =
        (fun kind addr ->
          push
            (match kind with
            | Profile.Interp.Mload -> 3
            | Profile.Interp.Mstore -> 4
            | Profile.Interp.Mprefetch -> 5)
            addr);
      call = push 6;
    }
  in
  let outcome =
    match run ~observer ?fuel ~overrides layout with
    | (r : Profile.Interp.result) ->
      Ok
        ( List.map Int64.bits_of_float r.Profile.Interp.output,
          Int64.bits_of_float r.Profile.Interp.return_value,
          r.Profile.Interp.steps )
    | exception e -> Error (Printexc.to_string e)
  in
  (outcome, Array.sub !events 0 !n)

let check_streams name (o1, e1) (o2, e2) =
  Alcotest.(check bool) (name ^ ": same outcome") true (o1 = o2);
  let n = min (Array.length e1) (Array.length e2) in
  let rec first i = if i < n && e1.(i) = e2.(i) then first (i + 1) else i in
  Alcotest.(check int)
    (name ^ ": events agree up to the longer stream's end")
    (max (Array.length e1) (Array.length e2))
    (first 0)

let run_engine ~observer ?fuel ~overrides layout =
  Profile.Interp.run ~observer ?fuel ~overrides layout

let run_ref ~observer ?fuel ~overrides layout =
  Profile.Interp.run_reference ~observer ?fuel ~overrides layout

(* Fast engine vs reference engine: bit-identical results on every
   study's machine, both datasets, and the observer-mode engine reports
   the reference's event stream event by event. *)
let test_fast_engine_equivalence () =
  List.iter
    (fun (kind, benches) ->
      List.iter
        (fun bench ->
          let p = prepare_for kind bench in
          let machine, c = compile_for kind p in
          List.iter
            (fun dataset ->
              let overrides =
                Benchmarks.Bench.overrides p.Driver.Compiler.bench dataset
              in
              let run engine =
                Machine.Simulate.run ~engine ~config:machine
                  ~schedule_cycles:c.Driver.Compiler.schedule_cycles ~overrides
                  c.Driver.Compiler.layout
              in
              let name =
                Printf.sprintf "%s/%s" (Driver.Study.kind_name kind) bench
              in
              check_result name (run `Fast) (run `Reference);
              check_streams name
                (event_stream run_engine ~overrides c.Driver.Compiler.layout)
                (event_stream run_ref ~overrides c.Driver.Compiler.layout))
            [ Benchmarks.Bench.Train; Benchmarks.Bench.Novel ])
        benches)
    study_cases

(* Both engines exhaust fuel at the same step, after the same events,
   for every budget up to a bound: the sweep crosses block boundaries,
   stops mid-block, just past a taken side exit (codrle4's hyperblocks)
   and around calls (072.sc), where the closure engine's per-segment
   charging must fall back to per-instruction checks. *)
let test_fast_engine_out_of_fuel () =
  let sweep bench ~crosses =
    let p = prepare_for Driver.Study.Hyperblock_study bench in
    let _, c = compile_for Driver.Study.Hyperblock_study p in
    let layout = c.Driver.Compiler.layout in
    let overrides =
      Benchmarks.Bench.overrides p.Driver.Compiler.bench Benchmarks.Bench.Train
    in
    for fuel = 1 to 400 do
      check_streams
        (Printf.sprintf "%s fuel %d" bench fuel)
        (event_stream run_engine ~fuel ~overrides layout)
        (event_stream run_ref ~fuel ~overrides layout)
    done;
    let crossed = ref false in
    let observer = crosses layout (fun () -> crossed := true) in
    Alcotest.(check bool)
      (bench ^ ": the sweep runs out of fuel")
      true
      (match Profile.Interp.run_reference ~observer ~fuel:400 ~overrides layout with
       | _ -> false
       | exception Profile.Interp.Out_of_fuel -> true);
    Alcotest.(check bool)
      (bench ^ ": the sweep crosses the feature under test")
      true !crossed
  in
  sweep "codrle4" ~crosses:(fun layout seen ->
      {
        Profile.Interp.null_observer with
        Profile.Interp.branch =
          (fun site taken ->
            let _, _, id = layout.Profile.Layout.branch_name.(site) in
            if taken && id >= 0 then seen ());
      });
  sweep "072.sc" ~crosses:(fun _ seen ->
      { Profile.Interp.null_observer with Profile.Interp.call = (fun _ -> seen ()) })

(* A run's cycle summary retimed reproduces the reference engine's
   event-order sum bit for bit, under the compiled schedule lengths and
   under perturbed ones (the sched-study situation: same events,
   different timing): +1 per block and a seeded random perturbation. *)
let test_summary_equivalence () =
  let rng = Random.State.make [| 0x5d3 |] in
  List.iter
    (fun (kind, benches) ->
      List.iter
        (fun bench ->
          let p = prepare_for kind bench in
          let machine, c = compile_for kind p in
          let compiled = c.Driver.Compiler.schedule_cycles in
          let schedules =
            [
              ("compiled", compiled);
              ("+1", Array.map succ compiled);
              ( "random",
                Array.map
                  (fun l -> max 1 (l + Random.State.int rng 7 - 3))
                  compiled );
            ]
          in
          List.iter
            (fun dataset ->
              let overrides =
                Benchmarks.Bench.overrides p.Driver.Compiler.bench dataset
              in
              let summary =
                Machine.Simulate.summarize ~config:machine ~overrides
                  c.Driver.Compiler.layout
              in
              List.iter
                (fun (tag, schedule_cycles) ->
                  check_result
                    (Printf.sprintf "%s/%s/%s %s schedule"
                       (Driver.Study.kind_name kind) bench
                       (match dataset with
                       | Benchmarks.Bench.Train -> "train"
                       | Benchmarks.Bench.Novel -> "novel")
                       tag)
                    (Machine.Simulate.retime ~schedule_cycles summary)
                    (Machine.Simulate.run ~engine:`Reference ~config:machine
                       ~schedule_cycles ~overrides c.Driver.Compiler.layout))
                schedules)
            Benchmarks.Bench.[ Train; Novel ])
        benches)
    study_cases

(* Each study's golden genomes: the baseline, other candidates, and a
   pair that differs but makes the same decisions — a real-valued
   function and its double (positive scaling keeps every ranking and
   threshold test), a Boolean one and its conjunction with itself. *)
let golden_genomes kind =
  let fs = Driver.Study.feature_set_of kind in
  let reals others pair =
    let b = Gp.Sexp.parse_real fs pair in
    List.map (fun s -> Gp.Expr.Real (Gp.Sexp.parse_real fs s)) others
    @ [ Gp.Expr.Real b; Gp.Expr.Real (Gp.Expr.Rmul (b, Gp.Expr.Rconst 2.0)) ]
  in
  Driver.Study.baseline_genome_of kind
  ::
  (match kind with
  | Driver.Study.Hyperblock_study ->
    reals [ "(sub num_ops dep_height)" ] "(mul exec_ratio 2.0)"
  | Driver.Study.Regalloc_study -> reals [ "(sub degree uses)" ] "(mul w uses)"
  | Driver.Study.Sched_study ->
    reals [ "(sub 0.0 lwd)"; "(mul critical_path 0.5)" ] "(add slack latency)"
  | Driver.Study.Prefetch_study ->
    let b = Gp.Sexp.parse_bool fs "(gt trip_estimate 8.0)" in
    [
      Gp.Expr.Bool (Gp.Sexp.parse_bool fs "large_array");
      Gp.Expr.Bool b;
      Gp.Expr.Bool (Gp.Expr.Band (b, b));
    ])

let hb_priority = function
  | Gp.Expr.Real e -> e
  | Gp.Expr.Bool _ -> invalid_arg "hb_priority: a Boolean genome"

(* Every golden hyperblock genome's walk over the steps all of them
   recorded is the decision text its own live formation run writes. *)
let check_walks benches genomes =
  let machine = Driver.Study.machine_of Driver.Study.Hyperblock_study in
  List.iter
    (fun bench ->
      let p = prepare_for Driver.Study.Hyperblock_study bench in
      let prof = p.Driver.Compiler.prof in
      let steps = Hashtbl.create 64 in
      let live =
        List.map
          (fun g ->
            let decisions = Buffer.create 256 in
            ignore
              (Hyperblock.Form.run ~decisions
                 ~record:(fun fname lines step ->
                   Hashtbl.replace steps (fname, lines) step)
                 ~machine ~prof ~priority:(hb_priority g)
                 (Ir.Func.copy_program p.Driver.Compiler.optimized));
            Buffer.contents decisions)
          genomes
      in
      List.iteri
        (fun gi (g, text) ->
          Alcotest.(check (option string))
            (Printf.sprintf "hyperblock genome %d on %s: walked decisions" gi
               bench)
            (Some text)
            (Hyperblock.Form.walk ~machine ~priority:(hb_priority g)
               ~step:(fun fname lines -> Hashtbl.find_opt steps (fname, lines))
               p.Driver.Compiler.optimized))
        (List.combine genomes live))
    benches

(* A whole study context with fast paths on vs off: identical fitness
   for every study's golden genomes on every case and both datasets.
   The train pass fills the decision tier, so the same-decision pair's
   second genome is a decision hit and the novel pass reaches the tier
   with no artifact for its dataset yet; in the hyperblock study the
   recorded steps must answer too, and every genome's walk must write
   its live run's decisions. *)
let test_study_fast_vs_slow () =
  List.iter
    (fun (kind, benches) ->
      let genomes = golden_genomes kind in
      let measure ~fast_sim =
        let ctx =
          Driver.Study.create_with
            { Driver.Study.default_config with fast_sim }
            kind benches
        in
        let values =
          List.concat_map
            (fun dataset ->
              List.concat
                (List.mapi
                   (fun gi g ->
                     List.mapi
                       (fun case bench ->
                         ( Printf.sprintf "%s genome %d on %s/%s"
                             (Driver.Study.kind_name kind) gi bench
                             (match dataset with
                             | Benchmarks.Bench.Train -> "train"
                             | Benchmarks.Bench.Novel -> "novel"),
                           Driver.Study.speedup ctx g ~case ~dataset ))
                       benches)
                   genomes))
            Benchmarks.Bench.[ Train; Novel ]
        in
        if fast_sim then begin
          let st = Driver.Simcache.stats ctx.Driver.Study.sim in
          Alcotest.(check bool)
            (Driver.Study.kind_name kind ^ ": the decision tier answered")
            true
            (st.Driver.Simcache.decision_hits > 0);
          if kind = Driver.Study.Hyperblock_study then
            Alcotest.(check bool)
              "hyperblock: recorded steps answered" true
              (st.Driver.Simcache.step_hits > 0)
        end;
        values
      in
      let fast = measure ~fast_sim:true and slow = measure ~fast_sim:false in
      List.iter2
        (fun (name, f) (_, s) -> check_bits name f s)
        fast slow;
      if kind = Driver.Study.Hyperblock_study then check_walks benches genomes)
    study_cases

(* The compiled-eval golden path: a study context with Evalc on vs off
   (the [--no-compiled-eval] tree-walker reference) must score every
   candidate bit-identically, in every study: per-block priorities in
   scheduling, per-region scores in hyperblock formation, the Boolean
   batch over a function's candidate loads in prefetching, and the
   per-range fold of per-(range, block) savings in register
   allocation. *)
let test_study_compiled_vs_walk () =
  let cases =
    [
      ( Driver.Study.Sched_study, "codrle4",
        [ "(sub 0.0 lwd)"; "(add slack latency)"; "(mul critical_path 0.5)" ] );
      ( Driver.Study.Hyperblock_study, "codrle4",
        [ "(mul exec_ratio 2.0)"; "(sub num_ops dep_height)" ] );
      ( Driver.Study.Prefetch_study, "171.swim",
        [ "large_array"; "(gt trip_estimate 8.0)";
          "(and large_array (not trip_known))" ] );
      ( Driver.Study.Regalloc_study, "huff_enc",
        [ "(sub degree uses)"; "(mul w uses)";
          "(div (add uses defs) range_blocks)" ] );
    ]
  in
  List.iter
    (fun (kind, bench, exprs) ->
      let fs = Driver.Study.feature_set_of kind in
      let sort = Driver.Study.sort_of kind in
      let genomes =
        Driver.Study.baseline_genome_of kind
        :: List.map (Gp.Sexp.parse_genome fs ~sort) exprs
      in
      let measure ~compiled_eval =
        let cfg = { Driver.Study.default_config with compiled_eval } in
        let ctx = Driver.Study.create_with cfg kind [ bench ] in
        List.map
          (fun g ->
            Driver.Study.speedup ctx g ~case:0 ~dataset:Benchmarks.Bench.Train)
          genomes
      in
      let compiled = measure ~compiled_eval:true
      and walked = measure ~compiled_eval:false in
      List.iteri
        (fun i (c, w) ->
          check_bits
            (Printf.sprintf "%s genome %d" (Driver.Study.kind_name kind) i)
            c w)
        (List.combine compiled walked))
    cases

(* Two different genomes that induce the same compilation decisions must
   share one simulation (the artifact hit), the second of them without
   running the passes after the one under study (the decision hit) and,
   in the hyperblock study, without running formation either (the step
   hit), and a genome whose decisions equal the baseline's scores
   speedup exactly 1.0 off the baseline's artifact without simulating. *)
let test_artifact_collision () =
  let stats ctx = Driver.Simcache.stats ctx.Driver.Study.sim in
  (* Measure [first] then [second] on train; [second] must be a decision
     hit, hence an artifact hit, and a step hit in the hyperblock study.
     Returns both speedups and the simulation cache's stats with the
     simulations the pair ran. *)
  let pair kind bench first second =
    let ctx =
      Driver.Study.create_with Driver.Study.default_config kind [ bench ]
    in
    let speedup g =
      Driver.Study.speedup ctx g ~case:0 ~dataset:Benchmarks.Bench.Train
    in
    let st = stats ctx in
    let sims = st.Driver.Simcache.simulations in
    let s1 = speedup first in
    let hits =
      Driver.Simcache.[ st.decision_hits; st.artifact_hits; st.step_hits ]
    in
    let s2 = speedup second in
    let step = if kind = Driver.Study.Hyperblock_study then 1 else 0 in
    Alcotest.(check (list int))
      (Driver.Study.kind_name kind
     ^ ": the second genome's decision, artifact and step hits")
      (List.map2 ( + ) [ 1; 1; step ] hits)
      Driver.Simcache.[ st.decision_hits; st.artifact_hits; st.step_hits ];
    (s1, s2, st, st.Driver.Simcache.simulations - sims)
  in
  let real kind s =
    Gp.Expr.Real (Gp.Sexp.parse_real (Driver.Study.feature_set_of kind) s)
  in
  (* Positive scaling preserves the priority order, hence the decisions,
     hence the artifact. *)
  let hb = Driver.Study.Hyperblock_study in
  let s1, s2, st, sims =
    pair hb "codrle4"
      (real hb "(mul exec_ratio 2.0)")
      (real hb "(mul exec_ratio 4.0)")
  in
  check_bits "same decisions, same fitness" s1 s2;
  Alcotest.(check bool) "one evaluation counted" true (sims <= 1);
  Alcotest.(check bool)
    "artifact hits > 0" true
    (st.Driver.Simcache.artifact_hits > 0);
  let ra = Driver.Study.Regalloc_study in
  let s1, s2, _, _ =
    pair ra "huff_enc" (real ra "(mul w uses)")
      (real ra "(mul (mul w uses) 2.0)")
  in
  check_bits "regalloc: same decisions, same fitness" s1 s2;
  (* The prefetch study's noise is drawn per genome, so only the hit is
     comparable. *)
  let pf = Driver.Study.Prefetch_study in
  let conf =
    Gp.Sexp.parse_bool (Driver.Study.feature_set_of pf) "(gt trip_estimate 8.0)"
  in
  ignore
    (pair pf "015.doduc" (Gp.Expr.Bool conf)
       (Gp.Expr.Bool (Gp.Expr.Band (conf, conf))));
  (* Scaling the baseline ranking reproduces the baseline artifact. *)
  let ctx_sched =
    Driver.Study.create_with Driver.Study.default_config
      Driver.Study.Sched_study [ "codrle4" ]
  in
  let s_lwd =
    Driver.Study.speedup ctx_sched
      (Gp.Expr.Real (Gp.Sexp.parse_real Sched.Priority.feature_set "(mul lwd 2.0)"))
      ~case:0 ~dataset:Benchmarks.Bench.Train
  in
  check_bits "baseline-equal artifact scores exactly 1.0" 1.0 s_lwd

(* [Simcache.measure] = a fresh compile and reference simulation. *)
let check_measure sim name ~machine ~heuristics ~dataset p =
  let c = Driver.Compiler.compile ~machine ~heuristics p in
  check_result name
    (fst (Driver.Simcache.measure sim ~machine ~heuristics ~dataset p))
    (Machine.Simulate.run ~engine:`Reference ~config:machine
       ~schedule_cycles:c.Driver.Compiler.schedule_cycles
       ~overrides:(Benchmarks.Bench.overrides p.Driver.Compiler.bench dataset)
       c.Driver.Compiler.layout)

let hb_heuristics s =
  Driver.Study.heuristics_with Driver.Study.Hyperblock_study
    (Gp.Expr.Real
       (Gp.Sexp.parse_real Hyperblock.Features.feature_set s))

(* The recorded steps' edge cases, each bit-identical to the slow path:
   a candidate whose every step is recorded but whose decision vector
   is new misses the tier and compiles; one prefix's steps never answer
   another's functions of the same name; and a cache bounded at two
   entries a table (the steps reset mid-run) still measures every
   golden genome right. *)
let test_recorded_steps () =
  let machine = Driver.Study.machine_of Driver.Study.Hyperblock_study in
  let train = Benchmarks.Bench.Train in
  let counts sim =
    let st = Driver.Simcache.stats sim in
    Driver.Simcache.[ st.step_hits; st.decision_hits ]
  in
  (* epic's quantize attempts regions of at most 5 ops and its main,
     along exec_ratio's decisions, regions of at least 8: the third
     genome decides quantize like the second and main like the first,
     so every step it takes is recorded, in a combination never
     compiled. *)
  let epic = prepare_for Driver.Study.Hyperblock_study "epic" in
  let sim = Driver.Simcache.create () in
  List.iter
    (fun s ->
      check_measure sim s ~machine ~heuristics:(hb_heuristics s)
        ~dataset:train epic)
    [ "exec_ratio"; "(sub 0.0 exec_ratio)" ];
  let before = counts sim in
  let mixed = "(tern (lt total_ops 6.0) (sub 0.0 exec_ratio) exec_ratio)" in
  check_measure sim "recorded steps, new decisions" ~machine
    ~heuristics:(hb_heuristics mixed) ~dataset:train epic;
  Alcotest.(check (list int))
    "walked, then missed the tier: step hits, decision hits"
    (List.map2 ( + ) [ 1; 0 ] before)
    (counts sim);
  (* codrle4 and rawcaudio each have one function, main. *)
  let codrle4 = prepare_for Driver.Study.Hyperblock_study "codrle4"
  and rawcaudio = prepare_for Driver.Study.Hyperblock_study "rawcaudio" in
  let sim = Driver.Simcache.create () in
  let measure name s p =
    check_measure sim name ~machine ~heuristics:(hb_heuristics s)
      ~dataset:train p
  in
  measure "codrle4" "exec_ratio" codrle4;
  measure "rawcaudio after codrle4" "exec_ratio" rawcaudio;
  Alcotest.(check int)
    "codrle4's steps do not answer rawcaudio" 0
    (Driver.Simcache.stats sim).Driver.Simcache.step_hits;
  measure "rawcaudio, same decisions" "(mul exec_ratio 2.0)" rawcaudio;
  Alcotest.(check int)
    "rawcaudio's own steps do" 1
    (Driver.Simcache.stats sim).Driver.Simcache.step_hits;
  let sim = Driver.Simcache.create ~max_artifacts:2 () in
  let genomes = golden_genomes Driver.Study.Hyperblock_study in
  List.iter
    (fun dataset ->
      List.iter
        (fun p ->
          List.iteri
            (fun gi g ->
              check_measure sim
                (Printf.sprintf "bounded at 2: genome %d on %s" gi
                   p.Driver.Compiler.bench.Benchmarks.Bench.name)
                ~machine
                ~heuristics:
                  (Driver.Study.heuristics_with Driver.Study.Hyperblock_study
                     g)
                ~dataset p)
            genomes)
        [ codrle4; rawcaudio; epic ])
    Benchmarks.Bench.[ Train; Novel ]

(* A known run key under a new schedule is answered from its stored
   summary, the schedule it was first simulated under from the stored
   result (an artifact hit, which later schedules do not replace), and
   the same program on another machine by a fresh simulation — each
   answer bit-identical to a fresh simulation. *)
let test_simcache_retimes_known_key () =
  let kind = Driver.Study.Sched_study in
  let p = prepare_for kind "codrle4" in
  let machine, c1 = compile_for kind p in
  let reschedule k =
    {
      c1 with
      Driver.Compiler.schedule_cycles =
        Array.map (fun l -> l + k) c1.Driver.Compiler.schedule_cycles;
    }
  in
  let sim = Driver.Simcache.create () in
  let st = Driver.Simcache.stats sim in
  let dataset = Benchmarks.Bench.Train in
  let overrides = Benchmarks.Bench.overrides p.Driver.Compiler.bench dataset in
  let step ?(machine = machine) name c ~simulations ~replays ~hits =
    let cached = Driver.Simcache.simulate sim ~machine ~dataset p c in
    check_result name cached
      (Machine.Simulate.run ~config:machine
         ~schedule_cycles:c.Driver.Compiler.schedule_cycles ~overrides
         c.Driver.Compiler.layout);
    Alcotest.(check (list int))
      (name ^ ": simulations, replays, artifact hits")
      [ simulations; replays; hits ]
      Driver.Simcache.[ st.simulations; st.replays; st.artifact_hits ]
  in
  step "first sighting" c1 ~simulations:1 ~replays:0 ~hits:0;
  step "same artifact" c1 ~simulations:1 ~replays:0 ~hits:1;
  step "second schedule retimes" (reschedule 1) ~simulations:1 ~replays:1
    ~hits:1;
  step "third schedule retimes" (reschedule 2) ~simulations:1 ~replays:2
    ~hits:1;
  step "second schedule again" (reschedule 1) ~simulations:1 ~replays:3
    ~hits:1;
  step "first schedule still hits" c1 ~simulations:1 ~replays:3 ~hits:2;
  (* The remainder depends on cache geometry and penalties, so another
     machine never retimes this machine's summary. *)
  step "another machine simulates" ~machine:Machine.Config.itanium1 c1
    ~simulations:2 ~replays:3 ~hits:2

(* At --backend fork -jN the baselines run in pool children; their
   artifacts must still reach the parent's table, so a candidate that
   compiles to a baseline artifact is a hit there (and in every
   evaluation worker forked from it) rather than a fresh simulation. *)
let test_fork_baselines_reach_parent () =
  if List.mem `Fork (Gp.Parmap.capabilities ()) then begin
    let cfg =
      { Driver.Study.default_config with Driver.Study.backend = `Fork; jobs = 2 }
    in
    let ctx =
      Driver.Study.create_with cfg Driver.Study.Sched_study
        [ "codrle4"; "huff_dec" ]
    in
    Fun.protect
      ~finally:(fun () -> Driver.Study.close ctx)
      (fun () ->
        let st = Driver.Simcache.stats ctx.Driver.Study.sim in
        let sims = st.Driver.Simcache.simulations
        and hits = st.Driver.Simcache.artifact_hits in
        let baseline_equal =
          Gp.Expr.Real
            (Gp.Sexp.parse_real Sched.Priority.feature_set "(mul lwd 2.0)")
        in
        List.iter
          (fun (case, dataset) ->
            check_bits "baseline-equal artifact scores exactly 1.0" 1.0
              (Driver.Study.speedup ctx baseline_equal ~case ~dataset))
          Benchmarks.Bench.[ (0, Train); (1, Train); (0, Novel); (1, Novel) ];
        Alcotest.(check int)
          "no simulation in the parent" sims st.Driver.Simcache.simulations;
        Alcotest.(check int)
          "four artifact hits" (hits + 4) st.Driver.Simcache.artifact_hits;
        (* The adopted entries carry their summaries: a baseline
           artifact under new schedule lengths is retimed, not
           simulated. *)
        let p = ctx.Driver.Study.prepared.(0) in
        let machine, c = compile_for Driver.Study.Sched_study p in
        let c =
          {
            c with
            Driver.Compiler.schedule_cycles =
              Array.map succ c.Driver.Compiler.schedule_cycles;
          }
        in
        let replays = st.Driver.Simcache.replays in
        ignore
          (Driver.Simcache.simulate ctx.Driver.Study.sim ~machine
             ~dataset:Benchmarks.Bench.Train p c);
        Alcotest.(check (list int))
          "a rescheduled baseline is retimed: simulations, replays"
          [ sims; replays + 1 ]
          Driver.Simcache.[ st.simulations; st.replays ])
  end

(* The uid-indexed scheduler output equals the (fname, label) hashtable
   lookup per block. *)
let test_uid_schedule_lengths () =
  let p = prepare_for Driver.Study.Hyperblock_study "codrle4" in
  let config = Machine.Config.table3 in
  let p1 = Ir.Func.copy_program p.Driver.Compiler.optimized in
  let p2 = Ir.Func.copy_program p.Driver.Compiler.optimized in
  let tbl = Sched.List_sched.schedule_program ~config p1 in
  let arr = Sched.List_sched.schedule_program_cycles ~config p2 in
  let layout = Profile.Layout.prepare p2 in
  Alcotest.(check int)
    "length = n_blocks"
    layout.Profile.Layout.n_blocks (Array.length arr);
  Array.iteri
    (fun uid (fname, label) ->
      Alcotest.(check int)
        (Printf.sprintf "uid %d (%s.%s)" uid fname label)
        (Option.value ~default:1 (Hashtbl.find_opt tbl (fname, label)))
        arr.(uid))
    layout.Profile.Layout.block_name

(* call_overhead_cycles charges exactly once per dynamic call, in the
   fused, reference and summary paths alike. *)
let test_call_overhead () =
  let p = prepare_for Driver.Study.Hyperblock_study "072.sc" in
  let machine, c = compile_for Driver.Study.Hyperblock_study p in
  let overrides =
    Benchmarks.Bench.overrides p.Driver.Compiler.bench Benchmarks.Bench.Train
  in
  let layout = c.Driver.Compiler.layout
  and schedule_cycles = c.Driver.Compiler.schedule_cycles in
  let calls = ref 0 in
  ignore
    (Profile.Interp.run ~overrides
       ~observer:
         { Profile.Interp.null_observer with call = (fun _ -> incr calls) }
       layout);
  Alcotest.(check bool) "benchmark performs calls" true (!calls > 0);
  let base =
    Machine.Simulate.run ~config:machine ~schedule_cycles ~overrides layout
  in
  let costly = { machine with Machine.Config.call_overhead_cycles = 5 } in
  let run engine =
    Machine.Simulate.run ~engine ~config:costly ~schedule_cycles ~overrides
      layout
  in
  (* Integer-valued cycle arithmetic stays exact, so the overhead adds up
     to precisely 5 * calls no matter where it lands in the sum. *)
  let live = run `Fast in
  check_bits "live overhead = base + 5*calls"
    (base.Machine.Simulate.cycles +. (5.0 *. float_of_int !calls))
    live.Machine.Simulate.cycles;
  let retimed =
    Machine.Simulate.retime ~schedule_cycles
      (Machine.Simulate.summarize ~config:costly ~overrides layout)
  in
  check_result "retimed summary = fused run under overhead" live retimed;
  check_result "retimed summary = reference run under overhead"
    (run `Reference) retimed

let suite =
  [
    Alcotest.test_case "fast engine bit-identical across studies" `Slow
      test_fast_engine_equivalence;
    Alcotest.test_case "fast engine fuel accounting" `Quick
      test_fast_engine_out_of_fuel;
    Alcotest.test_case "cycle summaries bit-identical" `Slow
      test_summary_equivalence;
    Alcotest.test_case "study results identical fast vs slow" `Slow
      test_study_fast_vs_slow;
    Alcotest.test_case "study results identical compiled vs walk" `Slow
      test_study_compiled_vs_walk;
    Alcotest.test_case "artifact collision shares one simulation" `Slow
      test_artifact_collision;
    Alcotest.test_case "recorded hyperblock steps: edge cases" `Slow
      test_recorded_steps;
    Alcotest.test_case "simcache retimes a known trace key" `Slow
      test_simcache_retimes_known_key;
    Alcotest.test_case "fork baselines reach the parent's simcache" `Slow
      test_fork_baselines_reach_parent;
    Alcotest.test_case "uid-indexed schedule lengths" `Quick
      test_uid_schedule_lengths;
    Alcotest.test_case "call overhead charged per dynamic call" `Slow
      test_call_overhead;
  ]
