(* Tests for the three heuristic-driven passes — hyperblock formation,
   register allocation and prefetch insertion — centred on the property
   that matters most: for ANY priority function, the compiled program
   computes exactly the output of the unoptimized reference.  Candidate
   heuristics may only change speed, never semantics. *)

let machine = Machine.Config.table3

let reference_output (b : Benchmarks.Bench.t) dataset =
  let prog = Frontend.Minic.compile b.Benchmarks.Bench.source in
  let layout = Profile.Layout.prepare prog in
  (Profile.Interp.run
     ~overrides:(Benchmarks.Bench.overrides b dataset)
     layout).Profile.Interp.output

(* A small set of benchmarks with diverse region shapes, kept cheap enough
   to compile under many candidate heuristics. *)
let subjects = [ "codrle4"; "rawcaudio"; "mpeg2dec"; "unepic"; "osdemo" ]

(* --- Hyperblock formation -------------------------------------------------- *)

let hb_fs = Hyperblock.Features.feature_set

(* A deliberately adversarial set of priority functions. *)
let adversarial_priorities =
  [
    "1.0";                                   (* merge everything *)
    "(sub 0.0 1.0)";                         (* merge nothing *)
    "exec_ratio";
    "(sub 0.0 num_ops)";
    "(div 1.0 dep_height)";
    "(tern mem_hazard (sub 0.0 5.0) num_paths)";
    "(mul predict_product exec_ratio)";
    "(sub num_branches num_ops_mean)";
  ]

let compile_with_priority (b : Benchmarks.Bench.t) pri_src =
  let prepared = Driver.Compiler.prepare b in
  let pri = Gp.Sexp.parse_real hb_fs pri_src in
  let heuristics =
    { (Driver.Compiler.baseline ()) with Driver.Compiler.hb_priority = pri }
  in
  Driver.Compiler.compile ~machine ~heuristics prepared

let test_hyperblock_semantics () =
  List.iter
    (fun name ->
      let b = Benchmarks.Registry.find name in
      let want = reference_output b Benchmarks.Bench.Train in
      List.iter
        (fun pri ->
          let prepared = Driver.Compiler.prepare b in
          let c = compile_with_priority b pri in
          Alcotest.(check int)
            (Printf.sprintf "%s / %s valid" name pri)
            0
            (List.length (Ir.Validate.check_program c.Driver.Compiler.prog));
          let r =
            Driver.Compiler.simulate ~machine ~dataset:Benchmarks.Bench.Train
              prepared c
          in
          Alcotest.(check int)
            (Printf.sprintf "%s under %s" name pri)
            (Profile.Interp.checksum want)
            r.Machine.Simulate.checksum)
        adversarial_priorities)
    subjects

let test_hyperblock_negative_priority_forms_nothing () =
  let b = Benchmarks.Registry.find "rawcaudio" in
  let c = compile_with_priority b "(sub 0.0 1.0)" in
  Alcotest.(check int) "no regions formed" 0
    c.Driver.Compiler.hb_stats.Hyperblock.Form.regions_formed

let test_hyperblock_merges_diamond () =
  (* A hand-built unpredictable diamond must be merged by the baseline and
     produce predicated code. *)
  let src =
    {| global int a[256];
       int main() {
         int i; int s = 0;
         for (i = 0; i < 256; i = i + 1) { a[i] = i * 37 % 2; }
         for (i = 0; i < 256; i = i + 1) {
           if (a[i]) { s = s + 3; } else { s = s - 1; }
         }
         emit(s);
         return 0; } |}
  in
  let prog = Frontend.Minic.compile src in
  Opt.Pipeline.run ~config:Opt.Pipeline.no_unroll prog;
  let layout = Profile.Layout.prepare prog in
  let prof = Lazy.from_val (Profile.Prof.collect layout) in
  let before = Profile.Interp.run layout in
  let stats =
    Hyperblock.Form.run ~machine ~prof ~priority:Hyperblock.Baseline.expr prog
  in
  Alcotest.(check bool) "merged at least one region" true
    (stats.Hyperblock.Form.regions_formed >= 1);
  (* The result contains predicated instructions. *)
  let predicated = ref 0 in
  List.iter
    (fun (f : Ir.Func.t) ->
      Ir.Func.iter_instrs f (fun _ i ->
          if i.Ir.Instr.guard <> Ir.Types.p_true then incr predicated))
    prog.Ir.Func.funcs;
  Alcotest.(check bool) "predicated instructions present" true (!predicated > 0);
  let after = Profile.Interp.run (Profile.Layout.prepare prog) in
  Alcotest.(check (list (float 0.0))) "semantics preserved"
    before.Profile.Interp.output after.Profile.Interp.output

let test_region_discovery_diamond () =
  let src =
    {| int main() {
         int x = 1;
         if (x > 0) { emit(1); } else { emit(2); }
         emit(3);
         return 0; } |}
  in
  let prog = Frontend.Minic.compile src in
  let f = Ir.Func.find_func prog "main" in
  let regions = Hyperblock.Region.discover f in
  Alcotest.(check int) "one hammock" 1 (List.length regions);
  let r = List.hd regions in
  Alcotest.(check int) "two paths" 2 (List.length r.Hyperblock.Region.paths);
  Alcotest.(check bool) "hammock kind" true
    (r.Hyperblock.Region.kind = `Hammock)

(* Random real-valued genomes as priorities: any expression the GP can
   construct must compile correctly. *)
let qcheck_hyperblock_random_priorities =
  let bench = Benchmarks.Registry.find "rawcaudio" in
  let want =
    Profile.Interp.checksum (reference_output bench Benchmarks.Bench.Train)
  in
  let prepared = Driver.Compiler.prepare bench in
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        Gp.Gen.gen_real (Gp.Gen.default_config hb_fs) rng ~full:false 5)
      QCheck.Gen.int
  in
  let arb =
    QCheck.make ~print:(fun e -> Gp.Sexp.real_to_string hb_fs e) gen
  in
  QCheck.Test.make ~name:"random hyperblock priorities preserve semantics"
    ~count:25 arb (fun pri ->
      let heuristics =
        { (Driver.Compiler.baseline ()) with Driver.Compiler.hb_priority = pri }
      in
      let c = Driver.Compiler.compile ~machine ~heuristics prepared in
      let r =
        Driver.Compiler.simulate ~machine ~dataset:Benchmarks.Bench.Train
          prepared c
      in
      r.Machine.Simulate.checksum = want)

let test_loop_body_hyperblock_self_loop () =
  (* Merging an innermost loop body produces a single self-looping block
     with a predicated side exit — the shape Trimaran derives from
     unrolled loops. *)
  let src =
    {| global int a[128];
       int main() {
         int i; int s = 0;
         for (i = 0; i < 128; i = i + 1) {
           if (a[i] & 1) { s = s + a[i]; } else { s = s - 1; }
         }
         emit(s);
         return 0; } |}
  in
  let prog = Frontend.Minic.compile src in
  Opt.Pipeline.run ~config:Opt.Pipeline.no_unroll prog;
  let layout = Profile.Layout.prepare prog in
  let prof = Lazy.from_val (Profile.Prof.collect layout) in
  let before = Profile.Interp.run layout in
  let stats =
    Hyperblock.Form.run ~machine ~prof
      ~priority:(Gp.Sexp.parse_real hb_fs "1.0")
      prog
  in
  Alcotest.(check bool) "merged" true (stats.Hyperblock.Form.blocks_merged > 0);
  let f = Ir.Func.find_func prog "main" in
  let self_loops =
    List.filter
      (fun (b : Ir.Func.block) ->
        List.mem b.Ir.Func.blabel (Ir.Func.successors b))
      f.Ir.Func.blocks
  in
  Alcotest.(check bool) "a self-looping hyperblock exists" true
    (self_loops <> []);
  let hb = List.hd self_loops in
  Alcotest.(check bool) "with a predicated side exit" true
    (List.exists
       (fun (i : Ir.Instr.t) ->
         match i.Ir.Instr.kind with Ir.Instr.Exit _ -> true | _ -> false)
       hb.Ir.Func.instrs);
  let after = Profile.Interp.run (Profile.Layout.prepare prog) in
  Alcotest.(check (list (float 0.0))) "semantics preserved"
    before.Profile.Interp.output after.Profile.Interp.output

let test_tail_duplication_keeps_targeted_blocks () =
  (* Form hyperblocks over a benchmark with many overlapping regions and
     verify every Exit / terminator target still exists (tail duplication
     keeps blocks that remain targeted from outside the merged set). *)
  List.iter
    (fun name ->
      let b = Benchmarks.Registry.find name in
      let prepared = Driver.Compiler.prepare b in
      let prog = Ir.Func.copy_program prepared.Driver.Compiler.optimized in
      ignore
        (Hyperblock.Form.run ~machine ~prof:prepared.Driver.Compiler.prof
           ~priority:(Gp.Sexp.parse_real hb_fs "(div 1.0 num_ops)")
           prog);
      Alcotest.(check int) (name ^ " all targets resolve") 0
        (List.length (Ir.Validate.check_program prog)))
    [ "rawdaudio"; "mipmap"; "085.cc1"; "124.m88ksim" ]

let test_priority_cutoff_controls_inclusion () =
  (* With a high cutoff only the top path family joins; with zero cutoff
     anything positive joins.  Inclusion must be monotone in the cutoff. *)
  let b = Benchmarks.Registry.find "rawcaudio" in
  let prepared = Driver.Compiler.prepare b in
  let merged_with cutoff =
    let prog = Ir.Func.copy_program prepared.Driver.Compiler.optimized in
    let stats =
      Hyperblock.Form.run
        ~config:{ Hyperblock.Form.default_config with
                  Hyperblock.Form.priority_cutoff = cutoff }
        ~machine ~prof:prepared.Driver.Compiler.prof
        ~priority:(Gp.Sexp.parse_real hb_fs "exec_ratio") prog
    in
    stats.Hyperblock.Form.paths_selected
  in
  let lax = merged_with 0.0 in
  let strict = merged_with 0.95 in
  Alcotest.(check bool)
    (Printf.sprintf "stricter cutoff selects fewer paths (%d vs %d)" strict lax)
    true (strict <= lax)

(* --- Register allocation ---------------------------------------------------- *)

let test_liveness () =
  let src =
    {| int main() {
         int x = 1; int y = 2; int i;
         for (i = 0; i < 4; i = i + 1) { x = x + y; }
         emit(x);
         return 0; } |}
  in
  let prog = Frontend.Minic.compile src in
  let f = Ir.Func.find_func prog "main" in
  let g = Ir.Cfg.build f in
  let live = Regalloc.Liveness.compute f g in
  (* Find the registers holding x and y: both must be live in the loop
     body block. *)
  let body = Ir.Cfg.index_of g "fbody1" in
  let live_regs =
    List.filter
      (fun r -> Regalloc.Liveness.live_in_block live body r)
      (List.init live.Regalloc.Liveness.n_regs Fun.id)
  in
  Alcotest.(check bool) "several registers live in loop" true
    (List.length live_regs >= 3)

let spill_under_pressure k =
  let b = Benchmarks.Registry.find "djpeg" in
  let prepared = Driver.Compiler.prepare b in
  let prog = Ir.Func.copy_program prepared.Driver.Compiler.optimized in
  let tiny = { machine with Machine.Config.gpr = k } in
  let spills = Regalloc.Alloc.run ~machine:tiny prog in
  (prog, spills, prepared)

let test_regalloc_spills_under_pressure () =
  let _, spills64, _ = spill_under_pressure 64 in
  let _, spills8, _ = spill_under_pressure 8 in
  Alcotest.(check bool)
    (Printf.sprintf "more spills with 8 regs (%d) than 64 (%d)" spills8
       spills64)
    true (spills8 > spills64)

let test_regalloc_spill_semantics () =
  let b = Benchmarks.Registry.find "djpeg" in
  let want = reference_output b Benchmarks.Bench.Train in
  List.iter
    (fun k ->
      let prog, spills, _ = spill_under_pressure k in
      Alcotest.(check int)
        (Printf.sprintf "valid with %d regs" k)
        0
        (List.length (Ir.Validate.check_program prog));
      let out =
        (Profile.Interp.run ~overrides:b.Benchmarks.Bench.train
           (Profile.Layout.prepare prog)).Profile.Interp.output
      in
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "correct with %d regs (%d spills)" k spills)
        want out)
    [ 4; 8; 16; 32 ]

let qcheck_regalloc_random_savings =
  let bench = Benchmarks.Registry.find "djpeg" in
  let want =
    Profile.Interp.checksum (reference_output bench Benchmarks.Bench.Train)
  in
  let prepared = Driver.Compiler.prepare bench in
  let ra_machine = Machine.Config.table3_regalloc in
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        Gp.Gen.gen_real
          (Gp.Gen.default_config Regalloc.Features.feature_set)
          rng ~full:false 5)
      QCheck.Gen.int
  in
  let arb =
    QCheck.make
      ~print:(fun e -> Gp.Sexp.real_to_string Regalloc.Features.feature_set e)
      gen
  in
  QCheck.Test.make ~name:"random regalloc savings preserve semantics"
    ~count:25 arb (fun savings ->
      let heuristics =
        { (Driver.Compiler.baseline ()) with Driver.Compiler.ra_savings = savings }
      in
      let c = Driver.Compiler.compile ~machine:ra_machine ~heuristics prepared in
      let r =
        Driver.Compiler.simulate ~machine:ra_machine
          ~dataset:Benchmarks.Bench.Train prepared c
      in
      r.Machine.Simulate.checksum = want)

(* --- Prefetching ------------------------------------------------------------- *)

let test_prefetch_analysis_finds_streams () =
  let b = Benchmarks.Registry.find "101.tomcatv" in
  let prog = Frontend.Minic.compile b.Benchmarks.Bench.source in
  Opt.Pipeline.run ~config:Opt.Pipeline.no_unroll prog;
  let f = Ir.Func.find_func prog "main" in
  let cands = Prefetch.Analysis.candidates f in
  Alcotest.(check bool)
    (Printf.sprintf "several candidates (%d)" (List.length cands))
    true
    (List.length cands >= 8);
  let with_stride =
    List.filter (fun c -> c.Prefetch.Analysis.stride <> None) cands
  in
  Alcotest.(check bool) "strides recovered" true
    (List.length with_stride >= 8);
  (* The row-major stencil has unit-stride streams in the inner loop. *)
  Alcotest.(check bool) "unit strides present" true
    (List.exists (fun c -> c.Prefetch.Analysis.stride = Some 1) cands);
  let with_trip =
    List.filter (fun c -> c.Prefetch.Analysis.trip_estimate <> None) cands
  in
  Alcotest.(check bool) "trip counts estimated through dim-1 bounds" true
    (List.length with_trip >= 8)

let test_prefetch_strided_analysis () =
  let b = Benchmarks.Registry.find "125.turb3d" in
  let prog = Frontend.Minic.compile b.Benchmarks.Bench.source in
  Opt.Pipeline.run ~config:Opt.Pipeline.no_unroll prog;
  let f = Ir.Func.find_func prog "main" in
  let cands = Prefetch.Analysis.candidates f in
  (* The z-sweep reads field[o +/- 625] with stride dim*dim = 625. *)
  Alcotest.(check bool) "large stride detected" true
    (List.exists
       (fun c ->
         match c.Prefetch.Analysis.stride with
         | Some s -> abs s = 625
         | None -> false)
       cands)

let qcheck_prefetch_random_confidences =
  let bench = Benchmarks.Registry.find "103.su2cor" in
  let want =
    Profile.Interp.checksum (reference_output bench Benchmarks.Bench.Train)
  in
  let prepared =
    Driver.Compiler.prepare ~opt_config:Opt.Pipeline.no_unroll bench
  in
  let pf_machine = Machine.Config.itanium1 in
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        Gp.Gen.gen_bool
          (Gp.Gen.default_config Prefetch.Features.feature_set)
          rng ~full:false 5)
      QCheck.Gen.int
  in
  let arb =
    QCheck.make
      ~print:(fun e -> Gp.Sexp.bool_to_string Prefetch.Features.feature_set e)
      gen
  in
  QCheck.Test.make ~name:"random prefetch confidences preserve semantics"
    ~count:25 arb (fun conf ->
      let heuristics =
        { (Driver.Compiler.baseline ()) with
          Driver.Compiler.pf_confidence = Some conf }
      in
      let c =
        Driver.Compiler.compile ~machine:pf_machine ~heuristics prepared
      in
      let r =
        Driver.Compiler.simulate ~machine:pf_machine
          ~dataset:Benchmarks.Bench.Train prepared c
      in
      r.Machine.Simulate.checksum = want)

let test_prefetch_insertion_counts () =
  let b = Benchmarks.Registry.find "101.tomcatv" in
  let prepared =
    Driver.Compiler.prepare ~opt_config:Opt.Pipeline.no_unroll b
  in
  let pf_machine = Machine.Config.itanium1 in
  let all =
    Driver.Compiler.compile ~machine:pf_machine
      ~heuristics:
        { (Driver.Compiler.baseline ()) with
          Driver.Compiler.pf_confidence =
            Some (Gp.Sexp.parse_bool Prefetch.Features.feature_set "true") }
      prepared
  in
  let none =
    Driver.Compiler.compile ~machine:pf_machine
      ~heuristics:
        { (Driver.Compiler.baseline ()) with
          Driver.Compiler.pf_confidence =
            Some (Gp.Sexp.parse_bool Prefetch.Features.feature_set "false") }
      prepared
  in
  Alcotest.(check bool) "true inserts" true
    (all.Driver.Compiler.prefetches.Prefetch.Insert.inserted > 0);
  Alcotest.(check int) "false inserts nothing" 0
    none.Driver.Compiler.prefetches.Prefetch.Insert.inserted

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_hyperblock_random_priorities;
      qcheck_regalloc_random_savings;
      qcheck_prefetch_random_confidences;
    ]

let suite =
  [
    Alcotest.test_case "hyperblocks preserve semantics (adversarial)" `Slow
      test_hyperblock_semantics;
    Alcotest.test_case "negative priority forms nothing" `Quick
      test_hyperblock_negative_priority_forms_nothing;
    Alcotest.test_case "unpredictable diamond is merged" `Quick
      test_hyperblock_merges_diamond;
    Alcotest.test_case "region discovery on a diamond" `Quick
      test_region_discovery_diamond;
    Alcotest.test_case "loop-body hyperblock self-loop" `Quick
      test_loop_body_hyperblock_self_loop;
    Alcotest.test_case "tail duplication keeps targets" `Quick
      test_tail_duplication_keeps_targeted_blocks;
    Alcotest.test_case "priority cutoff monotone" `Quick
      test_priority_cutoff_controls_inclusion;
    Alcotest.test_case "liveness in loops" `Quick test_liveness;
    Alcotest.test_case "spills grow under pressure" `Quick
      test_regalloc_spills_under_pressure;
    Alcotest.test_case "spill code is correct" `Slow
      test_regalloc_spill_semantics;
    Alcotest.test_case "prefetch analysis finds streams" `Quick
      test_prefetch_analysis_finds_streams;
    Alcotest.test_case "prefetch strided analysis" `Quick
      test_prefetch_strided_analysis;
    Alcotest.test_case "prefetch insertion counts" `Quick
      test_prefetch_insertion_counts;
  ]
  @ qcheck_tests
