(* A tour of hyperblock formation: inspect the regions and paths the
   compiler sees on a benchmark, the Table 4 features of every path, the
   decisions the baseline (Equation 1) makes, and the effect of a few
   alternative priority functions on simulated cycles.

   Run with:  dune exec examples/hyperblock_tour.exe  [benchmark] *)

let machine = Machine.Config.table3
let fs = Hyperblock.Features.feature_set

let show_regions (prepared : Driver.Compiler.prepared) =
  let prog = Ir.Func.copy_program prepared.Driver.Compiler.optimized in
  let prof = Lazy.force prepared.Driver.Compiler.prof in
  List.iter
    (fun (f : Ir.Func.t) ->
      let regions = Hyperblock.Region.discover f in
      if regions <> [] then begin
        Fmt.pr "@.function %s: %d candidate region(s)@." f.Ir.Func.fname
          (List.length regions);
        List.iteri
          (fun i (r : Hyperblock.Region.t) ->
            Fmt.pr "  region %d: %s entry=%s stop=%s, %d mergeable blocks, %d paths@."
              i
              (match r.Hyperblock.Region.kind with
              | `Hammock -> "hammock"
              | `Loop_body -> "loop-body")
              r.Hyperblock.Region.entry r.Hyperblock.Region.stop
              (List.length r.Hyperblock.Region.mergeable)
              (List.length r.Hyperblock.Region.paths);
            let scored =
              Hyperblock.Form.score_region f prof Hyperblock.Baseline.expr r
            in
            List.iteri
              (fun j (s : Hyperblock.Form.scored_path) ->
                let fe = s.Hyperblock.Form.feats in
                Fmt.pr
                  "    path %d: blocks=%d ops=%.0f height=%.0f exec=%.3f \
                   branches=%.0f predict=%.2f hazard=%b -> priority %.4f@."
                  j
                  (List.length s.Hyperblock.Form.path.Hyperblock.Region.labels)
                  fe.Hyperblock.Features.num_ops
                  fe.Hyperblock.Features.dep_height
                  fe.Hyperblock.Features.exec_ratio
                  fe.Hyperblock.Features.num_branches
                  fe.Hyperblock.Features.predict_product
                  fe.Hyperblock.Features.mem_hazard
                  s.Hyperblock.Form.priority)
              scored)
          regions
      end)
    prog.Ir.Func.funcs

let measure (prepared : Driver.Compiler.prepared) name pri_src =
  let pri = Gp.Sexp.parse_real fs pri_src in
  let heuristics =
    { (Driver.Compiler.baseline ()) with Driver.Compiler.hb_priority = pri }
  in
  let c = Driver.Compiler.compile ~machine ~heuristics prepared in
  let r =
    Driver.Compiler.simulate ~machine ~dataset:Benchmarks.Bench.Train prepared c
  in
  Fmt.pr "  %-28s %10.0f cycles   %2d regions formed, %2d blocks merged@."
    name r.Machine.Simulate.cycles
    c.Driver.Compiler.hb_stats.Hyperblock.Form.regions_formed
    c.Driver.Compiler.hb_stats.Hyperblock.Form.blocks_merged

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "rawcaudio" in
  Fmt.pr "=== Hyperblock formation tour: %s ===@." bench;
  let b = Benchmarks.Registry.find bench in
  let prepared = Driver.Compiler.prepare b in
  show_regions prepared;
  Fmt.pr "@.cycles under different priority functions:@.";
  measure prepared "baseline (Equation 1)" Hyperblock.Baseline.source;
  measure prepared "merge everything" "1.0";
  measure prepared "merge nothing" "(sub 0.0 1.0)";
  measure prepared "hot paths only" "exec_ratio";
  measure prepared "predictable paths only" "(sub predict_product 0.9)";
  measure prepared "short paths first" "(div 1.0 num_ops)"
