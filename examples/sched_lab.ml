(* Scheduling laboratory (extension): the list scheduler's priority
   function is the paper's canonical Section-2 example of a priority
   function.  This walkthrough shows the ranking features on a hot block,
   compares hand-written rankings, and runs a short evolution of the
   fourth heuristic slot.

   Run with:  dune exec examples/sched_lab.exe  [benchmark] *)

let machine = Machine.Config.table3_narrow
let fs = Sched.Priority.feature_set

let show_hot_block (prepared : Driver.Compiler.prepared) =
  let prog = Ir.Func.copy_program prepared.Driver.Compiler.optimized in
  let f = Ir.Func.find_func prog "main" in
  let hot =
    List.fold_left
      (fun (acc : Ir.Func.block) (b : Ir.Func.block) ->
        if List.length b.Ir.Func.instrs > List.length acc.Ir.Func.instrs then b
        else acc)
      (List.hd f.Ir.Func.blocks) f.Ir.Func.blocks
  in
  let instrs = Array.of_list hot.Ir.Func.instrs in
  let g = Sched.Depgraph.build instrs in
  let lwd = Sched.Depgraph.latency_weighted_depth g in
  let above = Sched.Priority.height_above g in
  Fmt.pr "hottest block %s: %d instructions, critical path %d cycles@.@."
    hot.Ir.Func.blabel (Array.length instrs) (Sched.Depgraph.critical_path g);
  Fmt.pr "%4s %5s %6s %6s %6s  instruction@." "#" "lwd" "above" "slack"
    "succs";
  let critical = Sched.Depgraph.critical_path g in
  Array.iteri
    (fun i (ins : Ir.Instr.t) ->
      if i < 18 then
        Fmt.pr "%4d %5d %6d %6d %6d  %a@." i lwd.(i) above.(i)
          (critical - above.(i) - lwd.(i))
          (List.length g.Sched.Depgraph.succs.(i))
          Ir.Instr.pp ins)
    instrs;
  if Array.length instrs > 18 then
    Fmt.pr "  ... (%d more)@." (Array.length instrs - 18)

let measure (prepared : Driver.Compiler.prepared) name src =
  let pri = Gp.Sexp.parse_real fs src in
  let heuristics =
    { (Driver.Compiler.baseline ()) with Driver.Compiler.sched_priority = pri }
  in
  let c = Driver.Compiler.compile ~machine ~heuristics prepared in
  let r =
    Driver.Compiler.simulate ~machine ~dataset:Benchmarks.Bench.Train prepared c
  in
  Fmt.pr "  %-40s %10.0f cycles@." name r.Machine.Simulate.cycles

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "rawcaudio" in
  Fmt.pr "=== Scheduling lab (extension): %s on %s ===@.@." bench machine.Machine.Config.name;
  let b = Benchmarks.Registry.find bench in
  let prepared = Driver.Compiler.prepare b in
  show_hot_block prepared;
  Fmt.pr "@.cycles under different rankings:@.";
  measure prepared "latency-weighted depth (baseline)" "lwd";
  measure prepared "inverse (worst case)" "(sub 0.0 lwd)";
  measure prepared "critical-path slack" "(sub 0.0 slack)";
  measure prepared "memory first" "(tern is_mem 1000.0 lwd)";
  measure prepared "fan-out weighted" "(add lwd (mul 2.0 n_succs))";
  Fmt.pr "@.evolving the ranking (small run)...@.";
  let params =
    { Gp.Params.scaled with Gp.Params.population_size = 16; generations = 5 }
  in
  let r =
    Driver.Study.specialize_with
      { Driver.Study.default_config with Driver.Study.params }
      Driver.Study.Sched_study bench
  in
  Fmt.pr "best evolved ranking : %s@." r.Driver.Study.best_expr;
  Fmt.pr "speedup vs baseline  : %.4f train / %.4f novel@."
    r.Driver.Study.train_speedup r.Driver.Study.novel_speedup
