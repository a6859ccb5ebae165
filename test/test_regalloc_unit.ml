(* Focused unit tests for the register allocator's internals: live-range
   construction, interference, Equation (2)/(3) arithmetic, and spill-code
   shape. *)

let machine = Machine.Config.table3

let simple_prog () =
  Frontend.Minic.compile
    {| global int a[32];
       int main() {
         int x = 3; int y = 4; int i;
         for (i = 0; i < 32; i = i + 1) {
           a[i] = x * i + y;
         }
         emit(a[31]);
         return 0; } |}

let test_live_ranges_exist () =
  let prog = simple_prog () in
  let f = Ir.Func.find_func prog "main" in
  let g = Ir.Cfg.build f in
  let live = Regalloc.Liveness.compute f g in
  let ranges = Regalloc.Alloc.build_ranges f g live in
  (* x, y, i plus temporaries. *)
  Alcotest.(check bool)
    (Printf.sprintf "several ranges (%d)" (List.length ranges))
    true
    (List.length ranges >= 3);
  (* Loop-carried registers live in several blocks; temporaries in one. *)
  let multi =
    List.filter
      (fun (r : Regalloc.Alloc.live_range) ->
        List.length r.Regalloc.Alloc.blocks > 1)
      ranges
  in
  Alcotest.(check bool) "loop-carried ranges span blocks" true
    (List.length multi >= 3)

let test_interference_is_symmetric_overlap () =
  let a =
    { Regalloc.Alloc.reg = 1; blocks = [ 0; 1; 2 ];
      uses_per_block = [||]; defs_per_block = [||]; total_uses = 0;
      total_defs = 0; is_param = false; spans_call = false; degree = 0;
      priority = 0.0; color = -1 }
  in
  let b = { a with Regalloc.Alloc.reg = 2; blocks = [ 2; 3 ] } in
  let c = { a with Regalloc.Alloc.reg = 3; blocks = [ 4 ] } in
  Alcotest.(check bool) "overlap interferes" true
    (Regalloc.Alloc.interferes a b);
  Alcotest.(check bool) "symmetric" true (Regalloc.Alloc.interferes b a);
  Alcotest.(check bool) "disjoint does not" false
    (Regalloc.Alloc.interferes a c)

let test_equation_2_values () =
  (* savings = w * (LDsave * uses + STsave * defs) with LDsave=2,
     STsave=1. *)
  let fs = Regalloc.Features.feature_set in
  let env = Gp.Feature_set.empty_env fs in
  Gp.Feature_set.set_real fs env "w" 10.0;
  Gp.Feature_set.set_real fs env "uses" 3.0;
  Gp.Feature_set.set_real fs env "defs" 2.0;
  Alcotest.(check (float 1e-9)) "eq 2" 80.0
    (Regalloc.Alloc.savings_batch_of_expr Regalloc.Features.baseline_expr
       [| env |]).(0)

let test_block_weight () =
  Alcotest.(check (float 1e-9)) "depth 0" 1.0 (Regalloc.Alloc.block_weight 0);
  Alcotest.(check (float 1e-9)) "depth 2" 100.0
    (Regalloc.Alloc.block_weight 2);
  Alcotest.(check (float 1e-9)) "depth capped" 1000.0
    (Regalloc.Alloc.block_weight 9)

let test_no_spills_with_enough_registers () =
  let prog = simple_prog () in
  let spills = Regalloc.Alloc.run ~machine prog in
  Alcotest.(check int) "64 registers suffice" 0 spills

let test_spill_code_shape () =
  (* Force heavy spilling and inspect the generated code: spilled defs are
     followed by frame stores, spilled uses preceded by frame loads, and
     the frame grows accordingly. *)
  let prog = simple_prog () in
  let tiny = { machine with Machine.Config.gpr = 2 } in
  let f = Ir.Func.find_func prog "main" in
  let result = Regalloc.Alloc.run_func ~machine:tiny f in
  Alcotest.(check bool) "something spilled" true
    (List.length result.Regalloc.Alloc.spilled > 0);
  Alcotest.(check int) "frame sized to spills"
    (List.length result.Regalloc.Alloc.spilled)
    f.Ir.Func.frame_size;
  let frame_loads = ref 0 and frame_stores = ref 0 in
  Ir.Func.iter_instrs f (fun _ (i : Ir.Instr.t) ->
      match i.Ir.Instr.kind with
      | Ir.Instr.Load (_, { Ir.Instr.space = Ir.Instr.Frame _; _ }) ->
        incr frame_loads
      | Ir.Instr.Store ({ Ir.Instr.space = Ir.Instr.Frame _; _ }, _) ->
        incr frame_stores
      | _ -> ());
  Alcotest.(check bool) "frame loads inserted" true (!frame_loads > 0);
  Alcotest.(check bool) "frame stores inserted" true (!frame_stores > 0);
  (* And the program still runs correctly. *)
  let out =
    (Profile.Interp.run (Profile.Layout.prepare prog)).Profile.Interp.output
  in
  Alcotest.(check (list (float 0.0))) "spilled program correct"
    [ 3.0 *. 31.0 +. 4.0 ]
    out

let test_priority_orders_allocation () =
  (* Two ranges, one register: the higher-priority one gets it.  Build a
     function where x is used heavily in a loop and y once. *)
  let prog =
    Frontend.Minic.compile
      {| global int a[64];
         int main() {
           int hot = 7; int cold = 9;
           int i;
           for (i = 0; i < 64; i = i + 1) {
             a[i] = hot * hot + hot * i;
           }
           emit(a[63] + cold);
           return 0; } |}
  in
  let f = Ir.Func.find_func prog "main" in
  let result =
    Regalloc.Alloc.run_func
      ~machine:{ machine with Machine.Config.gpr = 3 }
      f
  in
  (* The 'hot' range (many weighted uses) must be colored, not spilled. *)
  let hot_range =
    List.fold_left
      (fun acc (r : Regalloc.Alloc.live_range) ->
        match acc with
        | Some (best : Regalloc.Alloc.live_range) ->
          if r.Regalloc.Alloc.priority > best.Regalloc.Alloc.priority then
            Some r
          else acc
        | None -> Some r)
      None result.Regalloc.Alloc.ranges
  in
  match hot_range with
  | Some r ->
    Alcotest.(check bool) "highest-priority range is colored" true
      (r.Regalloc.Alloc.color >= 0)
  | None -> Alcotest.fail "no ranges"

let test_spills_with_real_calls () =
  (* 072.sc keeps a real (non-inlined) callee; spilling both caller and
     callee under extreme pressure must preserve output, exercising
     per-function static frames. *)
  let b = Benchmarks.Registry.find "072.sc" in
  let prog = Frontend.Minic.compile b.Benchmarks.Bench.source in
  Opt.Pipeline.run prog;
  let want =
    (Profile.Interp.run ~overrides:b.Benchmarks.Bench.train
       (Profile.Layout.prepare prog)).Profile.Interp.output
  in
  let tiny = { machine with Machine.Config.gpr = 6 } in
  let spills = Regalloc.Alloc.run ~machine:tiny prog in
  Alcotest.(check bool) "both functions spill" true (spills > 4);
  Alcotest.(check int) "still valid" 0
    (List.length (Ir.Validate.check_program prog));
  let out =
    (Profile.Interp.run ~overrides:b.Benchmarks.Bench.train
       (Profile.Layout.prepare prog)).Profile.Interp.output
  in
  Alcotest.(check (list (float 0.0))) "output preserved across frames" want out

let suite =
  [
    Alcotest.test_case "live ranges exist" `Quick test_live_ranges_exist;
    Alcotest.test_case "interference = block overlap" `Quick
      test_interference_is_symmetric_overlap;
    Alcotest.test_case "equation 2 arithmetic" `Quick test_equation_2_values;
    Alcotest.test_case "block weight estimate" `Quick test_block_weight;
    Alcotest.test_case "no spills with enough registers" `Quick
      test_no_spills_with_enough_registers;
    Alcotest.test_case "spill code shape" `Quick test_spill_code_shape;
    Alcotest.test_case "priority orders allocation" `Quick
      test_priority_orders_allocation;
    Alcotest.test_case "spills with real calls" `Quick
      test_spills_with_real_calls;
  ]
