(* Tests for the IR: CFG analyses (dominators, postdominators, loops) and
   the validator. *)

(* Build a function from a list of (label, instr-count, terminator). *)
let mk_func blocks : Ir.Func.t =
  let f =
    {
      Ir.Func.fname = "f";
      params = [];
      blocks = [];
      next_reg = 64;
      next_pred = 1;
      next_instr = 0;
      frame_size = 0;
    }
  in
  f.Ir.Func.blocks <-
    List.map
      (fun (label, term) -> { Ir.Func.blabel = label; instrs = []; term })
      blocks;
  f

let diamond () =
  (* entry -> (a | b) -> join -> exit *)
  mk_func
    [
      ("entry", Ir.Func.Br (Ir.Types.Reg 1, "a", "b"));
      ("a", Ir.Func.Jmp "join");
      ("b", Ir.Func.Jmp "join");
      ("join", Ir.Func.Jmp "exit");
      ("exit", Ir.Func.Ret None);
    ]

let test_dominators () =
  let g = Ir.Cfg.build (diamond ()) in
  let idom = Ir.Cfg.dominators g in
  let i l = Ir.Cfg.index_of g l in
  Alcotest.(check int) "entry has no idom" (-1) idom.(i "entry");
  Alcotest.(check int) "a dominated by entry" (i "entry") idom.(i "a");
  Alcotest.(check int) "b dominated by entry" (i "entry") idom.(i "b");
  Alcotest.(check int) "join dominated by entry" (i "entry") idom.(i "join");
  Alcotest.(check int) "exit dominated by join" (i "join") idom.(i "exit")

let test_postdominators () =
  let g = Ir.Cfg.build (diamond ()) in
  let ipdom = Ir.Cfg.postdominators g in
  let i l = Ir.Cfg.index_of g l in
  Alcotest.(check int) "entry postdominated by join" (i "join")
    ipdom.(i "entry");
  Alcotest.(check int) "a postdominated by join" (i "join") ipdom.(i "a");
  Alcotest.(check int) "join postdominated by exit" (i "exit")
    ipdom.(i "join");
  Alcotest.(check int) "exit has no ipdom" (-1) ipdom.(i "exit")

(* Multiple rets: the exact failure shape that used to hang the
   Cooper-Harvey-Kennedy intersection before the virtual exit node. *)
let test_postdominators_multi_exit () =
  let f =
    mk_func
      [
        ("entry", Ir.Func.Br (Ir.Types.Reg 1, "a", "b"));
        ("a", Ir.Func.Ret None);
        ("b", Ir.Func.Br (Ir.Types.Reg 2, "c", "d"));
        ("c", Ir.Func.Ret None);
        ("d", Ir.Func.Ret None);
      ]
  in
  let g = Ir.Cfg.build f in
  let ipdom = Ir.Cfg.postdominators g in
  let i l = Ir.Cfg.index_of g l in
  (* No single block postdominates entry; each Ret is an exit. *)
  Alcotest.(check int) "entry ipdom is virtual (-1)" (-1) ipdom.(i "entry");
  Alcotest.(check int) "b ipdom is virtual (-1)" (-1) ipdom.(i "b");
  Alcotest.(check int) "a is an exit" (-1) ipdom.(i "a")

let test_postdominators_self_loop () =
  (* A self-looping block with a side exit, the hyperblock shape. *)
  let f =
    mk_func
      [
        ("entry", Ir.Func.Jmp "loop");
        ("loop", Ir.Func.Br (Ir.Types.Reg 1, "loop", "done"));
        ("done", Ir.Func.Ret None);
      ]
  in
  let g = Ir.Cfg.build f in
  let ipdom = Ir.Cfg.postdominators g in
  let i l = Ir.Cfg.index_of g l in
  Alcotest.(check int) "loop postdominated by done" (i "done")
    ipdom.(i "loop")

let test_loops () =
  let f =
    mk_func
      [
        ("entry", Ir.Func.Jmp "header");
        ("header", Ir.Func.Br (Ir.Types.Reg 1, "body", "exit"));
        ("body", Ir.Func.Br (Ir.Types.Reg 2, "inner", "latch"));
        ("inner", Ir.Func.Br (Ir.Types.Reg 3, "inner", "latch"));
        ("latch", Ir.Func.Jmp "header");
        ("exit", Ir.Func.Ret None);
      ]
  in
  let g = Ir.Cfg.build f in
  let loops = Ir.Cfg.loops g in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let depth = Ir.Cfg.loop_depth g loops in
  let i l = Ir.Cfg.index_of g l in
  Alcotest.(check int) "entry depth 0" 0 depth.(i "entry");
  Alcotest.(check int) "header depth 1" 1 depth.(i "header");
  Alcotest.(check int) "inner depth 2" 2 depth.(i "inner");
  Alcotest.(check int) "exit depth 0" 0 depth.(i "exit")

let test_successors_with_exits () =
  let f = diamond () in
  let entry = Ir.Func.find_block f "entry" in
  entry.Ir.Func.instrs <-
    [ Ir.Instr.make ~id:0 ~guard:1 (Ir.Instr.Exit "exit") ];
  Alcotest.(check (list string)) "exit targets included"
    [ "exit"; "a"; "b" ]
    (Ir.Func.successors entry)

(* --- Validator ------------------------------------------------------------ *)

let valid_program () : Ir.Func.program =
  let f = diamond () in
  { Ir.Func.funcs = [ f ]; globals = []; main = "f" }

let test_validate_accepts () =
  Alcotest.(check int) "no errors" 0
    (List.length (Ir.Validate.check_program (valid_program ())))

let test_validate_catches () =
  let errors p = List.length (Ir.Validate.check_program p) in
  (* Unknown branch target. *)
  let p1 = valid_program () in
  (Ir.Func.find_block (List.hd p1.Ir.Func.funcs) "a").Ir.Func.term <-
    Ir.Func.Jmp "nowhere";
  Alcotest.(check bool) "unknown label" true (errors p1 > 0);
  (* Out-of-range register. *)
  let p2 = valid_program () in
  (Ir.Func.find_block (List.hd p2.Ir.Func.funcs) "a").Ir.Func.instrs <-
    [ Ir.Instr.make ~id:0 (Ir.Instr.Mov (9999, Ir.Types.Imm 1)) ];
  Alcotest.(check bool) "register out of range" true (errors p2 > 0);
  (* Call to an unknown function. *)
  let p3 = valid_program () in
  (Ir.Func.find_block (List.hd p3.Ir.Func.funcs) "a").Ir.Func.instrs <-
    [ Ir.Instr.make ~id:0 (Ir.Instr.Call (None, "ghost", [], Ir.Instr.Impure)) ];
  Alcotest.(check bool) "unknown callee" true (errors p3 > 0);
  (* Missing main. *)
  let p4 = { (valid_program ()) with Ir.Func.main = "nope" } in
  Alcotest.(check bool) "missing main" true (errors p4 > 0)

let test_validate_rejects_recursion () =
  let f = mk_func [ ("entry", Ir.Func.Ret None) ] in
  (Ir.Func.find_block f "entry").Ir.Func.instrs <-
    [ Ir.Instr.make ~id:0 (Ir.Instr.Call (None, "f", [], Ir.Instr.Impure)) ];
  let p = { Ir.Func.funcs = [ f ]; globals = []; main = "f" } in
  Alcotest.(check bool) "self-recursion rejected" true
    (List.length (Ir.Validate.check_program p) > 0)

(* --- Instruction metadata -------------------------------------------------- *)

let test_defs_uses () =
  let k = Ir.Instr.Ibin (Ir.Types.Add, 3, Ir.Types.Reg 1, Ir.Types.Reg 2) in
  Alcotest.(check (option int)) "def" (Some 3) (Ir.Instr.def k);
  Alcotest.(check (list int)) "uses" [ 1; 2 ] (Ir.Instr.uses k);
  let store =
    Ir.Instr.Store
      ( { Ir.Instr.base = Ir.Types.Reg 4; offset = Ir.Types.Reg 5;
          space = Ir.Instr.Global "g"; hazard = false },
        Ir.Types.Reg 6 )
  in
  Alcotest.(check (option int)) "store defs nothing" None (Ir.Instr.def store);
  Alcotest.(check (list int)) "store uses value+addr" [ 6; 4; 5 ]
    (Ir.Instr.uses store);
  let pdef = Ir.Instr.Pdef (Ir.Types.Ceq, 2, 3, Ir.Types.Reg 1, Ir.Types.Imm 0) in
  Alcotest.(check (list int)) "pdef pred defs" [ 2; 3 ] (Ir.Instr.pred_defs pdef);
  let guarded = Ir.Instr.make ~id:0 ~guard:5 (Ir.Instr.Mov (1, Ir.Types.Imm 0)) in
  Alcotest.(check (list int)) "guard is a pred use" [ 5 ]
    (Ir.Instr.pred_uses guarded)

let test_latencies_table3 () =
  (* Table 3: multiplies 3 cycles, divides 8, loads 2, fp 3. *)
  let lat k = Ir.Instr.latency k in
  Alcotest.(check int) "imul" 3
    (lat (Ir.Instr.Ibin (Ir.Types.Mul, 1, Ir.Types.Reg 2, Ir.Types.Reg 3)));
  Alcotest.(check int) "idiv" 8
    (lat (Ir.Instr.Ibin (Ir.Types.Div, 1, Ir.Types.Reg 2, Ir.Types.Reg 3)));
  Alcotest.(check int) "iadd" 1
    (lat (Ir.Instr.Ibin (Ir.Types.Add, 1, Ir.Types.Reg 2, Ir.Types.Reg 3)));
  Alcotest.(check int) "fadd" 3
    (lat (Ir.Instr.Fbin (Ir.Types.Fadd, 1, Ir.Types.Reg 2, Ir.Types.Reg 3)));
  Alcotest.(check int) "fdiv" 8
    (lat (Ir.Instr.Fbin (Ir.Types.Fdiv, 1, Ir.Types.Reg 2, Ir.Types.Reg 3)))

let suite =
  [
    Alcotest.test_case "dominators on a diamond" `Quick test_dominators;
    Alcotest.test_case "postdominators on a diamond" `Quick test_postdominators;
    Alcotest.test_case "postdominators with several rets" `Quick
      test_postdominators_multi_exit;
    Alcotest.test_case "postdominators on a self loop" `Quick
      test_postdominators_self_loop;
    Alcotest.test_case "natural loops and depth" `Quick test_loops;
    Alcotest.test_case "successors include side exits" `Quick
      test_successors_with_exits;
    Alcotest.test_case "validator accepts valid IR" `Quick test_validate_accepts;
    Alcotest.test_case "validator rejects broken IR" `Quick test_validate_catches;
    Alcotest.test_case "validator rejects recursion" `Quick
      test_validate_rejects_recursion;
    Alcotest.test_case "instruction defs/uses" `Quick test_defs_uses;
    Alcotest.test_case "table 3 latencies" `Quick test_latencies_table3;
  ]
