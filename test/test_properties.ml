(* Cross-cutting property tests: constant folding agrees with the
   interpreter on every operator, the cache agrees with a brute-force
   reference model, and dominator/postdominator invariants hold on random
   CFGs. *)

(* --- Constant folding == interpreter semantics --------------------------- *)

let all_ibinops =
  [ Ir.Types.Add; Ir.Types.Sub; Ir.Types.Mul; Ir.Types.Div; Ir.Types.Rem;
    Ir.Types.Band; Ir.Types.Bor; Ir.Types.Bxor; Ir.Types.Shl; Ir.Types.Shr ]

let qcheck_constfold_matches_interp =
  QCheck.Test.make ~name:"constant folding = interpreter arithmetic"
    ~count:500
    QCheck.(triple (int_range (-10000) 10000) (int_range (-64) 64) small_nat)
    (fun (a, b, opi) ->
      let op = List.nth all_ibinops (opi mod List.length all_ibinops) in
      (* Fold the operation... *)
      let folded =
        match
          Opt.Constfold.fold_kind
            (Ir.Instr.Ibin (op, 1, Ir.Types.Imm a, Ir.Types.Imm b))
        with
        | Ir.Instr.Mov (1, Ir.Types.Imm v) -> v
        | _ -> failwith "did not fold"
      in
      (* ... and execute it through the real interpreter. *)
      let fn =
        {
          Ir.Func.fname = "main";
          params = [];
          blocks =
            [
              {
                Ir.Func.blabel = "entry";
                instrs =
                  [
                    Ir.Instr.make ~id:0
                      (Ir.Instr.Ibin (op, 1, Ir.Types.Imm a, Ir.Types.Imm b));
                    Ir.Instr.make ~id:1 (Ir.Instr.Emit (Ir.Types.Reg 1));
                  ];
                term = Ir.Func.Ret None;
              };
            ];
          next_reg = 2;
          next_pred = 1;
          next_instr = 2;
          frame_size = 0;
        }
      in
      let prog = { Ir.Func.funcs = [ fn ]; globals = []; main = "main" } in
      let r = Profile.Interp.run (Profile.Layout.prepare prog) in
      match r.Profile.Interp.output with
      | [ v ] -> int_of_float v = folded
      | _ -> false)

(* --- Cache vs. a brute-force reference model ----------------------------- *)

(* Reference: per-set lists of lines in most-recently-used order. *)
module Ref_cache = struct
  type level = {
    sets : int;
    assoc : int;
    line_words : int;
    mutable contents : int list array;   (* MRU first *)
  }

  let make (cfg : Machine.Config.cache_level) =
    let sets =
      max 1
        (cfg.Machine.Config.size_words
        / (cfg.Machine.Config.line_words * cfg.Machine.Config.assoc))
    in
    {
      sets;
      assoc = cfg.Machine.Config.assoc;
      line_words = cfg.Machine.Config.line_words;
      contents = Array.make sets [];
    }

  let probe l addr =
    let line = addr / l.line_words in
    let set = line mod l.sets in
    if List.mem line l.contents.(set) then begin
      l.contents.(set) <-
        line :: List.filter (fun x -> x <> line) l.contents.(set);
      true
    end
    else false

  let fill l addr =
    let line = addr / l.line_words in
    let set = line mod l.sets in
    let kept =
      List.filteri (fun i _ -> i < l.assoc - 1)
        (List.filter (fun x -> x <> line) l.contents.(set))
    in
    l.contents.(set) <- line :: kept
end

(* Every stock machine, including negative addresses: a load the
   interpreter is about to trap reaches the cache first, and both models
   must then fail alike ([Invalid_argument] from an out-of-range set). *)
let stock_configs =
  Machine.Config.
    [| table3; table3_regalloc; table3_narrow; itanium1; itanium_small_l2 |]

let qcheck_cache_matches_reference =
  QCheck.Test.make ~name:"L1 behaviour = reference MRU-list model" ~count:60
    QCheck.(
      triple
        (int_range 0 (Array.length stock_configs - 1))
        small_int
        (list (int_range (-40) 4096)))
    (fun (ci, salt, addrs) ->
      let cfg = stock_configs.(ci) in
      let cache = Machine.Cache.create cfg in
      let l1ref = Ref_cache.make cfg.Machine.Config.l1 in
      let l2ref = Ref_cache.make cfg.Machine.Config.l2 in
      let l3ref = Ref_cache.make cfg.Machine.Config.l3 in
      let outcome f =
        match f () with v -> Some v | exception Invalid_argument _ -> None
      in
      List.for_all
        (fun a ->
          let addr = (a * (1 + (salt mod 7))) mod 0x10000 in
          let stall = outcome (fun () -> Machine.Cache.load cache addr) in
          let expected =
            outcome (fun () ->
                if Ref_cache.probe l1ref addr then
                  cfg.Machine.Config.l1.Machine.Config.extra_latency
                else if Ref_cache.probe l2ref addr then begin
                  Ref_cache.fill l1ref addr;
                  cfg.Machine.Config.l2.Machine.Config.extra_latency
                end
                else if Ref_cache.probe l3ref addr then begin
                  Ref_cache.fill l1ref addr;
                  Ref_cache.fill l2ref addr;
                  cfg.Machine.Config.l3.Machine.Config.extra_latency
                end
                else begin
                  Ref_cache.fill l1ref addr;
                  Ref_cache.fill l2ref addr;
                  Ref_cache.fill l3ref addr;
                  cfg.Machine.Config.memory_extra_latency
                end)
          in
          stall = expected)
        addrs)

(* --- Dominators on random CFGs ------------------------------------------- *)

(* Random function shape: n blocks; block i branches to one or two random
   higher-or-lower blocks (yielding loops), last block returns. *)
let random_func seed n : Ir.Func.t =
  let rng = Random.State.make [| seed |] in
  let label i = Printf.sprintf "b%d" i in
  let blocks =
    List.init n (fun i ->
        let term =
          if i = n - 1 then Ir.Func.Ret None
          else
            let t1 = Random.State.int rng n in
            if Random.State.bool rng then
              Ir.Func.Br (Ir.Types.Reg 1, label t1, label (i + 1))
            else Ir.Func.Jmp (label (min (n - 1) (i + 1 + Random.State.int rng 2)))
        in
        { Ir.Func.blabel = label i; instrs = []; term })
  in
  {
    Ir.Func.fname = "f";
    params = [ 1 ];
    blocks;
    next_reg = 2;
    next_pred = 1;
    next_instr = 0;
    frame_size = 0;
  }

(* Reference dominator check: a dominates b iff removing a disconnects b
   from the entry. *)
let reachable_without (g : Ir.Cfg.t) ~(removed : int) : bool array =
  let n = Ir.Cfg.n_blocks g in
  let seen = Array.make n false in
  let rec dfs i =
    if (not seen.(i)) && i <> removed then begin
      seen.(i) <- true;
      List.iter dfs g.Ir.Cfg.succ.(i)
    end
  in
  if removed <> 0 then dfs 0;
  seen

let qcheck_idom_is_a_dominator =
  QCheck.Test.make ~name:"immediate dominators really dominate" ~count:150
    QCheck.(pair small_int (int_range 3 12))
    (fun (seed, n) ->
      let f = random_func seed n in
      let g = Ir.Cfg.build f in
      let idom = Ir.Cfg.dominators g in
      (* For every reachable block b with idom d: removing d must make b
         unreachable from the entry. *)
      let ok = ref true in
      for b = 1 to Ir.Cfg.n_blocks g - 1 do
        let d = idom.(b) in
        if d >= 0 then begin
          let reach = reachable_without g ~removed:d in
          if reach.(b) then ok := false
        end
      done;
      !ok)

let qcheck_postdom_reaches_exit =
  QCheck.Test.make ~name:"postdominators block all paths to the exit"
    ~count:150
    QCheck.(pair small_int (int_range 3 12))
    (fun (seed, n) ->
      let f = random_func seed n in
      let g = Ir.Cfg.build f in
      let ipdom = Ir.Cfg.postdominators g in
      (* For any block b with immediate postdominator d: no path from b to
         an exit may avoid d.  Check by DFS from b with d removed. *)
      let nb = Ir.Cfg.n_blocks g in
      let ok = ref true in
      for b = 0 to nb - 1 do
        let d = ipdom.(b) in
        if d >= 0 && b <> d then begin
          let seen = Array.make nb false in
          let rec dfs i =
            if (not seen.(i)) && i <> d then begin
              seen.(i) <- true;
              List.iter dfs g.Ir.Cfg.succ.(i)
            end
          in
          dfs b;
          for e = 0 to nb - 1 do
            if seen.(e) && g.Ir.Cfg.succ.(e) = [] then ok := false
          done
        end
      done;
      !ok)

(* --- Random MiniC expression programs: optimizer equivalence -------------- *)

(* Generate small random arithmetic programs and require the full pipeline
   to preserve their outputs exactly. *)
let random_minic_program seed : string =
  let rng = Random.State.make [| seed |] in
  let rec expr depth =
    if depth <= 0 then
      match Random.State.int rng 3 with
      | 0 -> string_of_int (Random.State.int rng 100)
      | 1 -> "x"
      | _ -> "i"
    else
      let a = expr (depth - 1) and b = expr (depth - 1) in
      let op =
        List.nth [ "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^" ]
          (Random.State.int rng 8)
      in
      Printf.sprintf "(%s %s %s)" a op b
  in
  let body =
    List.init 4 (fun k ->
        Printf.sprintf "x = x + %s; if (x > %d) { x = x - %d; }"
          (expr (2 + (k mod 3)))
          (1000 + (100 * k))
          (Random.State.int rng 2000))
    |> String.concat "\n         "
  in
  Printf.sprintf
    {| int main() {
         int x = 1; int i;
         for (i = 0; i < 40; i = i + 1) {
           %s
         }
         emit(x);
         return 0; } |}
    body

let qcheck_pipeline_on_random_programs =
  QCheck.Test.make ~name:"pipeline preserves random MiniC programs" ~count:60
    QCheck.small_int
    (fun seed ->
      let src = random_minic_program seed in
      let reference = Frontend.Minic.compile src in
      let out p =
        (Profile.Interp.run (Profile.Layout.prepare p)).Profile.Interp.output
      in
      let want = out reference in
      let prog = Frontend.Minic.compile src in
      Opt.Pipeline.run prog;
      out prog = want)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_constfold_matches_interp;
      qcheck_cache_matches_reference;
      qcheck_idom_is_a_dominator;
      qcheck_postdom_reaches_exit;
      qcheck_pipeline_on_random_programs;
    ]
