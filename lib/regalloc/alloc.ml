(* Priority-based coloring register allocation [Chow & Hennessy 90].

   A live range is one virtual register together with the set of blocks it
   is live in.  Ranges interfere when their block sets overlap.  Ranges
   are allocated in priority order — priority(lr) = sum over the range's
   blocks of a per-block savings function, divided by the range size
   (Equation (3)); the savings function (Equation (2) as the baseline, or
   a GP expression) is the priority function under study.  Ranges that
   cannot be colored are spilled: every use gets a preceding frame load
   and every def a following frame store, both inheriting the
   instruction's guard.

   Physical registers are modelled as a single unified file of
   [machine.gpr] registers (see DESIGN.md); the allocator's product that
   the rest of the pipeline consumes is the spill code, whose schedule and
   memory-system costs the simulator measures. *)

type live_range = {
  reg : Ir.Types.reg;
  blocks : int list;              (* block indices where live *)
  uses_per_block : int array;
  defs_per_block : int array;
  total_uses : int;
  total_defs : int;
  is_param : bool;
  spans_call : bool;
  mutable degree : int;
  mutable priority : float;
  mutable color : int;            (* -1 = unallocated, -2 = spilled *)
}

type result = {
  ranges : live_range list;
  spilled : Ir.Types.reg list;
  n_colors_used : int;
}

(* The priority function under study, vectorized: the savings of many
   (range, block) feature vectors through one batch evaluation,
   instruction dispatch amortised across the function instead of paid
   per pair. *)
type savings_batch = Gp.Feature_set.env array -> float array

let savings_batch_of_expr ?compiled (e : Gp.Expr.rexpr) : savings_batch =
  Gp.Evalc.real_batch ?compiled e

(* Equation (2). *)
let baseline_savings_batch = savings_batch_of_expr Features.baseline_expr

let block_weight depth = 10.0 ** float_of_int (min depth 3)

let build_ranges (f : Ir.Func.t) (g : Ir.Cfg.t) (live : Liveness.t) :
    live_range list =
  let n = Ir.Cfg.n_blocks g in
  let n_regs = live.Liveness.n_regs in
  let uses = Array.make_matrix n_regs n 0 in
  let defs = Array.make_matrix n_regs n 0 in
  let spans_call = Array.make n_regs false in
  for bi = 0 to n - 1 do
    let b = Ir.Cfg.block_of g bi in
    let block_has_call =
      List.exists
        (fun (i : Ir.Instr.t) -> Ir.Instr.is_call i.Ir.Instr.kind)
        b.Ir.Func.instrs
    in
    List.iter
      (fun (i : Ir.Instr.t) ->
        List.iter
          (fun r -> uses.(r).(bi) <- uses.(r).(bi) + 1)
          (Ir.Instr.uses i.Ir.Instr.kind);
        match Ir.Instr.def i.Ir.Instr.kind with
        | Some d -> defs.(d).(bi) <- defs.(d).(bi) + 1
        | None -> ())
      b.Ir.Func.instrs;
    List.iter
      (fun r -> uses.(r).(bi) <- uses.(r).(bi) + 1)
      (Liveness.term_uses b.Ir.Func.term);
    if block_has_call then
      for r = 0 to n_regs - 1 do
        if live.Liveness.live_in.(bi).(r) && live.Liveness.live_out.(bi).(r)
        then spans_call.(r) <- true
      done
  done;
  List.filter_map
    (fun r ->
      let blocks =
        List.filter (fun bi -> Liveness.live_in_block live bi r)
          (List.init n Fun.id)
      in
      if blocks = [] then None
      else
        Some
          {
            reg = r;
            blocks;
            uses_per_block = Array.init n (fun bi -> uses.(r).(bi));
            defs_per_block = Array.init n (fun bi -> defs.(r).(bi));
            total_uses = Array.fold_left ( + ) 0 uses.(r);
            total_defs = Array.fold_left ( + ) 0 defs.(r);
            is_param = List.mem r f.Ir.Func.params;
            spans_call = spans_call.(r);
            degree = 0;
            priority = 0.0;
            color = -1;
          })
    (List.init n_regs (fun r -> r + 1) |> List.filter (fun r -> r < n_regs))

let interferes (a : live_range) (b : live_range) =
  List.exists (fun bi -> List.mem bi b.blocks) a.blocks

(* The feature vector of one (range, block) pair. *)
let block_env (g : Ir.Cfg.t) depth (calls_per_block : int array)
    (lr : live_range) ~n_blocks bi : Gp.Feature_set.env =
  let fs = Features.feature_set in
  let env = Gp.Feature_set.empty_env fs in
  let set = Gp.Feature_set.set_real fs env in
  set "uses" (float_of_int lr.uses_per_block.(bi));
  set "defs" (float_of_int lr.defs_per_block.(bi));
  set "w" (block_weight depth.(bi));
  set "loop_depth" (float_of_int depth.(bi));
  set "block_ops"
    (float_of_int (List.length (Ir.Cfg.block_of g bi).Ir.Func.instrs));
  set "calls_in_block" (float_of_int calls_per_block.(bi));
  set "range_blocks" n_blocks;
  set "range_uses" (float_of_int lr.total_uses);
  set "range_defs" (float_of_int lr.total_defs);
  set "degree" (float_of_int lr.degree);
  let setb = Gp.Feature_set.set_bool fs env in
  setb "is_param" lr.is_param;
  setb "spans_call" lr.spans_call;
  setb "in_loop" (depth.(bi) > 0);
  env

(* --- Spill code insertion ---------------------------------------------- *)

let insert_spills (f : Ir.Func.t) (spilled : Ir.Types.reg list) : unit =
  if spilled <> [] then begin
    let slot = Hashtbl.create 8 in
    List.iteri
      (fun i r -> Hashtbl.replace slot r (f.Ir.Func.frame_size + i))
      spilled;
    f.Ir.Func.frame_size <- f.Ir.Func.frame_size + List.length spilled;
    let fname = f.Ir.Func.fname in
    let addr r = Ir.Builder.frame_addr ~fname ~slot:(Hashtbl.find slot r) in
    let is_spilled r = Hashtbl.mem slot r in
    List.iter
      (fun (b : Ir.Func.block) ->
        let out = ref [] in
        let emit ?(guard = Ir.Types.p_true) kind =
          out :=
            { Ir.Instr.id = Ir.Func.fresh_instr_id f; guard; kind } :: !out
        in
        List.iter
          (fun (i : Ir.Instr.t) ->
            let guard = i.Ir.Instr.guard in
            let used =
              List.sort_uniq compare
                (List.filter is_spilled (Ir.Instr.uses i.Ir.Instr.kind))
            in
            List.iter
              (fun r -> emit ~guard (Ir.Instr.Load (r, addr r)))
              used;
            out := i :: !out;
            match Ir.Instr.def i.Ir.Instr.kind with
            | Some d when is_spilled d ->
              emit ~guard (Ir.Instr.Store (addr d, Ir.Types.Reg d))
            | _ -> ())
          b.Ir.Func.instrs;
        (* Terminator uses of spilled registers reload at block end. *)
        List.iter
          (fun r ->
            if is_spilled r then emit (Ir.Instr.Load (r, addr r)))
          (Liveness.term_uses b.Ir.Func.term);
        b.Ir.Func.instrs <- List.rev !out)
      f.Ir.Func.blocks;
    (* Spilled parameters receive their incoming value at function entry. *)
    let entry = Ir.Func.entry f in
    let param_stores =
      List.filter_map
        (fun r ->
          if is_spilled r then
            Some
              {
                Ir.Instr.id = Ir.Func.fresh_instr_id f;
                guard = Ir.Types.p_true;
                kind = Ir.Instr.Store (addr r, Ir.Types.Reg r);
              }
          else None)
        f.Ir.Func.params
    in
    entry.Ir.Func.instrs <- param_stores @ entry.Ir.Func.instrs
  end

(* --- Driver ------------------------------------------------------------- *)

let run_func ?(savings_batch = baseline_savings_batch)
    ?(report = fun _ _ -> ()) ~(machine : Machine.Config.t) (f : Ir.Func.t) :
    result =
  let g = Ir.Cfg.build f in
  let live = Liveness.compute f g in
  let depth = Ir.Cfg.loop_depth g (Ir.Cfg.loops g) in
  let n = Ir.Cfg.n_blocks g in
  let calls_per_block =
    Array.init n (fun bi ->
        List.length
          (List.filter
             (fun (i : Ir.Instr.t) -> Ir.Instr.is_call i.Ir.Instr.kind)
             (Ir.Cfg.block_of g bi).Ir.Func.instrs))
  in
  let ranges = build_ranges f g live in
  let arr = Array.of_list ranges in
  let m = Array.length arr in
  (* Interference degrees. *)
  let neighbors = Array.make m [] in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      if interferes arr.(i) arr.(j) then begin
        neighbors.(i) <- j :: neighbors.(i);
        neighbors.(j) <- i :: neighbors.(j)
      end
    done
  done;
  Array.iteri
    (fun i lr -> lr.degree <- List.length neighbors.(i))
    arr;
  (* Equation (3): every (range, block) pair's feature vector in
     range-then-block order through one batch call, then each range's
     savings summed left to right in block order and divided by its
     size. *)
  let envs =
    Array.concat
      (Array.to_list
         (Array.map
            (fun lr ->
              let n_blocks = float_of_int (List.length lr.blocks) in
              Array.of_list
                (List.map
                   (block_env g depth calls_per_block lr ~n_blocks)
                   lr.blocks))
            arr))
  in
  let vals = savings_batch envs in
  let off = ref 0 in
  Array.iter
    (fun lr ->
      let nb = List.length lr.blocks in
      let total = ref 0.0 in
      for j = !off to !off + nb - 1 do
        total := !total +. vals.(j)
      done;
      off := !off + nb;
      lr.priority <- !total /. Float.max 1.0 (float_of_int nb))
    arr;
  (* Color in priority order. *)
  let k = machine.Machine.Config.gpr in
  let order = Array.init m Fun.id in
  Array.sort
    (fun a b -> compare arr.(b).priority arr.(a).priority)
    order;
  let spilled = ref [] in
  let max_color = ref (-1) in
  Array.iter
    (fun i ->
      let lr = arr.(i) in
      let forbidden = Array.make k false in
      List.iter
        (fun j ->
          let c = arr.(j).color in
          if c >= 0 then forbidden.(c) <- true)
        neighbors.(i);
      let rec first_free c =
        if c >= k then None
        else if forbidden.(c) then first_free (c + 1)
        else Some c
      in
      match first_free 0 with
      | Some c ->
        lr.color <- c;
        if c > !max_color then max_color := c
      | None ->
        lr.color <- -2;
        spilled := lr.reg :: !spilled)
    order;
  (* The spill list, in order (it fixes the frame slots), is all the
     rest of the pipeline sees of this allocation. *)
  report f.Ir.Func.fname !spilled;
  insert_spills f !spilled;
  {
    ranges = Array.to_list arr;
    spilled = List.rev !spilled;
    n_colors_used = !max_color + 1;
  }

let run ?savings_batch ?report ~machine (p : Ir.Func.program) :
    int (* total spills *) =
  List.fold_left
    (fun acc f ->
      let r = run_func ?savings_batch ?report ~machine f in
      acc + List.length r.spilled)
    0 p.Ir.Func.funcs
