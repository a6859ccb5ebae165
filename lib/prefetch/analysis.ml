(* Loop and array-access analysis for software prefetching.

   Identifies basic induction variables (r = r + c per iteration, possibly
   through a move), then classifies the address of every load in a loop as
   affine in an induction variable where possible, yielding a per-iteration
   stride in words.  This is the analysis half of Mowry's algorithm; the
   insertion half lives in [Insert]. *)

type induction = {
  ivar : Ir.Types.reg;
  step : int;                    (* per-iteration increment *)
}

type candidate = {
  fname : string;
  block_label : Ir.Types.label;
  instr_id : int;                (* the Load's id *)
  array : string option;         (* named global, if known *)
  stride : int option;           (* words per iteration; None = unknown *)
  loop_header : Ir.Types.label;
  loop_depth : int;
  trip_estimate : float option;  (* static trip-count guess *)
  loads_in_loop : int;
  body_ops : int;
}

(* Definitions of each register inside the given blocks; registers defined
   more than once map to None. *)
let unique_defs (blocks : Ir.Func.block list) :
    (Ir.Types.reg, Ir.Instr.kind option) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.Func.block) ->
      List.iter
        (fun (i : Ir.Instr.t) ->
          match Ir.Instr.def i.Ir.Instr.kind with
          | Some d ->
            if Hashtbl.mem tbl d then Hashtbl.replace tbl d None
            else Hashtbl.replace tbl d (Some i.Ir.Instr.kind)
          | None -> ())
        b.Ir.Func.instrs)
    blocks;
  tbl

(* Basic induction variables among the loop blocks. *)
let induction_vars (defs : (Ir.Types.reg, Ir.Instr.kind option) Hashtbl.t) :
    induction list =
  let direct r =
    match Hashtbl.find_opt defs r with
    | Some (Some (Ir.Instr.Ibin (Ir.Types.Add, _, Ir.Types.Reg a, Ir.Types.Imm c)))
      when a = r ->
      Some c
    | Some (Some (Ir.Instr.Ibin (Ir.Types.Add, _, Ir.Types.Imm c, Ir.Types.Reg a)))
      when a = r ->
      Some c
    | Some (Some (Ir.Instr.Ibin (Ir.Types.Sub, _, Ir.Types.Reg a, Ir.Types.Imm c)))
      when a = r ->
      Some (-c)
    | _ -> None
  in
  (* The step of a definition kind when it is a +/- constant update of
     register [r]. *)
  let step_of r = function
    | Ir.Instr.Ibin (Ir.Types.Add, _, Ir.Types.Reg a, Ir.Types.Imm c)
    | Ir.Instr.Ibin (Ir.Types.Add, _, Ir.Types.Imm c, Ir.Types.Reg a)
      when a = r ->
      Some c
    | Ir.Instr.Ibin (Ir.Types.Sub, _, Ir.Types.Reg a, Ir.Types.Imm c)
      when a = r ->
      Some (-c)
    | _ -> None
  in
  Hashtbl.fold
    (fun r def acc ->
      match def with
      | Some (Ir.Instr.Mov (_, Ir.Types.Reg src)) -> (
        (* r = mov src where src = r +/- c : the common lowering shape. *)
        match Hashtbl.find_opt defs src with
        | Some (Some k) -> (
          match step_of r k with
          | Some c -> { ivar = r; step = c } :: acc
          | None -> acc)
        | _ -> acc)
      | Some k -> (
        match step_of r k with
        | Some c -> { ivar = r; step = c } :: acc
        | None -> (
          match direct r with
          | Some c -> { ivar = r; step = c } :: acc
          | None -> acc))
      | None -> acc)
    defs []

(* Is the value of [op] invariant across iterations of the loop?  True for
   immediates, registers not defined in the loop, and registers whose
   in-loop definition chain only combines invariant values (e.g.
   [t = i * 128] inside the loop over [j]: recomputed each iteration, same
   value). *)
let rec invariant_in defs (ivs : induction list) depth (op : Ir.Types.operand)
    : bool =
  if depth <= 0 then false
  else
    match op with
    | Ir.Types.Imm _ | Ir.Types.Fimm _ -> true
    | Ir.Types.Reg r -> (
      if List.exists (fun iv -> iv.ivar = r) ivs then false
      else
        match Hashtbl.find_opt defs r with
        | None -> true   (* defined outside the loop *)
        | Some None -> false
        | Some (Some k) -> (
          match k with
          | Ir.Instr.Ibin (_, _, a, b) ->
            invariant_in defs ivs (depth - 1) a
            && invariant_in defs ivs (depth - 1) b
          | Ir.Instr.Mov (_, a) -> invariant_in defs ivs (depth - 1) a
          | Ir.Instr.Gaddr (_, _) -> true
          | _ -> false))

(* Affine form of [reg] in terms of an induction variable: coeff * ivar +
   invariant, traced through a bounded def chain.  Sums of an affine part
   and a loop-invariant part stay affine, which covers the ubiquitous
   [row * width + j] addressing shape. *)
let rec affine_of defs (ivs : induction list) depth (op : Ir.Types.operand) :
    (induction * int) option (* (iv, coeff) *) =
  if depth <= 0 then None
  else
    match op with
    | Ir.Types.Reg r -> (
      match List.find_opt (fun iv -> iv.ivar = r) ivs with
      | Some iv -> Some (iv, 1)
      | None -> (
        match Hashtbl.find_opt defs r with
        | Some (Some k) -> (
          match k with
          | Ir.Instr.Ibin ((Ir.Types.Add | Ir.Types.Sub), _, a, b) -> (
            let fa = affine_of defs ivs (depth - 1) a
            and fb = affine_of defs ivs (depth - 1) b in
            let neg =
              match k with
              | Ir.Instr.Ibin (Ir.Types.Sub, _, _, _) -> -1
              | _ -> 1
            in
            match (fa, fb) with
            | Some (iv, ca), None when invariant_in defs ivs depth b ->
              Some (iv, ca)
            | None, Some (iv, cb) when invariant_in defs ivs depth a ->
              Some (iv, neg * cb)
            | Some (iva, ca), Some (ivb, cb) when iva.ivar = ivb.ivar ->
              Some (iva, ca + (neg * cb))
            | _ -> None)
          | Ir.Instr.Ibin (Ir.Types.Mul, _, a, Ir.Types.Imm c)
          | Ir.Instr.Ibin (Ir.Types.Mul, _, Ir.Types.Imm c, a) -> (
            match affine_of defs ivs (depth - 1) a with
            | Some (iv, coeff) -> Some (iv, coeff * c)
            | None -> None)
          | Ir.Instr.Ibin (Ir.Types.Shl, _, a, Ir.Types.Imm c)
            when c >= 0 && c < 16 -> (
            match affine_of defs ivs (depth - 1) a with
            | Some (iv, coeff) -> Some (iv, coeff * (1 lsl c))
            | None -> None)
          | Ir.Instr.Mov (_, a) -> affine_of defs ivs (depth - 1) a
          | _ -> None)
        | _ -> None))
    | Ir.Types.Imm _ | Ir.Types.Fimm _ -> None

(* Resolve a register to a compile-time constant through the function-wide
   unique-definition chain (Mov of an immediate, or arithmetic over
   constants).  This recovers bounds like [dim - 1] where [dim] is a local
   assigned a literal once. *)
let rec const_of func_defs depth (op : Ir.Types.operand) : int option =
  if depth <= 0 then None
  else
    match op with
    | Ir.Types.Imm k -> Some k
    | Ir.Types.Fimm _ -> None
    | Ir.Types.Reg r -> (
      match Hashtbl.find_opt func_defs r with
      | Some (Some (Ir.Instr.Mov (_, a))) -> const_of func_defs (depth - 1) a
      | Some (Some (Ir.Instr.Ibin (bop, _, a, b))) -> (
        match
          ( const_of func_defs (depth - 1) a,
            const_of func_defs (depth - 1) b )
        with
        | Some x, Some y -> (
          match bop with
          | Ir.Types.Add -> Some (x + y)
          | Ir.Types.Sub -> Some (x - y)
          | Ir.Types.Mul -> Some (x * y)
          | Ir.Types.Div -> Some (if y = 0 then 0 else x / y)
          | Ir.Types.Shr -> Some (x asr (y land 63))
          | Ir.Types.Shl -> Some (x lsl (y land 63))
          | Ir.Types.Rem | Ir.Types.Band | Ir.Types.Bor | Ir.Types.Bxor ->
            None)
        | _ -> None)
      | _ -> None)

(* Static trip-count estimate: if the loop header compares the induction
   variable against a resolvable constant bound, trips ~ bound / step; the
   start value is unknown, so the bound/step ratio serves as the
   estimate. *)
let trip_estimate func_defs (header : Ir.Func.block) (ivs : induction list) :
    float option =
  let cond_reg =
    match header.Ir.Func.term with
    | Ir.Func.Br (Ir.Types.Reg c, _, _) -> Some c
    | _ -> None
  in
  match cond_reg with
  | None -> None
  | Some c ->
    List.find_map
      (fun (i : Ir.Instr.t) ->
        match i.Ir.Instr.kind with
        | Ir.Instr.Icmp ((Ir.Types.Clt | Ir.Types.Cle), d, Ir.Types.Reg r, b)
          when d = c -> (
          match
            (List.find_opt (fun iv -> iv.ivar = r) ivs,
             const_of func_defs 6 b)
          with
          | Some iv, Some bound when iv.step <> 0 ->
            Some (Float.abs (float_of_int bound /. float_of_int iv.step))
          | _ -> None)
        | Ir.Instr.Icmp ((Ir.Types.Cgt | Ir.Types.Cge), d, Ir.Types.Reg r, b)
          when d = c -> (
          (* Down-counting loops: i > bound / i >= bound. *)
          match
            (List.find_opt (fun iv -> iv.ivar = r) ivs,
             const_of func_defs 6 b)
          with
          | Some iv, Some _ when iv.step <> 0 ->
            (* Start value unknown; assume a modest trip count. *)
            Some 16.0
          | _ -> None)
        | _ -> None)
      header.Ir.Func.instrs

(* All prefetch candidates (loads inside loops) of a function. *)
let candidates (f : Ir.Func.t) : candidate list =
  let g = Ir.Cfg.build f in
  let loops = Ir.Cfg.loops g in
  let depth = Ir.Cfg.loop_depth g loops in
  let func_defs = unique_defs f.Ir.Func.blocks in
  List.concat_map
    (fun (l : Ir.Cfg.loop) ->
      (* Only analyze each load in its innermost containing loop. *)
      let body_blocks = List.map (Ir.Cfg.block_of g) l.Ir.Cfg.body in
      let header_depth = depth.(l.Ir.Cfg.header) in
      let inner_blocks =
        List.filter
          (fun bi -> depth.(bi) = header_depth)
          l.Ir.Cfg.body
      in
      let defs = unique_defs body_blocks in
      let ivs = induction_vars defs in
      let trip =
        trip_estimate func_defs (Ir.Cfg.block_of g l.Ir.Cfg.header) ivs
      in
      let body_ops =
        List.fold_left
          (fun acc (b : Ir.Func.block) -> acc + List.length b.Ir.Func.instrs)
          0 body_blocks
      in
      let loads_in_loop =
        List.fold_left
          (fun acc (b : Ir.Func.block) ->
            acc
            + List.length
                (List.filter
                   (fun (i : Ir.Instr.t) ->
                     match i.Ir.Instr.kind with
                     | Ir.Instr.Load _ -> true
                     | _ -> false)
                   b.Ir.Func.instrs))
          0 body_blocks
      in
      List.concat_map
        (fun bi ->
          let b = Ir.Cfg.block_of g bi in
          List.filter_map
            (fun (i : Ir.Instr.t) ->
              match i.Ir.Instr.kind with
              | Ir.Instr.Load (_, a) ->
                let stride =
                  match affine_of defs ivs 10 a.Ir.Instr.offset with
                  | Some (iv, coeff) -> Some (coeff * iv.step)
                  | None -> None
                in
                let array =
                  match a.Ir.Instr.space with
                  | Ir.Instr.Global gname -> Some gname
                  | Ir.Instr.Frame _ | Ir.Instr.Unknown -> None
                in
                Some
                  {
                    fname = f.Ir.Func.fname;
                    block_label = b.Ir.Func.blabel;
                    instr_id = i.Ir.Instr.id;
                    array;
                    stride;
                    loop_header = g.Ir.Cfg.labels.(l.Ir.Cfg.header);
                    loop_depth = header_depth;
                    trip_estimate = trip;
                    loads_in_loop;
                    body_ops;
                  }
              | _ -> None)
            b.Ir.Func.instrs)
        inner_blocks)
    loops
