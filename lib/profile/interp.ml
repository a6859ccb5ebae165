(* The interpreter for the predicated IR: the closure-compiled engine
   every simulation runs on, and the tree-walking reference it is
   checked against.

   Registers and memory cells hold floats; integer values are stored as
   exact floats (benchmark integers stay far below 2^53).  Integer
   division and remainder by zero yield zero, so every well-formed program
   is total — candidate compilations may only differ from the baseline in
   speed, never in definedness.

   An [observer] receives the dynamic events the profiler and the machine
   simulator need: block entries, branch outcomes at static branch sites,
   and memory accesses with resolved word addresses. *)

type mem_kind = Mload | Mstore | Mprefetch

type observer = {
  block_enter : int -> unit;             (* global block uid *)
  branch : int -> bool -> unit;          (* branch site uid, taken *)
  mem : mem_kind -> int -> unit;         (* resolved word address *)
  call : int -> unit;                    (* callee function index *)
}

let null_observer =
  {
    block_enter = ignore;
    branch = (fun _ _ -> ());
    mem = (fun _ _ -> ());
    call = ignore;
  }

type result = {
  output : float list;                   (* emitted values, in order *)
  return_value : float;
  steps : int;
      (* dynamic instruction slots issued: every entered block charges its
         full instruction count, whether or not a taken side exit cuts the
         visit short.  Block composition is schedule-invariant (the
         scheduler only permutes within blocks), so this count is
         identical across schedules of the same program — which is what
         lets a recorded trace report it during cross-schedule replay. *)
}

exception Out_of_fuel
exception Trap of string

let checksum output =
  (* An order-sensitive checksum of the emitted values, for comparing
     baseline and transformed compilations. *)
  List.fold_left
    (fun acc v ->
      let bits = Int64.to_int (Int64.of_float (v *. 65536.0)) in
      (acc * 31) + bits land 0x3FFFFFFFFFFFFF)
    17 output

(* Initial memory image: globals' initializers, then [overrides]
   (benchmark datasets) on top. *)
let init_memory (layout : Layout.t) overrides =
  let memory = Array.make (max 1 layout.Layout.memory_words) 0.0 in
  List.iter
    (fun (g : Ir.Func.global) ->
      let base = Hashtbl.find layout.Layout.global_base g.gname in
      Array.iteri (fun i v -> memory.(base + i) <- v) g.ginit)
    layout.Layout.prog.Ir.Func.globals;
  List.iter
    (fun (name, data) ->
      match Hashtbl.find_opt layout.Layout.global_base name with
      | None -> invalid_arg ("Interp.run: override of unknown global " ^ name)
      | Some base ->
        let g = Ir.Func.find_global layout.Layout.prog name in
        if Array.length data > g.Ir.Func.gsize then
          invalid_arg ("Interp.run: override too large for " ^ name);
        Array.iteri (fun i v -> memory.(base + i) <- v) data)
    overrides;
  memory

let load_trap a = raise (Trap (Printf.sprintf "memory access out of bounds: %d" a))
let store_trap a = raise (Trap (Printf.sprintf "memory store out of bounds: %d" a))

let ( .%() ) m a =
  if a < 0 || a >= Array.length m then load_trap a else Array.unsafe_get m a

let ( .%()<- ) m a v =
  if a < 0 || a >= Array.length m then store_trap a
  else Array.unsafe_set m a v

let eval_ibin op a b =
  match op with
  | Ir.Types.Add -> a + b
  | Ir.Types.Sub -> a - b
  | Ir.Types.Mul -> a * b
  | Ir.Types.Div -> if b = 0 then 0 else a / b
  | Ir.Types.Rem -> if b = 0 then 0 else a mod b
  | Ir.Types.Band -> a land b
  | Ir.Types.Bor -> a lor b
  | Ir.Types.Bxor -> a lxor b
  | Ir.Types.Shl -> a lsl (b land 63)
  | Ir.Types.Shr -> a asr (b land 63)

let[@inline] eval_icmp c a b =
  match c with
  | Ir.Types.Ceq -> a = b
  | Ir.Types.Cne -> a <> b
  | Ir.Types.Clt -> a < b
  | Ir.Types.Cle -> a <= b
  | Ir.Types.Cgt -> a > b
  | Ir.Types.Cge -> a >= b

let[@inline] eval_fcmp c (a : float) (b : float) =
  match c with
  | Ir.Types.Ceq -> a = b
  | Ir.Types.Cne -> a <> b
  | Ir.Types.Clt -> a < b
  | Ir.Types.Cle -> a <= b
  | Ir.Types.Cgt -> a > b
  | Ir.Types.Cge -> a >= b

let eval_fbin op a b =
  match op with
  | Ir.Types.Fadd -> a +. b
  | Ir.Types.Fsub -> a -. b
  | Ir.Types.Fmul -> a *. b
  | Ir.Types.Fdiv -> if b = 0.0 then 0.0 else a /. b

let eval_intrin i (args : float list) =
  match (i, args) with
  | Ir.Types.Isin, [ x ] -> sin x
  | Ir.Types.Icos, [ x ] -> cos x
  | Ir.Types.Iexp, [ x ] -> exp (Float.min x 700.0)
  | Ir.Types.Ilog, [ x ] -> if x <= 0.0 then 0.0 else log x
  | Ir.Types.Imin, [ a; b ] ->
    float_of_int (min (int_of_float a) (int_of_float b))
  | Ir.Types.Imax, [ a; b ] ->
    float_of_int (max (int_of_float a) (int_of_float b))
  | Ir.Types.Ifmin, [ a; b ] -> Float.min a b
  | Ir.Types.Ifmax, [ a; b ] -> Float.max a b
  | _ -> raise (Trap "intrinsic arity mismatch")

(* --- Reference interpreter ----------------------------------------------- *)

type state = {
  layout : Layout.t;
  memory : float array;
  obs : observer;
  mutable fuel : int;
  mutable out_rev : float list;
  mutable steps : int;
}

(* Execute one function; returns its return value. *)
let rec exec_func (st : state) (pf : Layout.pfunc) (args : float array) : float
    =
  let regs = Array.make (max 1 pf.Layout.n_regs) 0.0 in
  let preds = Array.make (max 1 pf.Layout.n_preds) false in
  preds.(Ir.Types.p_true) <- true;
  Array.iteri (fun i v -> regs.(i + 1) <- v) args;
  let ev = function
    | Ir.Types.Reg r -> regs.(r)
    | Ir.Types.Imm k -> float_of_int k
    | Ir.Types.Fimm f -> f
  in
  let evi o = int_of_float (ev o) in
  let addr_of (a : Ir.Instr.address) =
    let base =
      match a.Ir.Instr.space with
      | Ir.Instr.Frame fname ->
        (Layout.func st.layout fname).Layout.frame_base + evi a.Ir.Instr.base
      | Ir.Instr.Global _ | Ir.Instr.Unknown -> evi a.Ir.Instr.base
    in
    base + evi a.Ir.Instr.offset
  in
  let return_value = ref 0.0 in
  let rec run_block (bi : int) : unit =
    let b = pf.Layout.blocks.(bi) in
    (* Charge fuel per block entry as well as per instruction, so empty
       infinite loops still run out of fuel. *)
    st.fuel <- st.fuel - 1;
    if st.fuel <= 0 then raise Out_of_fuel;
    st.obs.block_enter b.Layout.uid;
    let n = Array.length b.Layout.instrs in
    (* Whole-block issue count: schedule-invariant (see [result.steps]),
       unlike counting only the slots visited before a taken exit. *)
    st.steps <- st.steps + n;
    let next = ref `Fallthrough in
    let pc = ref 0 in
    while !next = `Fallthrough && !pc < n do
      let i = b.Layout.instrs.(!pc) in
      st.fuel <- st.fuel - 1;
      if st.fuel <= 0 then raise Out_of_fuel;
      if preds.(i.Ir.Instr.guard) then begin
        (match i.Ir.Instr.kind with
        | Ir.Instr.Ibin (op, d, a, bb) ->
          regs.(d) <- float_of_int (eval_ibin op (evi a) (evi bb))
        | Ir.Instr.Fbin (op, d, a, bb) -> regs.(d) <- eval_fbin op (ev a) (ev bb)
        | Ir.Instr.Funop (op, d, a) ->
          regs.(d) <-
            (match op with
            | Ir.Types.Fneg -> -.ev a
            | Ir.Types.Fabs -> Float.abs (ev a)
            | Ir.Types.Fsqrt -> sqrt (Float.abs (ev a)))
        | Ir.Instr.Icmp (c, d, a, bb) ->
          regs.(d) <- (if eval_icmp c (evi a) (evi bb) then 1.0 else 0.0)
        | Ir.Instr.Fcmp (c, d, a, bb) ->
          regs.(d) <- (if eval_fcmp c (ev a) (ev bb) then 1.0 else 0.0)
        | Ir.Instr.Mov (d, a) -> regs.(d) <- ev a
        | Ir.Instr.Itof (d, a) -> regs.(d) <- ev a
        | Ir.Instr.Ftoi (d, a) -> regs.(d) <- Float.of_int (int_of_float (ev a))
        | Ir.Instr.Intrin (intr, d, args) ->
          regs.(d) <- eval_intrin intr (List.map ev args)
        | Ir.Instr.Gaddr (d, g) ->
          regs.(d) <-
            float_of_int (Hashtbl.find st.layout.Layout.global_base g)
        | Ir.Instr.Load (d, a) ->
          let addr = addr_of a in
          st.obs.mem Mload addr;
          regs.(d) <- st.memory.%(addr)
        | Ir.Instr.Store (a, v) ->
          let addr = addr_of a in
          st.obs.mem Mstore addr;
          st.memory.%(addr) <- ev v
        | Ir.Instr.Prefetch a ->
          (* No architectural effect; the cache model sees the access. *)
          let addr = addr_of a in
          if addr >= 0 && addr < Array.length st.memory then
            st.obs.mem Mprefetch addr
        | Ir.Instr.Call (d, name, args, _) ->
          let argv = Array.of_list (List.map ev args) in
          let callee = Layout.func st.layout name in
          st.obs.call callee.Layout.findex;
          let res = exec_func st callee argv in
          (match d with Some d -> regs.(d) <- res | None -> ())
        | Ir.Instr.Emit v -> st.out_rev <- ev v :: st.out_rev
        | Ir.Instr.Pdef (c, pt, pf_, a, bb) ->
          let v = eval_icmp c (evi a) (evi bb) in
          preds.(pt) <- v;
          preds.(pf_) <- not v
        | Ir.Instr.Pclear p -> preds.(p) <- false
        | Ir.Instr.Pset (c, p, a, bb) ->
          preds.(p) <- eval_icmp c (evi a) (evi bb)
        | Ir.Instr.Por (c, p, a, bb) ->
          if eval_icmp c (evi a) (evi bb) then preds.(p) <- true
        | Ir.Instr.Exit _ -> ());
        (* Taken side exits transfer control. *)
        match i.Ir.Instr.kind with
        | Ir.Instr.Exit _ ->
          let site =
            let rec find k =
              if k >= Array.length b.Layout.exit_targets then -1
              else if fst b.Layout.exit_targets.(k) = !pc then k
              else find (k + 1)
            in
            find 0
          in
          assert (site >= 0);
          st.obs.branch b.Layout.exit_sites.(site) true;
          next := `Goto (snd b.Layout.exit_targets.(site))
        | _ -> incr pc
      end
      else begin
        (* Nullified instruction; unconditional-form compares still clear
           their target, and a predicated-off exit is a not-taken branch
           for the predictor. *)
        (match i.Ir.Instr.kind with
        | Ir.Instr.Pset (_, p, _, _) -> preds.(p) <- false
        | Ir.Instr.Exit _ ->
          let site =
            let rec find k =
              if k >= Array.length b.Layout.exit_targets then -1
              else if fst b.Layout.exit_targets.(k) = !pc then k
              else find (k + 1)
            in
            find 0
          in
          if site >= 0 then st.obs.branch b.Layout.exit_sites.(site) false
        | _ -> ());
        incr pc
      end
    done;
    match !next with
    | `Goto bi' -> run_block bi'
    | `Fallthrough -> (
      match b.Layout.term with
      | Ir.Func.Jmp _ -> run_block (fst b.Layout.term_targets)
      | Ir.Func.Br (c, _, _) ->
        let taken = ev c <> 0.0 in
        st.obs.branch b.Layout.branch_site taken;
        run_block
          (if taken then fst b.Layout.term_targets
           else snd b.Layout.term_targets)
      | Ir.Func.Ret v ->
        return_value := (match v with Some v -> ev v | None -> 0.0))
  in
  run_block 0;
  !return_value


let run_reference ?(observer = null_observer) ?(fuel = 30_000_000)
    ?(overrides = []) (layout : Layout.t) : result =
  let memory = init_memory layout overrides in
  let st = { layout; memory; obs = observer; fuel; out_rev = []; steps = 0 } in
  let main = Layout.func layout layout.Layout.prog.Ir.Func.main in
  let ret = exec_func st main [||] in
  { output = List.rev st.out_rev; return_value = ret; steps = st.steps }

(* --- Closure engine ------------------------------------------------------- *)

(* Each run compiles the program's blocks into chains of specialised
   closures: opcode, operand shape, guard, and every name the reference
   resolves per execution (globals, frames, callees, exit sites) are
   fixed at compile time, and each instruction's closure tail-calls the
   next one.  Compiling per run costs nothing measurable — programs have
   a few hundred static instructions against millions of dynamic ones —
   and keeps [Layout.prepare], which most candidate compilations stop
   at, free of it.

   An activation's frame is one float array: its registers, then its
   predicates (as 0.0 / 1.0), then one slot per distinct immediate,
   initialised from a per-function template.  Every operand is thus a
   slot read, and every closure takes the frame alone, which OCaml
   applies with a single indirect call.

   Fuel: a block's instructions are split into segments that end at each
   call.  A segment that fits in the remaining fuel is charged in one
   step (a taken side exit refunds what it skips); otherwise it runs a
   per-instruction checked chain.  A callee therefore always starts with
   the fuel the reference would give it, and [Out_of_fuel] fires at the
   identical step, after the identical events. *)

module type EVENTS = sig
  type t

  val block_enter : t -> int -> unit
  val branch : t -> int -> bool -> unit
  val load : t -> int -> unit
  val store : t -> int -> unit
  val prefetch : t -> int -> unit
  val call : t -> int -> unit
end

module Make (E : EVENTS) = struct
  (* A compiled fragment runs on one activation's frame up to the
     function's return; control passes between blocks by tail call. *)
  type code = float array -> unit

  type st = {
    mutable fuel : int;
    mutable steps : int;
    mutable out_rev : float list;
  }

  (* The returning activation's value, read by its caller right away. *)
  type ret = { mutable value : float }

  (* A register or predicate outside the function's files: the
     instruction compiles to the reference's bounds failure. *)
  exception Bad_index

  let oob : code = fun _ -> invalid_arg "index out of bounds"

  (* Frame access; every slot index is checked against the frame layout
     when the instruction is compiled. *)
  let ( .!() ) (r : float array) i = Array.unsafe_get r i
  let ( .!()<- ) (r : float array) i v = Array.unsafe_set r i v
  let truth b = if b then 1.0 else 0.0

  let compile_func ~(layout : Layout.t) ~ev ~st ~memory ~ret
      ~(fns : (float array -> float) array) (pf : Layout.pfunc) :
      float array -> float =
    let nr = max 1 pf.Layout.n_regs and np = max 1 pf.Layout.n_preds in
    let consts = Hashtbl.create 16 in
    let const v =
      let key = Int64.bits_of_float v in
      match Hashtbl.find_opt consts key with
      | Some (s, _) -> s
      | None ->
        let s = nr + np + Hashtbl.length consts in
        Hashtbl.replace consts key (s, v);
        s
    in
    let reg r = if r < 0 || r >= nr then raise Bad_index else r in
    let pred q = if q < 0 || q >= np then raise Bad_index else nr + q in
    let slot = function
      | Ir.Types.Reg r -> reg r
      | Ir.Types.Imm k -> const (float_of_int k)
      | Ir.Types.Fimm f -> const f
    in
    (* [frame + base + offset] as a constant and two slots to add; an
       immediate part folds into the constant and reads a 0.0 slot. *)
    let address (a : Ir.Instr.address) =
      let part = function
        | Ir.Types.Reg r -> (0, reg r)
        | Ir.Types.Imm k -> (k, const 0.0)
        | Ir.Types.Fimm f -> (int_of_float f, const 0.0)
      in
      let frame =
        match a.Ir.Instr.space with
        | Ir.Instr.Frame fname -> (
          match Hashtbl.find_opt layout.Layout.func_index fname with
          | Some i -> Ok layout.Layout.funcs.(i).Layout.frame_base
          | None -> Error ("Layout.func: unknown function " ^ fname))
        | Ir.Instr.Global _ | Ir.Instr.Unknown -> Ok 0
      in
      Result.map
        (fun frame ->
          let kb, x = part a.Ir.Instr.base and ko, y = part a.Ir.Instr.offset in
          (frame + kb + ko, x, y))
        frame
    in
    (* Filled once every block is compiled; jumps index it at run time. *)
    let blocks = Array.make (Array.length pf.Layout.blocks) oob in
    let checked (c : code) : code =
     fun r ->
      st.fuel <- st.fuel - 1;
      if st.fuel <= 0 then raise Out_of_fuel;
      c r
    in
    (* Instruction [pos] of [b], then [k].  The guard test is fused into
       the instruction's own closure; a taken exit refunds [refund] fuel
       charged for the rest of its segment.  The frequent opcodes are
       written out as one closure each; the rest go through [on], which
       costs one more indirect call. *)
    let instr (b : Layout.pblock) pos ~refund (k : code) : code =
      let i = b.Layout.instrs.(pos) in
      let on g (effect : float array -> unit) : code =
       fun r ->
        if r.!(g) <> 0.0 then effect r;
        k r
      in
      let fail g (raise_ : unit -> unit) : code =
       fun r ->
        if r.!(g) <> 0.0 then raise_ ();
        k r
      in
      match pred i.Ir.Instr.guard with
      | exception Bad_index -> oob
      | g -> (
        try
          match i.Ir.Instr.kind with
          | Ir.Instr.Ibin (op, d, a, b) -> (
            let d = reg d and a = slot a and b = slot b in
            let i (r : float array) s = int_of_float r.!(s) in
            match op with
            | Ir.Types.Add ->
              fun r ->
                if r.!(g) <> 0.0 then r.!(d) <- float_of_int (i r a + i r b);
                k r
            | Ir.Types.Sub ->
              fun r ->
                if r.!(g) <> 0.0 then r.!(d) <- float_of_int (i r a - i r b);
                k r
            | Ir.Types.Mul ->
              fun r ->
                if r.!(g) <> 0.0 then r.!(d) <- float_of_int (i r a * i r b);
                k r
            | Ir.Types.Div ->
              on g (fun r ->
                  let y = i r b in
                  r.!(d) <- float_of_int (if y = 0 then 0 else i r a / y))
            | Ir.Types.Rem ->
              on g (fun r ->
                  let y = i r b in
                  r.!(d) <- float_of_int (if y = 0 then 0 else i r a mod y))
            | Ir.Types.Band ->
              fun r ->
                if r.!(g) <> 0.0 then r.!(d) <- float_of_int (i r a land i r b);
                k r
            | Ir.Types.Bor ->
              fun r ->
                if r.!(g) <> 0.0 then r.!(d) <- float_of_int (i r a lor i r b);
                k r
            | Ir.Types.Bxor ->
              on g (fun r -> r.!(d) <- float_of_int (i r a lxor i r b))
            | Ir.Types.Shl ->
              on g (fun r -> r.!(d) <- float_of_int (i r a lsl (i r b land 63)))
            | Ir.Types.Shr ->
              on g (fun r -> r.!(d) <- float_of_int (i r a asr (i r b land 63))))
          | Ir.Instr.Fbin (op, d, a, b) -> (
            let d = reg d and a = slot a and b = slot b in
            match op with
            | Ir.Types.Fadd ->
              fun r ->
                if r.!(g) <> 0.0 then r.!(d) <- r.!(a) +. r.!(b);
                k r
            | Ir.Types.Fsub ->
              fun r ->
                if r.!(g) <> 0.0 then r.!(d) <- r.!(a) -. r.!(b);
                k r
            | Ir.Types.Fmul ->
              fun r ->
                if r.!(g) <> 0.0 then r.!(d) <- r.!(a) *. r.!(b);
                k r
            | Ir.Types.Fdiv ->
              on g (fun r ->
                  let y = r.!(b) in
                  r.!(d) <- (if y = 0.0 then 0.0 else r.!(a) /. y)))
          | Ir.Instr.Funop (op, d, a) -> (
            let d = reg d and a = slot a in
            match op with
            | Ir.Types.Fneg -> on g (fun r -> r.!(d) <- -.r.!(a))
            | Ir.Types.Fabs -> on g (fun r -> r.!(d) <- Float.abs r.!(a))
            | Ir.Types.Fsqrt -> on g (fun r -> r.!(d) <- sqrt (Float.abs r.!(a))))
          | Ir.Instr.Icmp (c, d, a, b) ->
            let d = reg d and a = slot a and b = slot b in
            fun r ->
              if r.!(g) <> 0.0 then
                r.!(d) <-
                  truth (eval_icmp c (int_of_float r.!(a)) (int_of_float r.!(b)));
              k r
          | Ir.Instr.Fcmp (c, d, a, b) ->
            let d = reg d and a = slot a and b = slot b in
            on g (fun r -> r.!(d) <- truth (eval_fcmp c r.!(a) r.!(b)))
          | Ir.Instr.Mov (d, a) | Ir.Instr.Itof (d, a) ->
            let d = reg d and a = slot a in
            fun r ->
              if r.!(g) <> 0.0 then r.!(d) <- r.!(a);
              k r
          | Ir.Instr.Ftoi (d, a) ->
            let d = reg d and a = slot a in
            on g (fun r -> r.!(d) <- Float.of_int (int_of_float r.!(a)))
          | Ir.Instr.Intrin (intr, d, args) -> (
            let d = reg d in
            match (intr, List.map slot args) with
            | Ir.Types.Isin, [ a ] -> on g (fun r -> r.!(d) <- sin r.!(a))
            | Ir.Types.Icos, [ a ] -> on g (fun r -> r.!(d) <- cos r.!(a))
            | Ir.Types.Iexp, [ a ] ->
              on g (fun r -> r.!(d) <- exp (Float.min r.!(a) 700.0))
            | Ir.Types.Ilog, [ a ] ->
              on g (fun r ->
                  let x = r.!(a) in
                  r.!(d) <- (if x <= 0.0 then 0.0 else log x))
            | Ir.Types.Imin, [ a; b ] ->
              on g (fun r ->
                  r.!(d) <-
                    float_of_int (min (int_of_float r.!(a)) (int_of_float r.!(b))))
            | Ir.Types.Imax, [ a; b ] ->
              on g (fun r ->
                  r.!(d) <-
                    float_of_int (max (int_of_float r.!(a)) (int_of_float r.!(b))))
            | Ir.Types.Ifmin, [ a; b ] ->
              on g (fun r -> r.!(d) <- Float.min r.!(a) r.!(b))
            | Ir.Types.Ifmax, [ a; b ] ->
              on g (fun r -> r.!(d) <- Float.max r.!(a) r.!(b))
            | _ -> fail g (fun () -> raise (Trap "intrinsic arity mismatch")))
          | Ir.Instr.Gaddr (d, name) -> (
            let d = reg d in
            match Hashtbl.find_opt layout.Layout.global_base name with
            | Some base ->
              let v = float_of_int base in
              fun r ->
                if r.!(g) <> 0.0 then r.!(d) <- v;
                k r
            | None -> fail g (fun () -> raise Not_found))
          | Ir.Instr.Load (d, a) -> (
            let d = reg d in
            match address a with
            | Error m -> fail g (fun () -> invalid_arg m)
            | Ok (c, x, y) ->
              fun r ->
                if r.!(g) <> 0.0 then begin
                  let a = c + int_of_float r.!(x) + int_of_float r.!(y) in
                  E.load ev a;
                  r.!(d) <- memory.%(a)
                end;
                k r)
          | Ir.Instr.Store (a, v) -> (
            let v = slot v in
            match address a with
            | Error m -> fail g (fun () -> invalid_arg m)
            | Ok (c, x, y) ->
              fun r ->
                if r.!(g) <> 0.0 then begin
                  let a = c + int_of_float r.!(x) + int_of_float r.!(y) in
                  E.store ev a;
                  memory.%(a) <- r.!(v)
                end;
                k r)
          | Ir.Instr.Prefetch a -> (
            (* No architectural effect; the cache model sees the access. *)
            let words = Array.length memory in
            match address a with
            | Error m -> fail g (fun () -> invalid_arg m)
            | Ok (c, x, y) ->
              on g (fun r ->
                  let a = c + int_of_float r.!(x) + int_of_float r.!(y) in
                  if a >= 0 && a < words then E.prefetch ev a))
          | Ir.Instr.Call (d, name, args, _) -> (
            let d = match d with Some d -> reg d | None -> -1 in
            let args = Array.of_list (List.map slot args) in
            match Hashtbl.find_opt layout.Layout.func_index name with
            | None ->
              fail g (fun () ->
                  invalid_arg ("Layout.func: unknown function " ^ name))
            | Some fi ->
              on g (fun r ->
                  let argv = Array.map (fun s -> r.!(s)) args in
                  E.call ev fi;
                  let v = fns.(fi) argv in
                  if d >= 0 then r.!(d) <- v))
          | Ir.Instr.Emit v ->
            let v = slot v in
            on g (fun r -> st.out_rev <- r.!(v) :: st.out_rev)
          | Ir.Instr.Pdef (c, pt, pf, a, b) ->
            let pt = pred pt and pf = pred pf and a = slot a and b = slot b in
            fun r ->
              if r.!(g) <> 0.0 then begin
                let v = eval_icmp c (int_of_float r.!(a)) (int_of_float r.!(b)) in
                r.!(pt) <- truth v;
                r.!(pf) <- truth (not v)
              end;
              k r
          | Ir.Instr.Pclear q ->
            let q = pred q in
            fun r ->
              if r.!(g) <> 0.0 then r.!(q) <- 0.0;
              k r
          | Ir.Instr.Pset (c, q, a, b) ->
            (* unconditional form: a nullified compare clears its target *)
            let q = pred q and a = slot a and b = slot b in
            fun r ->
              r.!(q) <-
                (if r.!(g) <> 0.0 then
                   truth
                     (eval_icmp c (int_of_float r.!(a)) (int_of_float r.!(b)))
                 else 0.0);
              k r
          | Ir.Instr.Por (c, q, a, b) ->
            let q = pred q and a = slot a and b = slot b in
            fun r ->
              if
                r.!(g) <> 0.0
                && eval_icmp c (int_of_float r.!(a)) (int_of_float r.!(b))
              then r.!(q) <- 1.0;
              k r
          | Ir.Instr.Exit _ ->
            let rec find j =
              if j >= Array.length b.Layout.exit_targets then
                invalid_arg "Interp: exit without a recorded target"
              else if fst b.Layout.exit_targets.(j) = pos then
                (b.Layout.exit_sites.(j), snd b.Layout.exit_targets.(j))
              else find (j + 1)
            in
            let site, target = find 0 in
            fun r ->
              if r.!(g) <> 0.0 then begin
                E.branch ev site true;
                st.fuel <- st.fuel + refund;
                blocks.(target) r
              end
              else begin
                E.branch ev site false;
                k r
              end
        with Bad_index -> fail g (fun () -> invalid_arg "index out of bounds"))
    in
    let compile_block (b : Layout.pblock) : code =
      let n = Array.length b.Layout.instrs in
      let term : code =
        try
          match b.Layout.term with
          | Ir.Func.Jmp _ ->
            let t = fst b.Layout.term_targets in
            fun r -> blocks.(t) r
          | Ir.Func.Br (c, _, _) ->
            let c = slot c and site = b.Layout.branch_site in
            let t, f = b.Layout.term_targets in
            fun r ->
              let taken = r.!(c) <> 0.0 in
              E.branch ev site taken;
              blocks.(if taken then t else f) r
          | Ir.Func.Ret None -> fun _ -> ret.value <- 0.0
          | Ir.Func.Ret (Some v) ->
            let v = slot v in
            fun r -> ret.value <- r.!(v)
        with Bad_index -> oob
      in
      (* Segment [lo, hi] (no call before its last instruction): its
         length and its charged-at-once and checked chains. *)
      let segment lo hi (k : code) =
        let fast = ref k and slow = ref k in
        for pos = hi downto lo do
          fast := instr b pos ~refund:(hi - pos) !fast;
          slow := checked (instr b pos ~refund:0 !slow)
        done;
        (hi - lo + 1, !fast, !slow)
      in
      let charged (m, fast, slow) : code =
       fun r ->
        if st.fuel > m then begin
          st.fuel <- st.fuel - m;
          fast r
        end
        else slow r
      in
      let is_call pos = Ir.Instr.is_call b.Layout.instrs.(pos).Ir.Instr.kind in
      (* The segments from [hi] down; the first one is returned as a
         segment for the block entry to charge. *)
      let rec segments hi (k : code) =
        let rec start lo =
          if lo > 0 && not (is_call (lo - 1)) then start (lo - 1) else lo
        in
        let lo = start hi in
        let seg = segment lo hi k in
        if lo = 0 then seg else segments (lo - 1) (charged seg)
      in
      let m, fast, slow = if n = 0 then (0, term, term) else segments (n - 1) term
      and uid = b.Layout.uid in
      fun r ->
        st.fuel <- st.fuel - 1;
        if st.fuel <= 0 then raise Out_of_fuel;
        E.block_enter ev uid;
        (* Whole-block issue count, matching the reference. *)
        st.steps <- st.steps + n;
        if st.fuel > m then begin
          st.fuel <- st.fuel - m;
          fast r
        end
        else slow r
    in
    Array.iteri (fun i b -> blocks.(i) <- compile_block b) pf.Layout.blocks;
    let template = Array.make (nr + np + Hashtbl.length consts) 0.0 in
    template.(nr + Ir.Types.p_true) <- 1.0;
    Hashtbl.iter (fun _ (s, v) -> template.(s) <- v) consts;
    fun args ->
      let nargs = Array.length args in
      if nargs > 0 && nargs >= nr then invalid_arg "index out of bounds";
      let r = Array.copy template in
      Array.blit args 0 r 1 nargs;
      blocks.(0) r;
      ret.value

  let run ev ?(fuel = 30_000_000) ?(overrides = []) (layout : Layout.t) :
      result =
    let memory = init_memory layout overrides in
    let main = Layout.func layout layout.Layout.prog.Ir.Func.main in
    let st = { fuel; steps = 0; out_rev = [] } in
    let ret = { value = 0.0 } in
    let fns = Array.make (Array.length layout.Layout.funcs) (fun _ -> 0.0) in
    Array.iter
      (fun (pf : Layout.pfunc) ->
        fns.(pf.Layout.findex) <-
          compile_func ~layout ~ev ~st ~memory ~ret ~fns pf)
      layout.Layout.funcs;
    let v = fns.(main.Layout.findex) [||] in
    { output = List.rev st.out_rev; return_value = v; steps = st.steps }
end

module Observed = Make (struct
  type t = observer

  let block_enter o uid = o.block_enter uid
  let branch o site taken = o.branch site taken
  let load o a = o.mem Mload a
  let store o a = o.mem Mstore a
  let prefetch o a = o.mem Mprefetch a
  let call o fi = o.call fi
end)

let run ?(observer = null_observer) ?fuel ?overrides layout =
  Observed.run observer ?fuel ?overrides layout
