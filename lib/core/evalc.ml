(* Compiled genome evaluation: one pass over the tree flattens it into a
   flat, register-coded bytecode that the batch engine below executes one
   instruction across a whole chunk of environments at a time — no
   constructor dispatch, no recursion and no allocation per point.

   Semantics are exactly [Eval]'s documented contract — protected
   division with the [div_epsilon] rule, sqrt of the absolute value,
   non-finite collapse to 0 — checked bit-for-bit by the test suite and
   the [compiled_vs_walk] fuzz oracle.

   The code is straight-line: [Rtern]/[Rcmul]/[Band]/[Bor] become select
   instructions over operands that are always computed, so operator
   dispatch is paid once per instruction per chunk instead of once per
   node per point, and the inner loops are tight float-array walks.
   Strictness cannot change a value: every operation is total, pure and
   deterministic, so both arms of a select evaluate to the same floats
   the walker would have produced had it taken them.  The engine does
   read every feature the genome mentions, including ones the walker's
   short-circuiting would skip; on a valid genome those reads are in
   range, because genomes name features of the set their environments
   are built from.

   Instruction encoding: fixed stride of 5 ints per instruction —
   [op; dst; a; b; c] — with unused operand slots 0.  Register files are
   split by sort: real results go to float registers, Boolean results to
   bool registers.  Constants live in a float pool so the code stream
   stays a flat int array.  Repeated [arg]/[const] leaves are
   deduplicated (they are pure reads), which GP trees — small feature
   sets, parsimony pressure — repeat constantly. *)

let div_epsilon = Eval.div_epsilon

(* Opcodes.  No jumps and no movs — conditionals are selects over
   already-computed operands. *)
let s_add = 0
let s_sub = 1
let s_mul = 2
let s_div = 3
let s_sqrt = 4
let s_const = 5
let s_arg = 6
let s_tern = 7 (* dst <- if p c then f a else f b *)
let s_cmul = 8 (* dst <- if p c then protect (f a *. f b) else f b *)
let s_and = 9
let s_or = 10
let s_not = 11
let s_lt = 12
let s_gt = 13
let s_eq = 14
let s_bconst = 15
let s_barg = 16

type t = {
  code : int array; (* stride 5: op dst a b c *)
  consts : float array;
  n_fregs : int;
  n_bregs : int;
  root : int; (* register holding the final result *)
  sort : [ `Real | `Bool ];
}

(* --- Compilation --------------------------------------------------------- *)

type builder = {
  mutable code : int array; (* growable, 5 ints per instruction *)
  mutable len : int; (* ints used *)
  mutable consts_rev : float list;
  mutable n_consts : int;
  mutable n_fregs : int;
  mutable n_bregs : int;
}

let fresh_f b =
  let r = b.n_fregs in
  b.n_fregs <- r + 1;
  r

let fresh_b b =
  let r = b.n_bregs in
  b.n_bregs <- r + 1;
  r

let intern_const b k =
  let i = b.n_consts in
  b.consts_rev <- k :: b.consts_rev;
  b.n_consts <- i + 1;
  i

let emit b op dst x y z =
  if b.len + 5 > Array.length b.code then begin
    let grown = Array.make (2 * Array.length b.code) 0 in
    Array.blit b.code 0 grown 0 b.len;
    b.code <- grown
  end;
  let k = b.len in
  b.code.(k) <- op;
  b.code.(k + 1) <- dst;
  b.code.(k + 2) <- x;
  b.code.(k + 3) <- y;
  b.code.(k + 4) <- z;
  b.len <- k + 5

let new_builder () =
  {
    code = Array.make 40 0;
    len = 0;
    consts_rev = [];
    n_consts = 0;
    n_fregs = 0;
    n_bregs = 0;
  }

(* One fresh virtual register per node; repeated [arg]/[const] leaves are
   memoised into a single register so the batch engine gathers each
   distinct feature once per chunk rather than once per occurrence. *)
type sctx = {
  sb : builder;
  const_regs : (int64, int) Hashtbl.t;
  arg_regs : (int, int) Hashtbl.t;
  barg_regs : (int, int) Hashtbl.t;
  mutable btrue_reg : int; (* -1 until first use *)
  mutable bfalse_reg : int;
}

let cached tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = make () in
    Hashtbl.add tbl key r;
    r

let rec sreal c (e : Expr.rexpr) : int =
  let b = c.sb in
  match e with
  | Expr.Radd (x, y) -> sbin_r c s_add x y
  | Expr.Rsub (x, y) -> sbin_r c s_sub x y
  | Expr.Rmul (x, y) -> sbin_r c s_mul x y
  | Expr.Rdiv (x, y) -> sbin_r c s_div x y
  | Expr.Rsqrt x ->
    let a = sreal c x in
    let d = fresh_f b in
    emit b s_sqrt d a 0 0;
    d
  | Expr.Rtern (p, x, y) ->
    let rp = sbool c p in
    let rx = sreal c x in
    let ry = sreal c y in
    let d = fresh_f b in
    emit b s_tern d rx ry rp;
    d
  | Expr.Rcmul (p, x, y) ->
    let rp = sbool c p in
    let rx = sreal c x in
    let ry = sreal c y in
    let d = fresh_f b in
    emit b s_cmul d rx ry rp;
    d
  | Expr.Rconst k ->
    cached c.const_regs (Int64.bits_of_float k) (fun () ->
        let i = intern_const b k in
        let d = fresh_f b in
        emit b s_const d i 0 0;
        d)
  | Expr.Rarg i ->
    cached c.arg_regs i (fun () ->
        let d = fresh_f b in
        emit b s_arg d i 0 0;
        d)

and sbin_r c op x y =
  let a = sreal c x in
  let a' = sreal c y in
  let d = fresh_f c.sb in
  emit c.sb op d a a' 0;
  d

and sbool c (e : Expr.bexpr) : int =
  let b = c.sb in
  match e with
  | Expr.Band (x, y) -> sbin_b c s_and (sbool c x) (sbool c y)
  | Expr.Bor (x, y) -> sbin_b c s_or (sbool c x) (sbool c y)
  | Expr.Bnot x ->
    let a = sbool c x in
    let d = fresh_b b in
    emit b s_not d a 0 0;
    d
  | Expr.Blt (x, y) -> sbin_b c s_lt (sreal c x) (sreal c y)
  | Expr.Bgt (x, y) -> sbin_b c s_gt (sreal c x) (sreal c y)
  | Expr.Beq (x, y) -> sbin_b c s_eq (sreal c x) (sreal c y)
  | Expr.Bconst true ->
    if c.btrue_reg < 0 then begin
      let d = fresh_b b in
      emit b s_bconst d 1 0 0;
      c.btrue_reg <- d
    end;
    c.btrue_reg
  | Expr.Bconst false ->
    if c.bfalse_reg < 0 then begin
      let d = fresh_b b in
      emit b s_bconst d 0 0 0;
      c.bfalse_reg <- d
    end;
    c.bfalse_reg
  | Expr.Barg i ->
    cached c.barg_regs i (fun () ->
        let d = fresh_b b in
        emit b s_barg d i 0 0;
        d)

and sbin_b c op a a' =
  let d = fresh_b c.sb in
  emit c.sb op d a a' 0;
  d

let new_sctx () =
  {
    sb = new_builder ();
    const_regs = Hashtbl.create 16;
    arg_regs = Hashtbl.create 16;
    barg_regs = Hashtbl.create 8;
    btrue_reg = -1;
    bfalse_reg = -1;
  }

(* Operand shape of each opcode, for the reallocation pass below:
   which slots hold float registers, bool registers, or immediates
   (constant-pool / environment indices, left untouched). *)
let s_shape op =
  (* (dst_is_float, a, b, c) with 'f'/'b' = register of that sort,
     '-' = immediate or unused *)
  match op with
  | 0 | 1 | 2 | 3 (* add..div *) -> (true, 'f', 'f', '-')
  | 4 (* sqrt *) -> (true, 'f', '-', '-')
  | 5 | 6 (* const, arg *) -> (true, '-', '-', '-')
  | 7 | 8 (* tern, cmul *) -> (true, 'f', 'f', 'b')
  | 9 | 10 (* and, or *) -> (false, 'b', 'b', '-')
  | 11 (* not *) -> (false, 'b', '-', '-')
  | 12 | 13 | 14 (* lt, gt, eq *) -> (false, 'f', 'f', '-')
  | _ (* bconst, barg *) -> (false, '-', '-', '-')

(* Linear-scan register reuse.  The builder emits one fresh virtual
   register per node, which keeps compilation trivial but makes the
   batch engine's register matrix grow with tree size — large enough to
   fall out of L1 on deep genomes, and the post-order left operand is
   then a guaranteed cache miss.  Registers are single-assignment and
   the code is in dependency order, so a forward scan with a free list
   (recycling a register after its last read) shrinks the live set to
   roughly the tree depth plus the deduplicated leaves.  Reusing an
   operand's register as the destination is safe: every instruction
   reads its operands at lane [j] before writing lane [j]. *)
let realloc (p : t) : t =
  let code = p.code in
  let ni = Array.length code / 5 in
  let last_f = Array.make (max 1 p.n_fregs) (-1) in
  let last_b = Array.make (max 1 p.n_bregs) (-1) in
  for t = 0 to ni - 1 do
    let k = 5 * t in
    let _, ka, kb, kc = s_shape code.(k) in
    let touch kind v =
      match kind with
      | 'f' -> last_f.(v) <- t
      | 'b' -> last_b.(v) <- t
      | _ -> ()
    in
    touch ka code.(k + 2);
    touch kb code.(k + 3);
    touch kc code.(k + 4)
  done;
  (* the result row is read after the last instruction *)
  (match p.sort with
  | `Real -> last_f.(p.root) <- ni
  | `Bool -> last_b.(p.root) <- ni);
  let out = Array.copy code in
  let map_f = Array.make (max 1 p.n_fregs) (-1) in
  let map_b = Array.make (max 1 p.n_bregs) (-1) in
  let free_f = ref [] and free_b = ref [] in
  let nf = ref 0 and nb = ref 0 in
  let alloc free n =
    match !free with
    | r :: tl ->
      free := tl;
      r
    | [] ->
      let r = !n in
      incr n;
      r
  in
  for t = 0 to ni - 1 do
    let k = 5 * t in
    let dst_f, ka, kb, kc = s_shape code.(k) in
    let read slot kind =
      let v = code.(k + slot) in
      match kind with
      | 'f' -> out.(k + slot) <- map_f.(v)
      | 'b' -> out.(k + slot) <- map_b.(v)
      | _ -> ()
    in
    read 2 ka;
    read 3 kb;
    read 4 kc;
    (* Free operands whose last read is this instruction — each virtual
       register at most once, even if it appears in two slots. *)
    let freed = ref [] in
    let release slot kind =
      let v = code.(k + slot) in
      let dead last map free =
        if last.(v) = t && not (List.mem (kind, v) !freed) then begin
          freed := (kind, v) :: !freed;
          free := map.(v) :: !free
        end
      in
      match kind with
      | 'f' -> dead last_f map_f free_f
      | 'b' -> dead last_b map_b free_b
      | _ -> ()
    in
    release 2 ka;
    release 3 kb;
    release 4 kc;
    let v = code.(k + 1) in
    if dst_f then begin
      map_f.(v) <- alloc free_f nf;
      out.(k + 1) <- map_f.(v)
    end
    else begin
      map_b.(v) <- alloc free_b nb;
      out.(k + 1) <- map_b.(v)
    end
  done;
  {
    p with
    code = out;
    n_fregs = max 1 !nf;
    n_bregs = max 1 !nb;
    root =
      (match p.sort with `Real -> map_f.(p.root) | `Bool -> map_b.(p.root));
  }

let finish c ~root ~sort =
  let b = c.sb in
  realloc
    {
      code = Array.sub b.code 0 b.len;
      consts = Array.of_list (List.rev b.consts_rev);
      n_fregs = b.n_fregs;
      n_bregs = b.n_bregs;
      root;
      sort;
    }

let compile_real (e : Expr.rexpr) : t =
  let c = new_sctx () in
  finish c ~root:(sreal c e) ~sort:`Real

let compile_bool (e : Expr.bexpr) : t =
  let c = new_sctx () in
  finish c ~root:(sbool c e) ~sort:`Bool

let compile = function
  | Expr.Real e -> compile_real e
  | Expr.Bool e -> compile_bool e

(* --- Batch execution ----------------------------------------------------- *)

(* One instruction across the whole chunk at a time: register files are
   laid out as [register * chunk_width] rows, so each opcode becomes a
   tight loop over contiguous float slices and the dispatch cost is paid
   once per instruction per chunk instead of once per node per point.
   Register/code indices are in bounds by construction (unsafe);
   environment reads stay bounds-checked, so an out-of-contract feature
   index raises [Invalid_argument] as the walker's would. *)
(* The inner loops write [Float.is_finite] out as [v -. v = 0.] — the
   same predicate (finite iff the subtraction is an exact 0; inf gives
   nan, nan stays nan), but a compare instruction instead of a function
   call, which matters here because the compiler is not flambda and
   would not inline the stdlib function into these loops. *)
let vexec (p : t) (envs : Feature_set.env array) ~off ~m
    (f : float array) (bl : bool array) : unit =
  let code = p.code in
  let consts = p.consts in
  let n = Array.length code in
  let k = ref 0 in
  while !k < n do
    let i = !k in
    let op = Array.unsafe_get code i in
    let db = Array.unsafe_get code (i + 1) * m in
    let a = Array.unsafe_get code (i + 2) in
    let b = Array.unsafe_get code (i + 3) in
    let c = Array.unsafe_get code (i + 4) in
    k := i + 5;
    match op with
    | 0 (* add *) ->
      (* the three frequent binops are unrolled 2x by hand: the compiler
         does not unroll, and loop control is a measurable share of a
         2-load/1-store body *)
      let ab = a * m and bb = b * m in
      let j = ref 0 in
      while !j + 1 < m do
        let i0 = !j and i1 = !j + 1 in
        let v0 = Array.unsafe_get f (ab + i0) +. Array.unsafe_get f (bb + i0) in
        let v1 = Array.unsafe_get f (ab + i1) +. Array.unsafe_get f (bb + i1) in
        Array.unsafe_set f (db + i0) (if v0 -. v0 = 0. then v0 else 0.);
        Array.unsafe_set f (db + i1) (if v1 -. v1 = 0. then v1 else 0.);
        j := !j + 2
      done;
      if !j < m then begin
        let i0 = !j in
        let v = Array.unsafe_get f (ab + i0) +. Array.unsafe_get f (bb + i0) in
        Array.unsafe_set f (db + i0) (if v -. v = 0. then v else 0.)
      end
    | 1 (* sub *) ->
      let ab = a * m and bb = b * m in
      let j = ref 0 in
      while !j + 1 < m do
        let i0 = !j and i1 = !j + 1 in
        let v0 = Array.unsafe_get f (ab + i0) -. Array.unsafe_get f (bb + i0) in
        let v1 = Array.unsafe_get f (ab + i1) -. Array.unsafe_get f (bb + i1) in
        Array.unsafe_set f (db + i0) (if v0 -. v0 = 0. then v0 else 0.);
        Array.unsafe_set f (db + i1) (if v1 -. v1 = 0. then v1 else 0.);
        j := !j + 2
      done;
      if !j < m then begin
        let i0 = !j in
        let v = Array.unsafe_get f (ab + i0) -. Array.unsafe_get f (bb + i0) in
        Array.unsafe_set f (db + i0) (if v -. v = 0. then v else 0.)
      end
    | 2 (* mul *) ->
      let ab = a * m and bb = b * m in
      let j = ref 0 in
      while !j + 1 < m do
        let i0 = !j and i1 = !j + 1 in
        let v0 = Array.unsafe_get f (ab + i0) *. Array.unsafe_get f (bb + i0) in
        let v1 = Array.unsafe_get f (ab + i1) *. Array.unsafe_get f (bb + i1) in
        Array.unsafe_set f (db + i0) (if v0 -. v0 = 0. then v0 else 0.);
        Array.unsafe_set f (db + i1) (if v1 -. v1 = 0. then v1 else 0.);
        j := !j + 2
      done;
      if !j < m then begin
        let i0 = !j in
        let v = Array.unsafe_get f (ab + i0) *. Array.unsafe_get f (bb + i0) in
        Array.unsafe_set f (db + i0) (if v -. v = 0. then v else 0.)
      end
    | 3 (* div *) ->
      let ab = a * m and bb = b * m in
      let j = ref 0 in
      while !j + 1 < m do
        let i0 = !j and i1 = !j + 1 in
        let x0 = Array.unsafe_get f (ab + i0)
        and y0 = Array.unsafe_get f (bb + i0)
        and x1 = Array.unsafe_get f (ab + i1)
        and y1 = Array.unsafe_get f (bb + i1) in
        Array.unsafe_set f (db + i0)
          (if Float.abs y0 < div_epsilon then x0
           else
             let v = x0 /. y0 in
             if v -. v = 0. then v else 0.);
        Array.unsafe_set f (db + i1)
          (if Float.abs y1 < div_epsilon then x1
           else
             let v = x1 /. y1 in
             if v -. v = 0. then v else 0.);
        j := !j + 2
      done;
      if !j < m then begin
        let i0 = !j in
        let x = Array.unsafe_get f (ab + i0)
        and y = Array.unsafe_get f (bb + i0) in
        Array.unsafe_set f (db + i0)
          (if Float.abs y < div_epsilon then x
           else
             let v = x /. y in
             if v -. v = 0. then v else 0.)
      end
    | 4 (* sqrt *) ->
      let ab = a * m in
      for j = 0 to m - 1 do
        let v = sqrt (Float.abs (Array.unsafe_get f (ab + j))) in
        Array.unsafe_set f (db + j) (if v -. v = 0. then v else 0.)
      done
    | 5 (* const *) ->
      let v = Array.unsafe_get consts a in
      for j = 0 to m - 1 do
        Array.unsafe_set f (db + j) v
      done
    | 6 (* arg *) ->
      for j = 0 to m - 1 do
        let env = Array.unsafe_get envs (off + j) in
        Array.unsafe_set f (db + j) env.Feature_set.real_values.(a)
      done
    | 7 (* tern *) ->
      let ab = a * m and bb = b * m and cb = c * m in
      for j = 0 to m - 1 do
        Array.unsafe_set f (db + j)
          (if Array.unsafe_get bl (cb + j) then Array.unsafe_get f (ab + j)
           else Array.unsafe_get f (bb + j))
      done
    | 8 (* cmul *) ->
      let ab = a * m and bb = b * m and cb = c * m in
      for j = 0 to m - 1 do
        let y = Array.unsafe_get f (bb + j) in
        Array.unsafe_set f (db + j)
          (if Array.unsafe_get bl (cb + j) then
             let v = Array.unsafe_get f (ab + j) *. y in
             if v -. v = 0. then v else 0.
           else y)
      done
    | 9 (* and *) ->
      let ab = a * m and bb = b * m in
      for j = 0 to m - 1 do
        Array.unsafe_set bl (db + j)
          (Array.unsafe_get bl (ab + j) && Array.unsafe_get bl (bb + j))
      done
    | 10 (* or *) ->
      let ab = a * m and bb = b * m in
      for j = 0 to m - 1 do
        Array.unsafe_set bl (db + j)
          (Array.unsafe_get bl (ab + j) || Array.unsafe_get bl (bb + j))
      done
    | 11 (* not *) ->
      let ab = a * m in
      for j = 0 to m - 1 do
        Array.unsafe_set bl (db + j) (not (Array.unsafe_get bl (ab + j)))
      done
    | 12 (* lt *) ->
      let ab = a * m and bb = b * m in
      for j = 0 to m - 1 do
        Array.unsafe_set bl (db + j)
          (Array.unsafe_get f (ab + j) < Array.unsafe_get f (bb + j))
      done
    | 13 (* gt *) ->
      let ab = a * m and bb = b * m in
      for j = 0 to m - 1 do
        Array.unsafe_set bl (db + j)
          (Array.unsafe_get f (ab + j) > Array.unsafe_get f (bb + j))
      done
    | 14 (* eq *) ->
      let ab = a * m and bb = b * m in
      for j = 0 to m - 1 do
        Array.unsafe_set bl (db + j)
          (Float.abs (Array.unsafe_get f (ab + j) -. Array.unsafe_get f (bb + j))
          < div_epsilon)
      done
    | 15 (* bconst *) ->
      let v = a <> 0 in
      for j = 0 to m - 1 do
        Array.unsafe_set bl (db + j) v
      done
    | 16 (* barg *) ->
      for j = 0 to m - 1 do
        let env = Array.unsafe_get envs (off + j) in
        Array.unsafe_set bl (db + j) env.Feature_set.bool_values.(a)
      done
    | _ -> assert false
  done

(* Chunked so the register matrix stays cache-sized no matter how large
   the batch is; after register reuse the live set is small, so wide
   chunks fit comfortably and amortise per-instruction dispatch. *)
let batch_chunk = 1024

(* The one chunk loop: [row] picks the register file holding the root,
   whose row is copied into [out] after each chunk. *)
let run_chunks (p : t) envs ~(row : float array -> bool array -> 'a array)
    (out : 'a array) : 'a array =
  let total = Array.length envs in
  if total > 0 then begin
    let width = min batch_chunk total in
    (* uninitialised on purpose: every register row is written before it
       is read (the code is in dependency order), and [out] is fully
       overwritten below *)
    let f = Array.create_float (max 1 (p.n_fregs * width)) in
    let bl = Array.make (max 1 (p.n_bregs * width)) false in
    let rows = row f bl in
    let off = ref 0 in
    while !off < total do
      let m = min batch_chunk (total - !off) in
      vexec p envs ~off:!off ~m f bl;
      Array.blit rows (p.root * m) out !off m;
      off := !off + m
    done
  end;
  out

let run_batch p envs =
  if p.sort <> `Real then invalid_arg "Evalc.run_batch: boolean program";
  run_chunks p envs ~row:(fun f _ -> f) (Array.create_float (Array.length envs))

let run_batch_bool p envs =
  if p.sort <> `Bool then invalid_arg "Evalc.run_batch_bool: real program";
  run_chunks p envs ~row:(fun _ bl -> bl) (Array.make (Array.length envs) false)

let real_batch ?(compiled = true) (e : Expr.rexpr) :
    Feature_set.env array -> float array =
  if compiled then run_batch (compile_real e)
  else Array.map (fun env -> Eval.real env e)

let bool_batch ?(compiled = true) (e : Expr.bexpr) :
    Feature_set.env array -> bool array =
  if compiled then run_batch_bool (compile_bool e)
  else Array.map (fun env -> Eval.bool env e)
