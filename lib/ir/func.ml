(* Functions, basic blocks and whole programs. *)

open Types

type terminator =
  | Jmp of label
  | Br of operand * label * label   (* if op <> 0 then fst else snd *)
  | Ret of operand option

type block = {
  blabel : label;
  mutable instrs : Instr.t list;
  mutable term : terminator;
}

type t = {
  fname : string;
  params : reg list;
  mutable blocks : block list;          (* entry block first *)
  mutable next_reg : int;
  mutable next_pred : int;
  mutable next_instr : int;
  mutable frame_size : int;             (* spill slots, in words *)
}

type global = {
  gname : string;
  gsize : int;                          (* in words *)
  ginit : float array;                  (* prefix initialization *)
}

type program = {
  funcs : t list;
  globals : global list;
  main : string;
}

let entry f =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg (Printf.sprintf "Func.entry: %s has no blocks" f.fname)

let find_block f l =
  match List.find_opt (fun b -> b.blabel = l) f.blocks with
  | Some b -> b
  | None ->
    invalid_arg (Printf.sprintf "Func.find_block: no block %s in %s" l f.fname)

let find_func p name =
  match List.find_opt (fun f -> f.fname = name) p.funcs with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Func.find_func: no function %s" name)

let find_global p name =
  match List.find_opt (fun g -> g.gname = name) p.globals with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Func.find_global: no global %s" name)

let fresh_reg f =
  let r = f.next_reg in
  f.next_reg <- r + 1;
  r

let fresh_pred f =
  let p = f.next_pred in
  f.next_pred <- p + 1;
  p

let fresh_instr_id f =
  let i = f.next_instr in
  f.next_instr <- i + 1;
  i

(* Successor labels of a block: terminator targets plus predicated side
   exits embedded in the instruction list. *)
let successors b =
  let exits =
    List.filter_map
      (fun (i : Instr.t) ->
        match i.kind with Instr.Exit l -> Some l | _ -> None)
      b.instrs
  in
  let term_succs =
    match b.term with
    | Jmp l -> [ l ]
    | Br (_, l1, l2) -> [ l1; l2 ]
    | Ret _ -> []
  in
  exits @ term_succs

(* Number of static branch instructions a block ends with or contains
   (conditional terminator + predicated side exits). *)
let branch_count b =
  let exits =
    List.length
      (List.filter
         (fun (i : Instr.t) ->
           match i.kind with Instr.Exit _ -> true | _ -> false)
         b.instrs)
  in
  match b.term with Br _ -> exits + 1 | Jmp _ | Ret _ -> exits

let iter_instrs f fn =
  List.iter (fun b -> List.iter (fun i -> fn b i) b.instrs) f.blocks

let instr_count f =
  List.fold_left (fun acc b -> acc + List.length b.instrs) 0 f.blocks

(* Renumber instruction ids across a function; used after transformations
   that synthesize many instructions. *)
let renumber f =
  f.next_instr <- 0;
  List.iter
    (fun b ->
      b.instrs <-
        List.map (fun (i : Instr.t) -> { i with Instr.id = fresh_instr_id f })
          b.instrs)
    f.blocks

(* Deep copies: transformation passes mutate blocks in place, so evaluating
   many candidate priority functions requires working on copies. *)
let copy_block b = { b with instrs = b.instrs }

let copy f = { f with blocks = List.map copy_block f.blocks }

let copy_program p = { p with funcs = List.map copy p.funcs }

let pp_terminator ppf = function
  | Jmp l -> Fmt.pf ppf "jmp %s" l
  | Br (c, l1, l2) -> Fmt.pf ppf "br %a, %s, %s" pp_operand c l1 l2
  | Ret None -> Fmt.pf ppf "ret"
  | Ret (Some v) -> Fmt.pf ppf "ret %a" pp_operand v

let pp_block ppf b =
  Fmt.pf ppf "@[<v 2>%s:@,%a%a@]" b.blabel
    Fmt.(list ~sep:nop (Instr.pp ++ cut))
    b.instrs pp_terminator b.term

let pp ppf f =
  Fmt.pf ppf "@[<v 2>func %s(%a):@,%a@]" f.fname
    Fmt.(list ~sep:comma (fun ppf r -> Fmt.pf ppf "r%d" r))
    f.params
    Fmt.(list ~sep:cut pp_block)
    f.blocks

let pp_program ppf p =
  List.iter (fun g -> Fmt.pf ppf "global %s[%d]@." g.gname g.gsize) p.globals;
  Fmt.pf ppf "%a@." Fmt.(list ~sep:cut pp) p.funcs
