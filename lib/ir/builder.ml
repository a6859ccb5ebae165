(* Imperative construction of IR functions, used by the frontend lowering
   and by tests that build CFGs directly. *)

open Types

type t = {
  func : Func.t;
  mutable current : Func.block option;
  mutable done_blocks : Func.block list;  (* reverse order *)
  mutable pending : Instr.t list;         (* reverse order *)
  mutable next_label : int;
}

let create ~name ~params =
  let nparams = List.length params in
  let func =
    {
      Func.fname = name;
      params = List.init nparams (fun i -> i + 1);
      blocks = [];
      next_reg = nparams + 1;
      next_pred = 1;
      next_instr = 0;
      frame_size = 0;
    }
  in
  { func; current = None; done_blocks = []; pending = []; next_label = 0 }

let fresh_reg b = Func.fresh_reg b.func

let fresh_label b prefix =
  let n = b.next_label in
  b.next_label <- n + 1;
  Printf.sprintf "%s%d" prefix n

(* Start a new block.  Any previous block must have been terminated. *)
let start_block b label =
  (match b.current with
  | Some blk ->
    invalid_arg
      (Printf.sprintf "Builder.start_block: block %s not terminated"
         blk.Func.blabel)
  | None -> ());
  b.current <- Some { Func.blabel = label; instrs = []; term = Func.Ret None };
  b.pending <- []

let emit b kind =
  match b.current with
  | None -> invalid_arg "Builder.emit: no current block"
  | Some _ ->
    let i = Instr.make ~id:(Func.fresh_instr_id b.func) kind in
    b.pending <- i :: b.pending

(* Emit a binary op into a fresh register and return it. *)
let emit_r b mk =
  let r = fresh_reg b in
  emit b (mk r);
  r

let terminate b term =
  match b.current with
  | None -> invalid_arg "Builder.terminate: no current block"
  | Some blk ->
    blk.Func.instrs <- List.rev b.pending;
    blk.Func.term <- term;
    b.done_blocks <- blk :: b.done_blocks;
    b.current <- None;
    b.pending <- []

let finish b =
  (match b.current with
  | Some blk ->
    invalid_arg
      (Printf.sprintf "Builder.finish: block %s not terminated" blk.Func.blabel)
  | None -> ());
  b.func.Func.blocks <- List.rev b.done_blocks;
  b.func

(* Convenience: address of a global array element. *)
let global_addr ~base ~offset ~name ~hazard =
  { Instr.base; offset; space = Instr.Global name; hazard }

let frame_addr ~fname ~slot =
  { Instr.base = Imm 0; offset = Imm slot; space = Instr.Frame fname;
    hazard = false }
