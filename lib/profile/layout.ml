(* Memory layout and pre-resolution of an IR program for execution.

   The interpreter and the trace-driven simulator both execute prepared
   programs: labels resolved to block indices, blocks to arrays, globals
   and per-function spill frames assigned disjoint word addresses.  Every
   block and every static branch site gets a dense global id so observers
   can use plain arrays. *)

type pblock = {
  uid : int;                         (* global block id *)
  label : Ir.Types.label;
  instrs : Ir.Instr.t array;
  term : Ir.Func.terminator;
  (* Resolved targets: index within the owning function's blocks. *)
  mutable term_targets : int * int;  (* (then/jmp, else); -1 when unused *)
  (* Exit instruction position -> target block index *)
  exit_targets : (int * int) array;
  (* Branch site id of the terminator, -1 if the terminator is not a
     conditional branch.  Exit instructions have their own site ids,
     aligned with [exit_targets]. *)
  branch_site : int;
  exit_sites : int array;
}

type pfunc = {
  f : Ir.Func.t;
  findex : int;
  blocks : pblock array;
  block_index : (Ir.Types.label, int) Hashtbl.t;
  n_regs : int;
  n_preds : int;
  frame_base : int;
}

type t = {
  prog : Ir.Func.program;
  funcs : pfunc array;
  func_index : (string, int) Hashtbl.t;
  global_base : (string, int) Hashtbl.t;
  memory_words : int;
  n_blocks : int;                    (* total across functions *)
  n_branch_sites : int;
  (* Reverse maps for reporting *)
  block_name : (string * Ir.Types.label) array;
  branch_name : (string * Ir.Types.label * int) array;
    (* (func, block, -1 for terminator | instr id for exits) *)
}

let prepare (prog : Ir.Func.program) : t =
  let global_base = Hashtbl.create 16 in
  let next_addr = ref 0 in
  List.iter
    (fun (g : Ir.Func.global) ->
      Hashtbl.replace global_base g.gname !next_addr;
      next_addr := !next_addr + g.gsize)
    prog.globals;
  let block_uid = ref 0 in
  let branch_uid = ref 0 in
  let block_names = ref [] and branch_names = ref [] in
  let func_index = Hashtbl.create 16 in
  let funcs =
    Array.of_list
      (List.mapi
         (fun findex (f : Ir.Func.t) ->
           Hashtbl.replace func_index f.fname findex;
           let block_index = Hashtbl.create 16 in
           List.iteri
             (fun i (b : Ir.Func.block) ->
               Hashtbl.replace block_index b.blabel i)
             f.blocks;
           let frame_base = !next_addr in
           next_addr := !next_addr + max 0 f.frame_size;
           let blocks =
             Array.of_list
               (List.map
                  (fun (b : Ir.Func.block) ->
                    let uid = !block_uid in
                    incr block_uid;
                    block_names := (f.fname, b.blabel) :: !block_names;
                    let instrs = Array.of_list b.instrs in
                    let resolve l =
                      match Hashtbl.find_opt block_index l with
                      | Some i -> i
                      | None ->
                        invalid_arg
                          (Printf.sprintf "Layout.prepare: %s: unknown label %s"
                             f.fname l)
                    in
                    let term_targets =
                      match b.term with
                      | Ir.Func.Jmp l -> (resolve l, -1)
                      | Ir.Func.Br (_, l1, l2) -> (resolve l1, resolve l2)
                      | Ir.Func.Ret _ -> (-1, -1)
                    in
                    let branch_site =
                      match b.term with
                      | Ir.Func.Br _ ->
                        let s = !branch_uid in
                        incr branch_uid;
                        branch_names := (f.fname, b.blabel, -1) :: !branch_names;
                        s
                      | _ -> -1
                    in
                    let exits = ref [] in
                    Array.iteri
                      (fun pos (i : Ir.Instr.t) ->
                        match i.Ir.Instr.kind with
                        | Ir.Instr.Exit l ->
                          let s = !branch_uid in
                          incr branch_uid;
                          branch_names :=
                            (f.fname, b.blabel, i.Ir.Instr.id) :: !branch_names;
                          exits := (pos, resolve l, s) :: !exits
                        | _ -> ())
                      instrs;
                    let exits = List.rev !exits in
                    {
                      uid;
                      label = b.blabel;
                      instrs;
                      term = b.term;
                      term_targets;
                      exit_targets =
                        Array.of_list (List.map (fun (p, t, _) -> (p, t)) exits);
                      branch_site;
                      exit_sites =
                        Array.of_list (List.map (fun (_, _, s) -> s) exits);
                    })
                  f.blocks)
           in
           {
             f;
             findex;
             blocks;
             block_index;
             n_regs = f.next_reg;
             n_preds = f.next_pred;
             frame_base;
           })
         prog.funcs)
  in
  {
    prog;
    funcs;
    func_index;
    global_base;
    memory_words = !next_addr;
    n_blocks = !block_uid;
    n_branch_sites = !branch_uid;
    block_name = Array.of_list (List.rev !block_names);
    branch_name = Array.of_list (List.rev !branch_names);
  }

let func t name =
  match Hashtbl.find_opt t.func_index name with
  | Some i -> t.funcs.(i)
  | None -> invalid_arg ("Layout.func: unknown function " ^ name)

(* Dense id of a block identified by function name and label. *)
let block_uid_of t fname label =
  let pf = func t fname in
  match Hashtbl.find_opt pf.block_index label with
  | Some i -> pf.blocks.(i).uid
  | None ->
    invalid_arg
      (Printf.sprintf "Layout.block_uid_of: %s has no block %s" fname label)
