(* Prefetch insertion [Mowry 94, as adapted by ORC].

   For every candidate load whose Boolean confidence function says yes and
   whose stride is known and non-zero, a software prefetch for the address
   [prefetch_iters] iterations ahead is inserted immediately after the
   load: one add to compute the future offset and the prefetch itself.
   These instructions consume issue slots and memory-unit bandwidth, can
   evict useful lines, and are dropped past the machine's prefetch-queue
   depth — all the ways aggressive prefetching hurts, while timely
   prefetches convert load misses into hits. *)

type config = {
  prefetch_iters : int;       (* distance, in iterations *)
}

let default_config = { prefetch_iters = 4 }

(* Vectorized confidence: all of a function's eligible candidates
   through one batch evaluation. *)
type decision_batch = Analysis.candidate array -> bool array

let decision_batch_of_expr ?compiled ~machine (p : Ir.Func.program)
    (e : Gp.Expr.bexpr) : decision_batch =
  let decide = Gp.Evalc.bool_batch ?compiled e in
  fun cs -> decide (Array.map (Features.environment ~machine p) cs)

type stats = {
  candidates : int;
  inserted : int;
}

let run_batched ?(config = default_config) ?(report = fun _ _ -> ())
    ~(decision_batch : decision_batch) (p : Ir.Func.program) : stats =
  let candidates = ref 0 and inserted = ref 0 in
  List.iter
    (fun (f : Ir.Func.t) ->
      let cands = Analysis.candidates f in
      candidates := !candidates + List.length cands;
      (* Only candidates with a known non-zero stride can be prefetched:
         the confidence function is consulted for those alone, in
         candidate order, one batch per function.  Group the accepted
         ones by (block, instr id). *)
      let eligible =
        Array.of_list
          (List.filter
             (fun (c : Analysis.candidate) ->
               match c.Analysis.stride with Some s -> s <> 0 | None -> false)
             cands)
      in
      let verdicts =
        if Array.length eligible = 0 then [||] else decision_batch eligible
      in
      (* The verdicts are all the pass decides: the rewrite below is a
         function of the program and them alone. *)
      report f.Ir.Func.fname verdicts;
      let accepted = Hashtbl.create 16 in
      Array.iteri
        (fun k (c : Analysis.candidate) ->
          if verdicts.(k) then
            match c.Analysis.stride with
            | Some s ->
              Hashtbl.replace accepted
                (c.Analysis.block_label, c.Analysis.instr_id) s
            | None -> ())
        eligible;
      if Hashtbl.length accepted > 0 then begin
        List.iter
          (fun (b : Ir.Func.block) ->
            let out = ref [] in
            List.iter
              (fun (i : Ir.Instr.t) ->
                out := i :: !out;
                match
                  ( i.Ir.Instr.kind,
                    Hashtbl.find_opt accepted
                      (b.Ir.Func.blabel, i.Ir.Instr.id) )
                with
                | Ir.Instr.Load (_, addr), Some stride ->
                  incr inserted;
                  let dist = stride * config.prefetch_iters in
                  let t = Ir.Func.fresh_reg f in
                  let guard = i.Ir.Instr.guard in
                  out :=
                    {
                      Ir.Instr.id = Ir.Func.fresh_instr_id f;
                      guard;
                      kind =
                        Ir.Instr.Ibin
                          (Ir.Types.Add, t, addr.Ir.Instr.offset,
                           Ir.Types.Imm dist);
                    }
                    :: !out;
                  out :=
                    {
                      Ir.Instr.id = Ir.Func.fresh_instr_id f;
                      guard;
                      kind =
                        Ir.Instr.Prefetch
                          { addr with
                            Ir.Instr.offset = Ir.Types.Reg t;
                            hazard = false };
                    }
                    :: !out
                | _ -> ())
              b.Ir.Func.instrs;
            b.Ir.Func.instrs <- List.rev !out)
          f.Ir.Func.blocks;
        Ir.Func.renumber f
      end)
    p.Ir.Func.funcs;
  { candidates = !candidates; inserted = !inserted }
