(* Persistence for evolved heuristics — the "toolset" side of the paper:
   an evolution's product is a file a compiler user can apply later.

   Format: one slot per line, `slot: expression`, expressions in the
   Table 1 S-expression syntax.  Missing slots mean "use the stock
   compiler's heuristic"; a `prefetch:` line of `off` disables prefetching
   entirely.  Lines starting with '#' are comments. *)

exception Bad_file of string

let to_lines (h : Compiler.heuristics) : string list =
  [
    "# metaopt heuristics file";
    "hyperblock: "
    ^ Gp.Sexp.real_to_string Hyperblock.Features.feature_set
        h.Compiler.hb_priority;
    "regalloc: "
    ^ Gp.Sexp.real_to_string Regalloc.Features.feature_set
        h.Compiler.ra_savings;
    (match h.Compiler.pf_confidence with
    | Some c ->
      "prefetch: "
      ^ Gp.Sexp.bool_to_string Prefetch.Features.feature_set c
    | None -> "prefetch: off");
    "sched: "
    ^ Gp.Sexp.real_to_string Sched.Priority.feature_set
        h.Compiler.sched_priority;
  ]

let save (path : string) (h : Compiler.heuristics) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (to_lines h))

let parse_line (h : Compiler.heuristics) (line : string) :
    Compiler.heuristics =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then h
  else
    match String.index_opt line ':' with
    | None -> raise (Bad_file ("missing ':' in line: " ^ line))
    | Some i ->
      let slot = String.trim (String.sub line 0 i) in
      let body =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      (try
         match slot with
         | "hyperblock" ->
           { h with
             Compiler.hb_priority =
               Gp.Sexp.parse_real Hyperblock.Features.feature_set body }
         | "regalloc" ->
           { h with
             Compiler.ra_savings =
               Gp.Sexp.parse_real Regalloc.Features.feature_set body }
         | "prefetch" ->
           if body = "off" then { h with Compiler.pf_confidence = None }
           else
             { h with
               Compiler.pf_confidence =
                 Some (Gp.Sexp.parse_bool Prefetch.Features.feature_set body) }
         | "sched" ->
           { h with
             Compiler.sched_priority =
               Gp.Sexp.parse_real Sched.Priority.feature_set body }
         | other -> raise (Bad_file ("unknown heuristic slot: " ^ other))
       with Gp.Sexp.Parse_error m ->
         raise (Bad_file (Printf.sprintf "slot %s: %s" slot m)))

(* Load over a given base (default: the stock compiler with prefetching
   enabled so a `prefetch:` line is meaningful either way). *)
let load ?(base : Compiler.heuristics option) (path : string) :
    Compiler.heuristics =
  let base =
    match base with
    | Some b -> b
    | None -> Compiler.baseline ~prefetch:true ()
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go h =
        match input_line ic with
        | line -> go (parse_line h line)
        | exception End_of_file -> h
      in
      go base)
