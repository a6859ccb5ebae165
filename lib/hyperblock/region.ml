(* Discovery of predicatable regions and enumeration of their paths of
   control [Park & Schlansker 91, simplified].

   Two region shapes are recognized:

   - Hammocks: a block ending in a conditional branch, together with the
     acyclic subgraph between it and its immediate postdominator (the
     join).  Paths run from the entry to the join.

   - Innermost loop bodies: the body of an innermost natural loop, with
     the back edge as the path terminus.  Merging a loop body produces a
     single self-looping hyperblock, the shape Trimaran obtains from
     unrolled loops.

   A block is mergeable if all its predecessors lie inside the region
   (single-entry requirement), it is not already predicated, and it does
   not belong to a nested loop.  Only complete entry-to-stop paths through
   mergeable blocks are candidates for inclusion; everything else is
   reachable from the hyperblock only through predicated side exits. *)

type path = { labels : Ir.Types.label list (* entry .. last *) }

type t = {
  fname : string;
  entry : Ir.Types.label;
  stop : Ir.Types.label;
  kind : [ `Hammock | `Loop_body ];
  mergeable : Ir.Types.label list;     (* reverse-postorder, entry first *)
  paths : path list;
}

type limits = {
  max_blocks : int;
  max_paths : int;
  max_path_len : int;
}

let default_limits = { max_blocks = 24; max_paths = 16; max_path_len = 12 }

let is_predicated (b : Ir.Func.block) =
  List.exists
    (fun (i : Ir.Instr.t) ->
      i.Ir.Instr.guard <> Ir.Types.p_true
      ||
      match i.Ir.Instr.kind with
      | Ir.Instr.Exit _ | Ir.Instr.Pdef _ | Ir.Instr.Pclear _ | Ir.Instr.Por _
        ->
        true
      | _ -> false)
    b.Ir.Func.instrs

(* Depth-first path enumeration from [entry] through [mergeable] blocks,
   ending on an edge to [stop]. *)
let enumerate_paths (g : Ir.Cfg.t) ~limits ~mergeable ~entry ~stop :
    path list =
  let paths = ref [] and count = ref 0 in
  let rec go path_rev bi =
    if !count < limits.max_paths then
      List.iter
        (fun s ->
          let l = g.Ir.Cfg.labels.(s) in
          if l = stop then begin
            if !count < limits.max_paths then begin
              incr count;
              paths := List.rev path_rev :: !paths
            end
          end
          else if
            Hashtbl.mem mergeable l
            && (not (List.mem l path_rev))
            && List.length path_rev < limits.max_path_len
          then go (l :: path_rev) s)
        g.Ir.Cfg.succ.(bi)
  in
  go [ g.Ir.Cfg.labels.(entry) ] entry;
  List.rev_map (fun labels -> { labels }) !paths

(* All region blocks reachable from [entry] without passing through
   [stop]. *)
let region_blocks (g : Ir.Cfg.t) ~entry ~stop : int list =
  let n = Ir.Cfg.n_blocks g in
  let seen = Array.make n false in
  let rec dfs i =
    if (not seen.(i)) && i <> stop then begin
      seen.(i) <- true;
      List.iter dfs g.Ir.Cfg.succ.(i)
    end
  in
  dfs entry;
  List.filter (fun i -> seen.(i)) (List.init n Fun.id)

let mergeable_of (f : Ir.Func.t) (g : Ir.Cfg.t) ~region ~entry ~loop_depth :
    (Ir.Types.label, unit) Hashtbl.t =
  let in_region = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace in_region i ()) region;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let b = Ir.Cfg.block_of g i in
      let single_entry =
        i = entry || List.for_all (fun p -> Hashtbl.mem in_region p) g.Ir.Cfg.pred.(i)
      in
      let same_depth = loop_depth.(i) = loop_depth.(entry) in
      if single_entry && same_depth && not (is_predicated b) then
        Hashtbl.replace tbl b.Ir.Func.blabel ())
    region;
  ignore f;
  tbl

(* Reject regions whose induced subgraph contains a retreating edge. *)
let acyclic (g : Ir.Cfg.t) region =
  let in_region = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace in_region i ()) region;
  List.for_all
    (fun i ->
      List.for_all
        (fun s -> (not (Hashtbl.mem in_region s)) || s > i)
        g.Ir.Cfg.succ.(i))
    region

let contains_loop_header (loops : Ir.Cfg.loop list) region =
  List.exists (fun (l : Ir.Cfg.loop) -> List.mem l.Ir.Cfg.header region) loops

let discover ?(limits = default_limits) (f : Ir.Func.t) : t list =
  let g = Ir.Cfg.build f in
  let n = Ir.Cfg.n_blocks g in
  if n = 0 then []
  else begin
    let ipdom = Ir.Cfg.postdominators g in
    let loops = Ir.Cfg.loops g in
    let loop_depth = Ir.Cfg.loop_depth g loops in
    let innermost l =
      not
        (List.exists
           (fun (l' : Ir.Cfg.loop) ->
             l'.Ir.Cfg.header <> l.Ir.Cfg.header
             && List.mem l'.Ir.Cfg.header l.Ir.Cfg.body)
           loops)
    in
    let hammocks =
      List.filter_map
        (fun bi ->
          let b = Ir.Cfg.block_of g bi in
          match b.Ir.Func.term with
          | Ir.Func.Br _ when not (is_predicated b) ->
            let j = ipdom.(bi) in
            if j < 0 || j = bi then None
            else begin
              let region = region_blocks g ~entry:bi ~stop:j in
              if
                List.length region > limits.max_blocks
                || (not (acyclic g region))
                || contains_loop_header loops region
              then None
              else begin
                let mergeable =
                  mergeable_of f g ~region ~entry:bi ~loop_depth
                in
                let stop = g.Ir.Cfg.labels.(j) in
                let paths =
                  enumerate_paths g ~limits ~mergeable ~entry:bi ~stop
                in
                if List.length paths >= 2 then
                  Some
                    {
                      fname = f.Ir.Func.fname;
                      entry = g.Ir.Cfg.labels.(bi);
                      stop;
                      kind = `Hammock;
                      mergeable =
                        List.filter_map
                          (fun i ->
                            let l = g.Ir.Cfg.labels.(i) in
                            if Hashtbl.mem mergeable l then Some l else None)
                          (List.sort compare region);
                      paths;
                    }
                else None
              end
            end
          | _ -> None)
        (List.init n Fun.id)
    in
    let loop_regions =
      List.filter_map
        (fun (l : Ir.Cfg.loop) ->
          if not (innermost l) then None
          else begin
            let entry = l.Ir.Cfg.header in
            let entry_label = g.Ir.Cfg.labels.(entry) in
            if is_predicated (Ir.Cfg.block_of g entry) then None
            else if List.length l.Ir.Cfg.body > limits.max_blocks then None
            else begin
              let in_body = Hashtbl.create 16 in
              List.iter (fun i -> Hashtbl.replace in_body i ()) l.Ir.Cfg.body;
              let mergeable = Hashtbl.create 16 in
              List.iter
                (fun i ->
                  let b = Ir.Cfg.block_of g i in
                  let single_entry =
                    i = entry
                    || List.for_all
                         (fun p -> Hashtbl.mem in_body p)
                         g.Ir.Cfg.pred.(i)
                  in
                  if single_entry && not (is_predicated b) then
                    Hashtbl.replace mergeable b.Ir.Func.blabel ())
                l.Ir.Cfg.body;
              let paths =
                enumerate_paths g ~limits ~mergeable ~entry ~stop:entry_label
              in
              (* A single multi-block path is still worth merging (it
                 straightens the loop body); a lone single-block path is
                 already a hyperblock-shaped loop. *)
              let worthwhile =
                match paths with
                | [] -> false
                | [ p ] -> List.length p.labels >= 2
                | _ -> true
              in
              if worthwhile then
                Some
                  {
                    fname = f.Ir.Func.fname;
                    entry = entry_label;
                    stop = entry_label;
                    kind = `Loop_body;
                    mergeable =
                      List.filter_map
                        (fun i ->
                          let l' = g.Ir.Cfg.labels.(i) in
                          if Hashtbl.mem mergeable l' then Some l' else None)
                        (List.sort compare l.Ir.Cfg.body);
                    paths;
                  }
              else None
            end
          end)
        loops
    in
    loop_regions @ hammocks
  end
