(* Control-flow-graph analyses over a function: predecessor maps, reverse
   postorder, dominators and postdominators (Cooper–Harvey–Kennedy), natural
   loops and loop-nesting depth. *)

type t = {
  func : Func.t;
  labels : Types.label array;            (* index -> label, RPO order *)
  index : (Types.label, int) Hashtbl.t;  (* label -> index *)
  succ : int list array;
  pred : int list array;
}

let build (f : Func.t) : t =
  let n = List.length f.blocks in
  let tbl = Hashtbl.create n in
  List.iteri (fun i (b : Func.block) -> Hashtbl.replace tbl b.blabel i) f.blocks;
  let blocks = Array.of_list f.blocks in
  let succ_raw =
    Array.map
      (fun b ->
        List.filter_map (fun l -> Hashtbl.find_opt tbl l) (Func.successors b))
      blocks
  in
  (* Depth-first search from the entry to compute reverse postorder; blocks
     unreachable from the entry are appended at the end so every block has
     an index. *)
  let visited = Array.make n false in
  let post = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs succ_raw.(i);
      post := i :: !post
    end
  in
  if n > 0 then dfs 0;
  let order = !post @ List.filter (fun i -> not visited.(i)) (List.init n Fun.id) in
  let order = Array.of_list order in
  (* order.(rpo_index) = original index *)
  let rpo_of_orig = Array.make n 0 in
  Array.iteri (fun rpo orig -> rpo_of_orig.(orig) <- rpo) order;
  let labels = Array.map (fun orig -> blocks.(orig).Func.blabel) order in
  let index = Hashtbl.create n in
  Array.iteri (fun i l -> Hashtbl.replace index l i) labels;
  let succ =
    Array.init n (fun i ->
        List.map (fun s -> rpo_of_orig.(s)) succ_raw.(order.(i)))
  in
  let pred = Array.make n [] in
  Array.iteri (fun i ss -> List.iter (fun s -> pred.(s) <- i :: pred.(s)) ss) succ;
  { func = f; labels; index; succ; pred }

let n_blocks g = Array.length g.labels

let block_of g i = Func.find_block g.func g.labels.(i)

let index_of g l =
  match Hashtbl.find_opt g.index l with
  | Some i -> i
  | None -> invalid_arg ("Cfg.index_of: unknown label " ^ l)

(* --- Dominators ------------------------------------------------------- *)

(* Iterative dominator computation over an explicit edge relation given in a
   traversal order; shared by dominators (RPO, preds) and postdominators
   (reverse, succs with virtual exit). Returns idom array with -1 for roots
   and unreachable nodes. *)
let idoms_generic ~n ~roots ~order ~preds =
  let idom = Array.make n (-1) in
  let rpo_num = Array.make n (-1) in
  List.iteri (fun i node -> rpo_num.(node) <- i) order;
  List.iter (fun r -> idom.(r) <- r) roots;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_num.(!a) > rpo_num.(!b) do a := idom.(!a) done;
      while rpo_num.(!b) > rpo_num.(!a) do b := idom.(!b) done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if not (List.mem b roots) then begin
          let processed = List.filter (fun p -> idom.(p) >= 0) (preds b) in
          match processed with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idom.(b) <> new_idom then begin
              idom.(b) <- new_idom;
              changed := true
            end
        end)
      order
  done;
  List.iter (fun r -> idom.(r) <- -1) roots;
  idom

(* Immediate dominators indexed by RPO index; entry (index 0) has idom -1. *)
let dominators g =
  let n = n_blocks g in
  if n = 0 then [||]
  else
    idoms_generic ~n ~roots:[ 0 ]
      ~order:(List.init n Fun.id)
      ~preds:(fun b -> g.pred.(b))

(* Immediate postdominators.  A virtual exit node is appended and every
   exit block (no successors) feeds it, so the reverse graph has a single
   root — with several roots the Cooper–Harvey–Kennedy intersection does
   not converge.  The result maps each block to its immediate
   postdominator, or -1 for exit blocks and blocks that cannot reach an
   exit. *)
let postdominators g =
  let n = n_blocks g in
  if n = 0 then [||]
  else begin
    let virtual_exit = n in
    let exits = List.filter (fun i -> g.succ.(i) = []) (List.init n Fun.id) in
    (* Reverse-graph edges: preds of b in the reverse graph are b's
       successors; exit blocks additionally point at the virtual exit. *)
    let rsucc b =
      (* predecessors in the reverse graph, i.e. where reverse edges come
         from: for node b these are its CFG successors, plus the virtual
         exit for exit blocks. *)
      if b = virtual_exit then []
      else if g.succ.(b) = [] then [ virtual_exit ]
      else g.succ.(b)
    in
    let rpred b =
      (* reverse-graph predecessors of b = CFG successors of b (edges b->s
         become s->b), used as "preds" by the dominator computation. *)
      rsucc b
    in
    (* DFS over the reverse graph from the virtual exit. *)
    let visited = Array.make (n + 1) false in
    let post = ref [] in
    let rec dfs i =
      if not visited.(i) then begin
        visited.(i) <- true;
        (if i = virtual_exit then exits
         else List.filter (fun p -> p < n) g.pred.(i))
        |> List.iter dfs;
        post := i :: !post
      end
    in
    dfs virtual_exit;
    let order =
      !post
      @ List.filter (fun i -> not visited.(i)) (List.init (n + 1) Fun.id)
    in
    let idom =
      idoms_generic ~n:(n + 1) ~roots:[ virtual_exit ] ~order ~preds:rpred
    in
    Array.init n (fun i ->
        let d = idom.(i) in
        if d = virtual_exit then -1 else d)
  end

let dominates idom a b =
  (* Does a dominate b (both RPO indices)? Walk b's idom chain. *)
  let rec up x = if x = a then true else if x <= 0 then a = 0 && x = 0 else
      let p = idom.(x) in
      if p < 0 then false else up p
  in
  up b

(* --- Loops ------------------------------------------------------------ *)

type loop = {
  header : int;
  body : int list;     (* includes header *)
  back_edges : (int * int) list;
}

(* Natural loops from back edges (edge t->h where h dominates t). *)
let loops g =
  let idom = dominators g in
  let n = n_blocks g in
  let backs = ref [] in
  for t = 0 to n - 1 do
    List.iter
      (fun h -> if dominates idom h t then backs := (t, h) :: !backs)
      g.succ.(t)
  done;
  (* Group back edges by header and flood backwards from each tail. *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (t, h) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_header h) in
      Hashtbl.replace by_header h ((t, h) :: cur))
    !backs;
  Hashtbl.fold
    (fun h edges acc ->
      let in_loop = Array.make n false in
      in_loop.(h) <- true;
      let rec flood i =
        if not in_loop.(i) then begin
          in_loop.(i) <- true;
          List.iter flood g.pred.(i)
        end
      in
      List.iter (fun (t, _) -> flood t) edges;
      let body =
        List.filter (fun i -> in_loop.(i)) (List.init n Fun.id)
      in
      { header = h; body; back_edges = edges } :: acc)
    by_header []

(* Loop-nesting depth per block (0 = not in any loop), from [loops g]. *)
let loop_depth g loops =
  let depth = Array.make (n_blocks g) 0 in
  List.iter
    (fun l -> List.iter (fun b -> depth.(b) <- depth.(b) + 1) l.body)
    loops;
  depth
