(* Set-associative LRU cache hierarchy with software prefetch support.

   Each level is a set-associative array of line tags with LRU replacement
   implemented as per-line last-use timestamps.  A load probes L1, L2, L3
   and main memory in order, fills the line into every level it missed in,
   and reports the extra stall cycles of the level that hit.  Stores are
   buffered (no stall) and write-allocate.  Prefetches fill like loads but
   stall nothing; at most [prefetch_queue] prefetches may be in flight per
   [drain] window — the rest are dropped, modelling memory-queue
   saturation. *)

type level = {
  cfg : Config.cache_level;
  sets : int;
  tags : int array;          (* sets * assoc; -1 = invalid *)
  last_use : int array;
  mutable clock : int;
  (* Every stock geometry is a power of two: then a non-negative
     address's line is [addr lsr line_shift] and its set [line land
     set_mask].  -1 selects [/] and [mod], which other geometries and
     negative addresses (a load the interpreter is about to trap) keep
     using, so their out-of-range set index fails as before. *)
  line_shift : int;
  set_mask : int;
}

type stats = {
  mutable loads : int;
  mutable stores : int;
  mutable prefetches : int;
  mutable prefetches_dropped : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable l3_hits : int;
  mutable memory_accesses : int;
  mutable stall_cycles : int;
}

type t = {
  l1 : level;
  l2 : level;
  l3 : level;
  memory_extra : int;
  prefetch_queue : int;
  mutable inflight_prefetches : int;
  stats : stats;
}

let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then -1
  else
    let rec go k = if 1 lsl k = n then k else go (k + 1) in
    go 0

let make_level (cfg : Config.cache_level) : level =
  let sets = max 1 (cfg.size_words / (cfg.line_words * cfg.assoc)) in
  let line_shift = log2_exact cfg.line_words in
  let pow2_sets = log2_exact sets >= 0 in
  {
    cfg;
    sets;
    tags = Array.make (sets * cfg.assoc) (-1);
    last_use = Array.make (sets * cfg.assoc) 0;
    clock = 0;
    line_shift = (if pow2_sets then line_shift else -1);
    set_mask = (if pow2_sets && line_shift >= 0 then sets - 1 else -1);
  }

let create (cfg : Config.t) : t =
  {
    l1 = make_level cfg.l1;
    l2 = make_level cfg.l2;
    l3 = make_level cfg.l3;
    memory_extra = cfg.memory_extra_latency;
    prefetch_queue = cfg.prefetch_queue;
    inflight_prefetches = 0;
    stats =
      {
        loads = 0;
        stores = 0;
        prefetches = 0;
        prefetches_dropped = 0;
        l1_hits = 0;
        l2_hits = 0;
        l3_hits = 0;
        memory_accesses = 0;
        stall_cycles = 0;
      };
  }

let[@inline] line_of (l : level) addr =
  if l.set_mask >= 0 && addr >= 0 then addr lsr l.line_shift
  else addr / l.cfg.line_words

let[@inline] set_base (l : level) line =
  (if l.set_mask >= 0 && line >= 0 then line land l.set_mask
   else line mod l.sets)
  * l.cfg.assoc

(* Probe one level; on hit, refresh LRU and return true.  On miss return
   false without filling (fill happens separately so we can fill all missed
   levels once the hit level is known). *)
let probe (l : level) (addr : int) : bool =
  let line = line_of l addr in
  let base = set_base l line in
  l.clock <- l.clock + 1;
  let i = ref 0 in
  while !i < l.cfg.assoc && l.tags.(base + !i) <> line do
    incr i
  done;
  if !i < l.cfg.assoc then begin
    l.last_use.(base + !i) <- l.clock;
    true
  end
  else false

let fill (l : level) (addr : int) : unit =
  let line = line_of l addr in
  let base = set_base l line in
  l.clock <- l.clock + 1;
  (* The first invalid way, else the first least recently used one. *)
  let victim = ref 0 and oldest = ref max_int and i = ref 0 in
  while !i < l.cfg.assoc do
    let w = base + !i in
    if l.tags.(w) = -1 then begin
      victim := !i;
      i := l.cfg.assoc
    end
    else begin
      if l.last_use.(w) < !oldest then begin
        oldest := l.last_use.(w);
        victim := !i
      end;
      incr i
    end
  done;
  l.tags.(base + !victim) <- line;
  l.last_use.(base + !victim) <- l.clock

(* Where does this access hit?  Fills all levels above the hit level. *)
let lookup_and_fill (t : t) (addr : int) : int =
  if probe t.l1 addr then begin
    t.stats.l1_hits <- t.stats.l1_hits + 1;
    t.l1.cfg.extra_latency
  end
  else if probe t.l2 addr then begin
    t.stats.l2_hits <- t.stats.l2_hits + 1;
    fill t.l1 addr;
    t.l2.cfg.extra_latency
  end
  else if probe t.l3 addr then begin
    t.stats.l3_hits <- t.stats.l3_hits + 1;
    fill t.l1 addr;
    fill t.l2 addr;
    t.l3.cfg.extra_latency
  end
  else begin
    t.stats.memory_accesses <- t.stats.memory_accesses + 1;
    fill t.l1 addr;
    fill t.l2 addr;
    fill t.l3 addr;
    t.memory_extra
  end

(* DELIBERATE MODELLING CHOICE (see DESIGN.md): the queue retires entries
   only when the pipeline stalls for a completed demand miss — a
   primitive, non-work-conserving MSHR.  A fully work-conserving queue
   (retiring on the first demand touch of each prefetched line) makes
   sustained multi-stream prefetching uniformly beneficial and erases the
   "ORC overzealously prefetches" phenomenon the paper reports from its
   real Itanium; this model reproduces it: loops with many concurrent
   reference streams saturate the queue and lose, few-stream loops win. *)
let load (t : t) (addr : int) : int =
  t.stats.loads <- t.stats.loads + 1;
  let stall = lookup_and_fill t addr in
  if stall > 0 && t.inflight_prefetches > 0 then
    t.inflight_prefetches <- t.inflight_prefetches - 1;
  t.stats.stall_cycles <- t.stats.stall_cycles + stall;
  stall

let store (t : t) (addr : int) : unit =
  t.stats.stores <- t.stats.stores + 1;
  ignore (lookup_and_fill t addr)

(* Backpressure paid when a prefetch finds the memory queue full: the
   in-order pipeline stalls until an entry frees, and the prefetch is
   dropped without filling anything.  This is the "saturate memory
   queues" failure mode of overzealous prefetching the paper describes;
   it is what makes issuing a prefetch per stream in a 12-stream loop a
   pessimization while a selective prefetcher wins. *)
let queue_full_backpressure = 8

let prefetch (t : t) (addr : int) : int =
  t.stats.prefetches <- t.stats.prefetches + 1;
  if probe t.l1 addr then
    (* Redundant prefetch of a resident line: consumed an issue slot but
       no memory transaction. *)
    0
  else if t.inflight_prefetches >= t.prefetch_queue then begin
    t.stats.prefetches_dropped <- t.stats.prefetches_dropped + 1;
    t.stats.stall_cycles <- t.stats.stall_cycles + queue_full_backpressure;
    queue_full_backpressure
  end
  else begin
    t.inflight_prefetches <- t.inflight_prefetches + 1;
    ignore (lookup_and_fill t addr);
    0
  end

let stats t = t.stats
