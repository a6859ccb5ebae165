(* EPIC machine description.  [table3] is the architecture of Table 3 in
   the paper (an Itanium-like machine used for the hyperblock and register
   allocation studies); [table3_regalloc] is the same machine with the
   register files halved to 32+32, which the paper uses to stress the
   register allocator; [itanium1] approximates the real Itanium I used for
   the prefetching study. *)

type cache_level = {
  size_words : int;
  line_words : int;
  assoc : int;
  (* Extra cycles beyond an L1 hit when the access is satisfied here. *)
  extra_latency : int;
}

type t = {
  name : string;
  int_units : int;
  fp_units : int;
  mem_units : int;
  branch_units : int;
  gpr : int;
  fpr : int;
  pred_regs : int;
  mispredict_penalty : int;
  (* Front-end redirect bubble paid by every taken control transfer, even
     correctly predicted ones (fetch discontinuity on a clustered EPIC
     front end). *)
  taken_branch_redirect : int;
  l1 : cache_level;
  l2 : cache_level;
  l3 : cache_level;
  memory_extra_latency : int;
  (* Maximum outstanding prefetches; further prefetches are dropped and
     still consume their issue slot (memory-queue saturation). *)
  prefetch_queue : int;
  (* Extra cycles charged per dynamic call by the timing model, on top of
     the call latency the scheduler already embeds in schedule lengths
     (Instr.latency of Call).  0 on every stock machine — setting it
     would double-count — but available to model a deeper call/return
     bubble.  An int, so every cycle term stays integral and a run's
     cycles are exact in any order of addition (Simulate.retime). *)
  call_overhead_cycles : int;
}

let issue_width c = c.int_units + c.fp_units + c.mem_units + c.branch_units

let table3 =
  {
    name = "table3-epic";
    int_units = 4;
    fp_units = 2;
    mem_units = 2;
    branch_units = 1;
    gpr = 64;
    fpr = 64;
    pred_regs = 256;
    mispredict_penalty = 5;
    taken_branch_redirect = 1;
    (* 16 KiB L1, 32-byte lines (8 words), 4-way; L2 256 KiB 8-way;
       L3 2 MiB 8-way.  Latencies from Table 3: 2/7/35 cycles, i.e. 0/5/33
       beyond the pipelined L1 hit already in the schedule. *)
    l1 = { size_words = 4096; line_words = 8; assoc = 4; extra_latency = 0 };
    l2 = { size_words = 65536; line_words = 8; assoc = 8; extra_latency = 5 };
    l3 = { size_words = 524288; line_words = 8; assoc = 8; extra_latency = 33 };
    memory_extra_latency = 120;
    prefetch_queue = 3;
    call_overhead_cycles = 0;
  }

let table3_regalloc = { table3 with name = "table3-32reg"; gpr = 32; fpr = 32 }

(* A narrow variant used by the scheduling extension: with 2+1+1+1 issue
   slots the ready set regularly exceeds the machine width, so the list
   scheduler's ranking actually decides the schedule (on the full Table 3
   machine almost every ready instruction issues immediately and the
   ranking is moot) — the same stress-the-heuristic move the paper makes
   by halving the register files for the allocation study. *)
let table3_narrow =
  {
    table3 with
    name = "table3-narrow";
    int_units = 2;
    fp_units = 1;
    mem_units = 1;
    branch_units = 1;
  }

let itanium1 =
  {
    name = "itanium1";
    int_units = 4;
    fp_units = 2;
    mem_units = 2;
    branch_units = 3;
    gpr = 128;
    fpr = 128;
    pred_regs = 64;
    mispredict_penalty = 9;
    taken_branch_redirect = 1;
    l1 = { size_words = 4096; line_words = 8; assoc = 4; extra_latency = 0 };
    l2 = { size_words = 24576; line_words = 16; assoc = 6; extra_latency = 6 };
    l3 =
      { size_words = 1048576; line_words = 16; assoc = 4; extra_latency = 21 };
    memory_extra_latency = 100;
    prefetch_queue = 3;
    call_overhead_cycles = 0;
  }

(* A variant of [itanium1] with a smaller L2, used by the prefetching
   cross-validation figure ("results from two target architectures"). *)
let itanium_small_l2 =
  {
    itanium1 with
    name = "itanium-small-l2";
    l2 = { size_words = 8192; line_words = 16; assoc = 4; extra_latency = 6 };
  }
