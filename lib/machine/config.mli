(** EPIC machine descriptions. *)

type cache_level = {
  size_words : int;
  line_words : int;
  assoc : int;
  extra_latency : int;
      (** extra cycles beyond an L1 hit when satisfied here *)
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
  taken_branch_redirect : int;
      (** front-end bubble per taken control transfer, even when
          correctly predicted *)
  l1 : cache_level;
  l2 : cache_level;
  l3 : cache_level;
  memory_extra_latency : int;
  prefetch_queue : int;
      (** outstanding prefetch fills; overflow = drop + backpressure *)
  call_overhead_cycles : int;
      (** extra cycles per dynamic call, on top of the call latency the
          scheduler embeds in schedule lengths; 0 on all stock machines.
          Integral, like every other cycle term, so {!Simulate.retime}
          is exact. *)
}

val issue_width : t -> int

val table3 : t
(** The paper's Table 3 machine: 4 int / 2 fp / 2 mem / 1 branch units,
    64+64 registers, 2/7/35-cycle cache latencies, 5-cycle misprediction
    penalty. *)

val table3_regalloc : t
(** Table 3 with the register files halved to 32, the configuration the
    paper uses to stress the register allocator (Section 6). *)

val table3_narrow : t
(** Table 3 narrowed to 2+1+1+1 issue slots, used by the scheduling
    extension so the ranking under study actually decides schedules. *)

val itanium1 : t
(** Approximation of the Itanium I used by the prefetching study. *)

val itanium_small_l2 : t
(** [itanium1] with a smaller L2: the second target architecture of the
    prefetching cross-validation figure. *)
