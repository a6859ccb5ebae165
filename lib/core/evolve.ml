(* The evolutionary search driver (Figure 2 of the paper).

   The driver is generic over the fitness evaluator: a [problem] provides a
   feature set, the genome sort (real-valued or Boolean-valued priority),
   an optional baseline seed expression, and a batch [evaluator] returning
   the speedup of each candidate over the compiler's baseline heuristic on
   each requested training case.  Fitness is the average speedup over the
   cases considered in the generation, exactly the paper's fitness
   definition from Table 2.

   Each generation is evaluated as one batch so a parallel evaluator can
   fan the whole population out at once.  Evaluators memoize per
   (canonical genome, case) because each evaluation costs a full
   compile-and-simulate cycle. *)

type evaluator = {
  evaluate_batch : Expr.genome array -> cases:int list -> float array array;
  evaluations : unit -> int;
}

let sanitize v = if Float.is_finite v && v > 0.0 then v else 0.0

(* [k] distinct indices in [0, n) by rejection sampling.  The first draw
   of each position is exactly the draw the with-replacement sampler
   would have made, so on the (common) collision-free path the RNG
   consumption — and therefore every downstream decision — is unchanged;
   only an actual collision costs extra draws. *)
let sample_distinct rng ~n ~k =
  if k > n then invalid_arg "Evolve.sample_distinct: k > n";
  if k < 0 then invalid_arg "Evolve.sample_distinct: negative k";
  let out = Array.make (max k 1) 0 in
  let out = if k = 0 then [||] else out in
  for i = 0 to k - 1 do
    let rec draw () =
      let c = Random.State.int rng n in
      let rec dup j = j < i && (out.(j) = c || dup (j + 1)) in
      if dup 0 then draw () else c
    in
    out.(i) <- draw ()
  done;
  out

(* Memoization is keyed on the simplified genome, so crossover products
   that reduce to an already-seen expression are cache hits; [f] is called
   on the canonical form for the same reason. *)
let evaluator_of_fn f =
  let memo : (Expr.genome * int, float) Hashtbl.t = Hashtbl.create 4096 in
  let count = ref 0 in
  let evaluate_batch genomes ~cases =
    Array.map
      (fun g ->
        let cg = Simplify.genome g in
        Array.of_list
          (List.map
             (fun c ->
               match Hashtbl.find_opt memo (cg, c) with
               | Some v -> v
               | None ->
                 incr count;
                 let v = sanitize (f cg c) in
                 Hashtbl.replace memo (cg, c) v;
                 v)
             cases))
      genomes
  in
  { evaluate_batch; evaluations = (fun () -> !count) }

type problem = {
  fs : Feature_set.t;
  sort : [ `Real | `Bool ];
  baseline : Expr.genome option;
  n_cases : int;
  case_name : int -> string;
  evaluator : evaluator;
}

type individual = {
  genome : Expr.genome;
  mutable fitness : float;
  mutable size : int;
}

type generation_stats = {
  gen : int;
  best_fitness : float;
  mean_fitness : float;
  best_size : int;
  subset : int list;
  best_expr : string;
}

type result = {
  best : Expr.genome;
  best_fitness : float;          (* mean speedup over all cases *)
  per_case : (string * float) array;
  history : generation_stats list;
  evaluations : int;             (* non-memoized fitness evaluations *)
}

(* Strictly-better ordering with parsimony pressure: higher fitness wins;
   fitness ties within [eps] are broken towards the smaller expression. *)
let better ~eps a b =
  if a.fitness > b.fitness +. eps then true
  else if b.fitness > a.fitness +. eps then false
  else a.size < b.size

(* --- Checkpoint / resume -------------------------------------------------

   One file per completed generation, [gen-NNNNN.ckpt], written atomically
   (tmp + rename) at the end of the generation's loop body: it captures
   everything the next generation depends on — the RNG state after
   reproduction, the offspring population (as s-expressions, which
   round-trip exactly), the stats history, and the DSS difficulty/age
   state.  Resuming replays nothing: the run continues at [ck_next_gen]
   with bit-identical state, so an interrupted run and an uninterrupted
   one produce the same final best genome.

   Checkpoints are versioned and fingerprinted over (params, n_cases,
   sort); a file from another format version or another run configuration
   is ignored with a warning, as is a torn or corrupt file — the loader
   walks newest-first until it finds a valid one.

   Integrity is checked before [Marshal] gets near the bytes: the writer
   appends a footer (magic, payload length, MD5 digest of the payload),
   so the loader can tell a truncated or bit-rotted file — warned as
   corrupt and counted in the [evolve.checkpoints_skipped] telemetry
   counter — from a healthy file written by another version or another
   run configuration, which is a mismatch, not damage. *)

let checkpoint_version = 1

(* 8-byte magic + 8-byte payload length + 16-byte raw MD5 of payload. *)
let ck_magic = "MOCKPT01"
let ck_footer_len = 8 + 8 + 16

type checkpoint = {
  ck_version : int;
  ck_fingerprint : string;
  ck_next_gen : int; (* first generation still to run *)
  ck_rng : Random.State.t;
  ck_pop : string array; (* genome s-expressions *)
  ck_history : generation_stats list; (* newest first *)
  ck_dss : Dss.t option;
}

let fingerprint (params : Params.t) (p : problem) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (params, p.n_cases, match p.sort with `Real -> 0 | `Bool -> 1)
          []))

let checkpoint_file dir gen =
  Filename.concat dir (Printf.sprintf "gen-%05d.ckpt" gen)

let write_checkpoint dir ck =
  Dirs.mkdir_p dir;
  let final = checkpoint_file dir ck.ck_next_gen in
  let tmp = final ^ ".tmp" in
  match open_out_bin tmp with
  | exception Sys_error e ->
    Logs.warn (fun m -> m "checkpoint not written: %s" e)
  | oc ->
    (* Close-on-exec: a pre-forked pool worker spawned while this
       channel is open must not hold the half-written checkpoint (or
       its flushed-but-unrenamed tmp file) past the parent's write. *)
    (try Unix.set_close_on_exec (Unix.descr_of_out_channel oc)
     with Unix.Unix_error _ -> ());
    let payload = Marshal.to_string ck [] in
    output_string oc payload;
    output_string oc ck_magic;
    let len = Bytes.create 8 in
    Bytes.set_int64_le len 0 (Int64.of_int (String.length payload));
    output_bytes oc len;
    output_string oc (Digest.string payload);
    close_out oc;
    (try Sys.rename tmp final
     with Sys_error e ->
       Logs.warn (fun m -> m "checkpoint rename failed: %s" e));
    (* Chaos site: a crash between the rename and the next generation can
       leave a truncated file on disk; the injected fault produces
       exactly that artifact. *)
    (match
       Chaos.fire ~site:Chaos.site_checkpoint_write ~key:ck.ck_next_gen
         ~attempt:1
     with
    | Some Chaos.Truncated -> (
      try
        let sz = (Unix.stat final).Unix.st_size in
        let fd = Unix.openfile final [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0o644 in
        Unix.ftruncate fd (sz / 2);
        Unix.close fd
      with Unix.Unix_error _ -> ())
    | _ -> ())

(* Why a file can be rejected: damage (short read, bad magic, wrong
   length, digest mismatch, unmarshalable payload) vs. a healthy file
   that simply belongs to another format version or run configuration. *)
type ck_reject = Corrupt of string | Mismatch

let read_checkpoint path : (checkpoint, ck_reject) Stdlib.result =
  match open_in_bin path with
  | exception Sys_error e -> Error (Corrupt e)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let size = in_channel_length ic in
        if size < ck_footer_len then Error (Corrupt "file shorter than footer")
        else begin
          seek_in ic (size - ck_footer_len);
          let footer = really_input_string ic ck_footer_len in
          let magic = String.sub footer 0 8 in
          let len = Int64.to_int (String.get_int64_le footer 8) in
          let digest = String.sub footer 16 16 in
          if magic <> ck_magic then Error (Corrupt "missing footer magic")
          else if len < 0 || len <> size - ck_footer_len then
            Error (Corrupt "payload length mismatch")
          else begin
            seek_in ic 0;
            let payload = really_input_string ic len in
            if Digest.string payload <> digest then
              Error (Corrupt "payload digest mismatch")
            else
              match (Marshal.from_string payload 0 : checkpoint) with
              | ck -> Ok ck
              | exception _ -> Error (Corrupt "unmarshalable payload")
          end
        end)

let load_checkpoint ~fingerprint:fp path =
  let verdict =
    match read_checkpoint path with
    | Ok ck
      when ck.ck_version = checkpoint_version && ck.ck_fingerprint = fp ->
      Ok ck
    | Ok _ -> Error Mismatch
    | Error _ as e -> e
  in
  match verdict with
  | Ok ck -> Some ck
  | Error Mismatch ->
    Telemetry.incr "evolve.checkpoints_skipped";
    Logs.warn (fun m ->
        m "ignoring checkpoint %s (version or run fingerprint mismatch)" path);
    None
  | Error (Corrupt why) ->
    Telemetry.incr "evolve.checkpoints_skipped";
    Logs.warn (fun m ->
        m "ignoring corrupt checkpoint %s (%s) — resuming from an older one"
          path why);
    None

(* Newest first: higher generation numbers are tried before lower ones, so
   a corrupt latest checkpoint costs one generation, not the run. *)
let latest_checkpoint dir ~fingerprint =
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | files ->
    let parse_gen f =
      if
        String.length f = String.length "gen-00000.ckpt"
        && String.sub f 0 4 = "gen-"
        && Filename.check_suffix f ".ckpt"
      then int_of_string_opt (String.sub f 4 5)
      else None
    in
    Array.to_list files
    |> List.filter_map parse_gen
    |> List.sort (fun a b -> compare b a)
    |> List.find_map (fun gen ->
           load_checkpoint ~fingerprint (checkpoint_file dir gen))

let run ?(params = Params.default) ?on_generation ?checkpoint_dir
    (p : problem) : result =
  if p.n_cases <= 0 then invalid_arg "Evolve.run: no training cases";
  if params.Params.population_size < 1 then
    invalid_arg
      (Printf.sprintf "Evolve.run: population_size must be >= 1 (got %d)"
         params.Params.population_size);
  let evaluations0 = p.evaluator.evaluations () in
  let gen_cfg =
    { (Gen.default_config p.fs) with Gen.max_depth = params.Params.init_depth }
  in
  let fp =
    match checkpoint_dir with Some _ -> fingerprint params p | None -> ""
  in
  let resumed =
    Option.bind checkpoint_dir (fun dir -> latest_checkpoint dir ~fingerprint:fp)
  in
  let rng, pop, dss, history, start_gen =
    match resumed with
    | Some ck ->
      Logs.info (fun m ->
          m "resuming evolution from checkpoint at generation %d"
            ck.ck_next_gen);
      let pop =
        Array.map
          (fun s ->
            let g = Sexp.parse_genome p.fs ~sort:p.sort s in
            { genome = g; fitness = 0.0; size = Expr.size g })
          ck.ck_pop
      in
      (ck.ck_rng, pop, ck.ck_dss, ref ck.ck_history, ck.ck_next_gen)
    | None ->
      let rng = Random.State.make [| params.Params.rng_seed |] in
      (* --- Initial population ---
         The seed list never exceeds the population: with a tiny
         [population_size] the seeds are truncated and the random count
         clamps at 0, so [Gen.ramped] is never asked for a negative
         count. *)
      let seed =
        if params.Params.seed_baseline then Option.to_list p.baseline else []
      in
      let seed = List.filteri (fun i _ -> i < params.Params.population_size) seed in
      let n_random =
        max 0 (params.Params.population_size - List.length seed)
      in
      let genomes =
        seed @ Gen.ramped gen_cfg rng ~sort:p.sort ~count:n_random
      in
      let pop =
        Array.of_list
          (List.map
             (fun g -> { genome = g; fitness = 0.0; size = Expr.size g })
             genomes)
      in
      (* --- DSS over the training cases --- *)
      let dss =
        if p.n_cases >= 4 then
          Some
            (Dss.create ~n_cases:p.n_cases
               ~subset_size:(max 2 ((p.n_cases + 1) / 2))
               ())
        else None
      in
      (rng, pop, dss, ref [], 0)
  in
  let n = Array.length pop in
  let all_cases = List.init p.n_cases Fun.id in
  let eps = params.Params.parsimony_eps in
  (* Tournament over a snapshot of the evaluated generation: offspring
     never compete as parents until they have been batch-scored.
     Contestants are drawn without replacement whenever the population
     can support it — a duplicate draw would silently shrink the
     effective tournament size and weaken selection pressure.  Smaller
     populations keep the historical with-replacement draws. *)
  let tournament pool =
    let t = params.Params.tournament_size in
    if n >= t && t > 0 then begin
      let idx = sample_distinct rng ~n ~k:t in
      let best = ref pool.(idx.(0)) in
      for i = 1 to t - 1 do
        let c = pool.(idx.(i)) in
        if better ~eps c !best then best := c
      done;
      !best
    end
    else begin
      let best = ref pool.(Random.State.int rng n) in
      for _ = 2 to t do
        let c = pool.(Random.State.int rng n) in
        if better ~eps c !best then best := c
      done;
      !best
    end
  in
  let best_index () =
    let bi = ref 0 in
    for i = 1 to n - 1 do
      if better ~eps pop.(i) pop.(!bi) then bi := i
    done;
    !bi
  in
  (* One batch per generation: the whole population against the subset.
     Returns the fitness matrix (row per individual, column per case). *)
  let evaluate_population cases =
    let matrix =
      p.evaluator.evaluate_batch
        (Array.map (fun ind -> ind.genome) pop)
        ~cases
    in
    let k = float_of_int (List.length cases) in
    Array.iteri
      (fun i ind ->
        ind.fitness <- Array.fold_left ( +. ) 0.0 matrix.(i) /. k)
      pop;
    matrix
  in
  for gen = start_gen to params.Params.generations - 1 do
    let t_gen = if Telemetry.enabled () then Telemetry.now_s () else 0.0 in
    let subset =
      match dss with
      | Some d -> Dss.select d rng
      | None -> all_cases
    in
    let matrix = evaluate_population subset in
    (* DSS difficulty update: per-case failure rate this generation, read
       straight off the fitness matrix. *)
    (match dss with
    | Some d ->
      let columns = List.mapi (fun j c -> (c, j)) subset in
      let failure_rate c =
        let j = List.assoc c columns in
        let fails =
          Array.fold_left
            (fun acc row -> if row.(j) < 1.0 then acc + 1 else acc)
            0 matrix
        in
        float_of_int fails /. float_of_int n
      in
      Dss.update d ~subset ~failure_rate
    | None -> ());
    let bi = best_index () in
    let mean_fitness =
      Array.fold_left (fun acc i -> acc +. i.fitness) 0.0 pop /. float_of_int n
    in
    let stats =
      {
        gen;
        best_fitness = pop.(bi).fitness;
        mean_fitness;
        best_size = pop.(bi).size;
        subset;
        best_expr = Sexp.to_string p.fs pop.(bi).genome;
      }
    in
    history := stats :: !history;
    (match on_generation with Some f -> f stats | None -> ());
    (* One record per generation.  Everything here is derived from state
       the loop already computed; none of it touches [rng], so a run with
       telemetry on is bit-identical to one with it off. *)
    if Telemetry.enabled () then begin
      let nf = float_of_int n in
      let std_fitness =
        let acc =
          Array.fold_left
            (fun a i ->
              let d = i.fitness -. mean_fitness in
              a +. (d *. d))
            0.0 pop
        in
        sqrt (acc /. nf)
      in
      let size_min =
        Array.fold_left (fun a i -> min a i.size) max_int pop
      in
      let size_max = Array.fold_left (fun a i -> max a i.size) 0 pop in
      let size_mean =
        Array.fold_left (fun a i -> a +. float_of_int i.size) 0.0 pop /. nf
      in
      let elapsed = Telemetry.now_s () -. t_gen in
      Telemetry.observe "evolve.generation_s" elapsed;
      Telemetry.emit ~kind:"generation"
        [
          ("gen", Telemetry.Int gen);
          ("best_fitness", Telemetry.Float stats.best_fitness);
          ("mean_fitness", Telemetry.Float mean_fitness);
          ("std_fitness", Telemetry.Float std_fitness);
          ("best_size", Telemetry.Int stats.best_size);
          ("size_min", Telemetry.Int size_min);
          ("size_mean", Telemetry.Float size_mean);
          ("size_max", Telemetry.Int size_max);
          ("population", Telemetry.Int n);
          ("subset_size", Telemetry.Int (List.length subset));
          ( "evaluations",
            Telemetry.Int (p.evaluator.evaluations () - evaluations0) );
          ("elapsed_s", Telemetry.Float elapsed);
          ("best_expr", Telemetry.String stats.best_expr);
        ]
    end;
    (* --- Reproduction: replace a random fraction of the population (the
       elite excepted) with crossover offspring, some of them mutated.
       Parents come from the evaluated snapshot; offspring are scored by
       the next generation's batch. --- *)
    if gen < params.Params.generations - 1 then begin
      let parents = Array.copy pop in
      let n_replace =
        int_of_float (Float.round (params.Params.replacement_frac *. float_of_int n))
      in
      for _ = 1 to n_replace do
        let slot = Random.State.int rng n in
        if (not params.Params.elitism) || slot <> bi then begin
          let pa = tournament parents and pb = tournament parents in
          let child =
            Genetic_ops.crossover_bounded rng ~max_depth:params.Params.max_depth
              pa.genome pb.genome
          in
          let child =
            if Random.State.float rng 1.0 < params.Params.mutation_rate then
              Genetic_ops.mutate gen_cfg rng ~max_depth:params.Params.max_depth
                child
            else child
          in
          pop.(slot) <-
            { genome = child; fitness = 0.0; size = Expr.size child }
        end
      done
    end;
    (* The generation is complete (stats recorded, offspring in place):
       snapshot everything generation [gen + 1] depends on. *)
    (match checkpoint_dir with
    | Some dir ->
      write_checkpoint dir
        {
          ck_version = checkpoint_version;
          ck_fingerprint = fp;
          ck_next_gen = gen + 1;
          ck_rng = rng;
          ck_pop = Array.map (fun ind -> Sexp.to_string p.fs ind.genome) pop;
          ck_history = !history;
          ck_dss = dss;
        }
    | None -> ())
  done;
  (* Final: score the whole population on the full training set. *)
  let final = evaluate_population all_cases in
  let bi = best_index () in
  let best = pop.(bi) in
  let per_case =
    Array.init p.n_cases (fun c -> (p.case_name c, final.(bi).(c)))
  in
  {
    best = best.genome;
    best_fitness = best.fitness;
    per_case;
    history = List.rev !history;
    evaluations = p.evaluator.evaluations () - evaluations0;
  }
