(* Focused unit tests for the prefetching analysis: induction variables,
   affine strides, constant-bound trip estimation, and insertion
   mechanics. *)

let candidates_of src =
  let prog = Frontend.Minic.compile src in
  Opt.Pipeline.run ~config:Opt.Pipeline.no_unroll prog;
  (prog, Prefetch.Analysis.candidates (Ir.Func.find_func prog "main"))

let test_unit_stride () =
  let _, cands =
    candidates_of
      {| global float v[8192];
         int main() {
           int i; float s = 0.0;
           for (i = 0; i < 8192; i = i + 1) { s = s + v[i]; }
           emit(s);
           return 0; } |}
  in
  match cands with
  | [ c ] ->
    Alcotest.(check (option int)) "stride 1" (Some 1) c.Prefetch.Analysis.stride;
    Alcotest.(check (option string)) "array v" (Some "v")
      c.Prefetch.Analysis.array;
    (match c.Prefetch.Analysis.trip_estimate with
    | Some t -> Alcotest.(check (float 1.0)) "trips ~8192" 8192.0 t
    | None -> Alcotest.fail "trip count should be known")
  | l -> Alcotest.failf "expected one candidate, got %d" (List.length l)

let test_strided_and_offset () =
  let _, cands =
    candidates_of
      {| global float m[8192];
         int main() {
           int i; float s = 0.0;
           for (i = 1; i < 60; i = i + 1) {
             s = s + m[i * 128 + 7] + m[i * 128 - 1];
           }
           emit(s);
           return 0; } |}
  in
  Alcotest.(check int) "two candidates" 2 (List.length cands);
  List.iter
    (fun (c : Prefetch.Analysis.candidate) ->
      Alcotest.(check (option int)) "stride 128" (Some 128)
        c.Prefetch.Analysis.stride)
    cands

let test_row_major_inner_stride () =
  let _, cands =
    candidates_of
      {| global float g[4096];
         int main() {
           int i; int j; float s = 0.0;
           for (i = 0; i < 64; i = i + 1) {
             for (j = 0; j < 64; j = j + 1) {
               s = s + g[i * 64 + j];
             }
           }
           emit(s);
           return 0; } |}
  in
  (* The load is analyzed in its innermost loop (over j): stride 1. *)
  Alcotest.(check bool) "unit stride in inner loop" true
    (List.exists
       (fun (c : Prefetch.Analysis.candidate) ->
         c.Prefetch.Analysis.stride = Some 1)
       cands)

let test_down_counting_loop () =
  let _, cands =
    candidates_of
      {| global float v[2048];
         int main() {
           int i; float s = 0.0;
           for (i = 2047; i >= 0; i = i - 1) { s = s + v[i]; }
           emit(s);
           return 0; } |}
  in
  Alcotest.(check bool) "negative stride found" true
    (List.exists
       (fun (c : Prefetch.Analysis.candidate) ->
         c.Prefetch.Analysis.stride = Some (-1))
       cands)

let test_indirect_access_has_no_stride () =
  let _, cands =
    candidates_of
      {| global int idx[1024];
         global float v[1024];
         int main() {
           int i; float s = 0.0;
           for (i = 0; i < 1024; i = i + 1) { s = s + v[idx[i]]; }
           emit(s);
           return 0; } |}
  in
  (* idx[i] is affine; v[idx[i]] is not. *)
  let v_cand =
    List.find_opt
      (fun (c : Prefetch.Analysis.candidate) ->
        c.Prefetch.Analysis.array = Some "v")
      cands
  in
  match v_cand with
  | Some c ->
    Alcotest.(check (option int)) "gather has no stride" None
      c.Prefetch.Analysis.stride
  | None -> Alcotest.fail "v load should be a candidate"

let test_insertion_adds_prefetch_instrs () =
  let prog, _ =
    candidates_of
      {| global float v[8192];
         int main() {
           int i; float s = 0.0;
           for (i = 0; i < 8192; i = i + 1) { s = s + v[i]; }
           emit(s);
           return 0; } |}
  in
  let stats =
    Prefetch.Insert.run_batched
      ~decision_batch:(Array.map (fun _ -> true)) prog
  in
  Alcotest.(check int) "one insertion" 1 stats.Prefetch.Insert.inserted;
  let prefetches = ref 0 in
  Ir.Func.iter_instrs (Ir.Func.find_func prog "main") (fun _ i ->
      match i.Ir.Instr.kind with
      | Ir.Instr.Prefetch _ -> incr prefetches
      | _ -> ());
  Alcotest.(check int) "prefetch instruction present" 1 !prefetches;
  Alcotest.(check int) "program still valid" 0
    (List.length (Ir.Validate.check_program prog))

let test_insertion_distance () =
  (* The inserted prefetch targets stride * prefetch_iters words ahead. *)
  let prog, _ =
    candidates_of
      {| global float v[8192];
         int main() {
           int i; float s = 0.0;
           for (i = 0; i < 8192; i = i + 1) { s = s + v[i]; }
           emit(s);
           return 0; } |}
  in
  ignore
    (Prefetch.Insert.run_batched
       ~config:{ Prefetch.Insert.prefetch_iters = 6 }
       ~decision_batch:(Array.map (fun _ -> true)) prog);
  let found = ref false in
  Ir.Func.iter_instrs (Ir.Func.find_func prog "main") (fun _ i ->
      match i.Ir.Instr.kind with
      | Ir.Instr.Ibin (Ir.Types.Add, _, _, Ir.Types.Imm 6) -> found := true
      | _ -> ());
  Alcotest.(check bool) "offset 6 = stride 1 * 6 iterations" true !found

let test_prefetch_improves_streaming () =
  (* End-to-end: on a long unit-stride stream larger than L3, a single
     prefetched stream must not pay more than it saves — and under the
     deliberately primitive memory-queue model (see DESIGN.md) it must
     also not beat the no-prefetch build by more than the raw stall
     total. *)
  let b_like_src =
    {| global float v[32768];
       int main() {
         int i; float s = 0.0;
         for (i = 0; i < 32768; i = i + 1) { s = s + v[i]; }
         emit(s);
         return 0; } |}
  in
  let config = Machine.Config.itanium1 in
  let run_with decision =
    let prog = Frontend.Minic.compile b_like_src in
    Opt.Pipeline.run ~config:Opt.Pipeline.no_unroll prog;
    ignore
      (Prefetch.Insert.run_batched ~decision_batch:(Array.map decision) prog);
    let lens = Sched.List_sched.schedule_program ~config prog in
    let layout = Profile.Layout.prepare prog in
    let sc =
      Array.map (fun (f, l) -> Hashtbl.find lens (f, l))
        layout.Profile.Layout.block_name
    in
    (Machine.Simulate.run ~config ~schedule_cycles:sc layout).Machine.Simulate.cycles
  in
  let off = run_with (fun _ -> false) in
  let on = run_with (fun _ -> true) in
  Alcotest.(check bool)
    (Printf.sprintf "single-stream prefetch within +/-10%% (%.0f vs %.0f)" on
       off)
    true
    (Float.abs (on -. off) /. off < 0.10)

let suite =
  [
    Alcotest.test_case "unit stride" `Quick test_unit_stride;
    Alcotest.test_case "strided with offsets" `Quick test_strided_and_offset;
    Alcotest.test_case "row-major inner stride" `Quick
      test_row_major_inner_stride;
    Alcotest.test_case "down-counting loop" `Quick test_down_counting_loop;
    Alcotest.test_case "indirect gather has no stride" `Quick
      test_indirect_access_has_no_stride;
    Alcotest.test_case "insertion mechanics" `Quick
      test_insertion_adds_prefetch_instrs;
    Alcotest.test_case "insertion distance" `Quick test_insertion_distance;
    Alcotest.test_case "prefetch helps a single stream" `Quick
      test_prefetch_improves_streaming;
  ]
