(* Remaining cross-cutting checks: end-to-end determinism under a fixed
   seed, memory layout addressing, numeric values of extracted hyperblock
   features on a hand-analyzed region, and feature-set error behaviour. *)

let test_evolution_deterministic () =
  let params = { Gp.Params.tiny with Gp.Params.rng_seed = 1234 } in
  let run () =
    Driver.Study.specialize_with
      { Driver.Study.default_config with Driver.Study.params }
      Driver.Study.Hyperblock_study "codrle4"
  in
  let a = run () and b = run () in
  Alcotest.(check string) "same best expression" a.Driver.Study.best_expr
    b.Driver.Study.best_expr;
  Alcotest.(check (float 0.0)) "same speedup" a.Driver.Study.train_speedup
    b.Driver.Study.train_speedup

let test_seed_changes_search () =
  let run seed =
    let params = { Gp.Params.tiny with Gp.Params.rng_seed = seed } in
    (Driver.Study.specialize_with
       { Driver.Study.default_config with Driver.Study.params }
       Driver.Study.Hyperblock_study "rawcaudio")
      .Driver.Study.best_expr
  in
  (* Not guaranteed in principle, but with this population it holds and
     guards against accidentally ignoring the seed. *)
  Alcotest.(check bool) "different seeds explore differently" true
    (run 1 <> run 7 || run 1 <> run 13)

let test_layout_addressing () =
  let prog =
    Frontend.Minic.compile
      {| global int a[10];
         global float b[6];
         int main() { emit(a[0] + int(b[0])); return 0; } |}
  in
  let layout = Profile.Layout.prepare prog in
  let base g = Hashtbl.find layout.Profile.Layout.global_base g in
  Alcotest.(check int) "a at 0" 0 (base "a");
  Alcotest.(check int) "b after a" 10 (base "b");
  Alcotest.(check int) "memory covers globals" 16
    layout.Profile.Layout.memory_words;
  Alcotest.(check int) "block uid resolves" 0
    (Profile.Layout.block_uid_of layout "main" "entry")

let test_layout_frames_after_spills () =
  let prog =
    Frontend.Minic.compile
      {| global int a[8];
         int helper(int x) { return x * 3 + 1; }
         int main() {
           int i; int s = 0;
           for (i = 0; i < 8; i = i + 1) { s = s + helper(a[i]); }
           emit(s);
           return 0; } |}
  in
  (* Give each function a frame and check they are disjoint. *)
  List.iter (fun (f : Ir.Func.t) -> f.Ir.Func.frame_size <- 4)
    prog.Ir.Func.funcs;
  let layout = Profile.Layout.prepare prog in
  let frames =
    List.map
      (fun (f : Ir.Func.t) ->
        (Profile.Layout.func layout f.Ir.Func.fname).Profile.Layout.frame_base)
      prog.Ir.Func.funcs
  in
  Alcotest.(check int) "distinct frame bases" (List.length frames)
    (List.length (List.sort_uniq compare frames));
  List.iter
    (fun base ->
      Alcotest.(check bool) "frames after globals" true (base >= 8))
    frames

(* Hand-check Table 4 features on a fully understood diamond. *)
let test_hyperblock_feature_values () =
  let src =
    {| global int a[1000];
       int main() {
         int i; int s = 0;
         for (i = 0; i < 1000; i = i + 1) {
           if (a[i] > 0) { s = s + a[i]; } else { s = s - 1; }
         }
         emit(s);
         return 0; } |}
  in
  let prog = Frontend.Minic.compile src in
  Opt.Pipeline.run ~config:Opt.Pipeline.no_unroll prog;
  let layout = Profile.Layout.prepare prog in
  (* Every fourth element positive: then-path ratio 0.25. *)
  let data = Array.init 1000 (fun i -> if i mod 4 = 0 then 1.0 else 0.0) in
  let prof = Profile.Prof.collect ~overrides:[ ("a", data) ] layout in
  let f = Ir.Func.find_func prog "main" in
  let regions = Hyperblock.Region.discover f in
  let loop_region =
    List.find
      (fun (r : Hyperblock.Region.t) -> r.Hyperblock.Region.kind = `Loop_body)
      regions
  in
  let scored =
    Hyperblock.Form.score_region f prof Hyperblock.Baseline.expr loop_region
  in
  Alcotest.(check int) "two loop paths" 2 (List.length scored);
  let ratios =
    List.sort compare
      (List.map
         (fun (s : Hyperblock.Form.scored_path) ->
           s.Hyperblock.Form.feats.Hyperblock.Features.exec_ratio)
         scored)
  in
  (match ratios with
  | [ lo; hi ] ->
    Alcotest.(check (float 0.02)) "cold path ~25%" 0.25 lo;
    Alcotest.(check (float 0.02)) "hot path ~75%" 0.75 hi
  | _ -> Alcotest.fail "expected two ratios");
  List.iter
    (fun (s : Hyperblock.Form.scored_path) ->
      let fe = s.Hyperblock.Form.feats in
      Alcotest.(check bool) "no hazards in this loop" false
        fe.Hyperblock.Features.mem_hazard;
      Alcotest.(check bool) "positive ops" true
        (fe.Hyperblock.Features.num_ops > 0.0);
      Alcotest.(check bool) "height <= ops * max latency" true
        (fe.Hyperblock.Features.dep_height
        <= fe.Hyperblock.Features.num_ops *. 12.0))
    scored

let test_feature_set_errors () =
  let fs = Gp.Feature_set.make ~reals:[ "x" ] ~bools:[] in
  let env = Gp.Feature_set.empty_env fs in
  Alcotest.check_raises "unknown real"
    (Invalid_argument "Feature_set.set_real: unknown feature nope") (fun () ->
      Gp.Feature_set.set_real fs env "nope" 1.0);
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Feature_set.make: duplicate feature x") (fun () ->
      ignore (Gp.Feature_set.make ~reals:[ "x"; "x" ] ~bools:[]))

let test_expr_features_listing () =
  let fs = Hyperblock.Features.feature_set in
  let g = Gp.Expr.Real (Gp.Sexp.parse_real fs
      "(cmul mem_hazard exec_ratio (add num_ops exec_ratio))") in
  let feats = Gp.Expr.features g in
  let real_name i = Gp.Feature_set.real_name fs i in
  let names =
    List.map
      (function
        | `Real i -> "r:" ^ real_name i
        | `Bool i -> "b:" ^ Gp.Feature_set.bool_name fs i)
      feats
  in
  Alcotest.(check (list string)) "referenced features, deduplicated"
    [ "b:mem_hazard"; "r:exec_ratio"; "r:num_ops" ]
    (List.sort compare names)

let test_instr_count_and_renumber () =
  let prog =
    Frontend.Minic.compile
      {| int main() { int x = 1; emit(x + 2); return 0; } |}
  in
  let f = Ir.Func.find_func prog "main" in
  let n = Ir.Func.instr_count f in
  Ir.Func.renumber f;
  let ids = ref [] in
  Ir.Func.iter_instrs f (fun _ i -> ids := i.Ir.Instr.id :: !ids);
  Alcotest.(check (list int)) "ids are 0..n-1 after renumber"
    (List.init n Fun.id)
    (List.sort compare !ids)

let suite =
  [
    Alcotest.test_case "evolution deterministic per seed" `Slow
      test_evolution_deterministic;
    Alcotest.test_case "seed changes the search" `Slow test_seed_changes_search;
    Alcotest.test_case "memory layout addressing" `Quick test_layout_addressing;
    Alcotest.test_case "frames disjoint after globals" `Quick
      test_layout_frames_after_spills;
    Alcotest.test_case "hyperblock feature values" `Quick
      test_hyperblock_feature_values;
    Alcotest.test_case "feature set errors" `Quick test_feature_set_errors;
    Alcotest.test_case "expression feature listing" `Quick
      test_expr_features_listing;
    Alcotest.test_case "renumbering" `Quick test_instr_count_and_renumber;
  ]
