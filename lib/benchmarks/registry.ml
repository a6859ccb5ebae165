(* The benchmark registry: lookup by name and the suite groupings used by
   the paper's experiments (see DESIGN.md's per-experiment index). *)

let all : Bench.t list =
  Media_codecs.all @ Media_image.all @ Spec_int.all @ Spec_fp.all
  @ Spec_fp2000.all @ Misc_extra.all

let find (name : string) : Bench.t =
  match List.find_opt (fun b -> b.Bench.name = name) all with
  | Some b -> b
  | None -> invalid_arg ("Registry.find: unknown benchmark " ^ name)

let names = List.map (fun b -> b.Bench.name) all

(* --- Experiment suites (mirroring Figures 4-16) ------------------------ *)

(* Hyperblock specialization set (Figure 4). *)
let hyperblock_specialize =
  [
    "codrle4"; "decodrle4"; "g721decode"; "g721encode"; "rawdaudio";
    "rawcaudio"; "toast"; "mpeg2dec"; "124.m88ksim"; "129.compress";
    "huff_enc"; "huff_dec";
  ]

(* Hyperblock general-purpose training set (Figure 6). *)
let hyperblock_train =
  [
    "129.compress"; "g721encode"; "g721decode"; "huff_dec"; "huff_enc";
    "rawcaudio"; "rawdaudio"; "toast"; "mpeg2dec";
  ]

(* Hyperblock cross-validation set (Figure 7). *)
let hyperblock_test =
  [
    "unepic"; "djpeg"; "rasta"; "023.eqntott"; "132.ijpeg"; "052.alvinn";
    "147.vortex"; "085.cc1"; "art"; "130.li"; "osdemo"; "mipmap";
  ]

(* Register allocation sets (Figures 9, 11, 12). *)
let regalloc_specialize =
  [
    "mpeg2dec"; "rawcaudio"; "129.compress"; "huff_enc"; "huff_dec";
    "g721decode";
  ]

let regalloc_train =
  [
    "129.compress"; "g721decode"; "g721encode"; "huff_enc"; "huff_dec";
    "rawcaudio"; "rawdaudio"; "mpeg2dec";
  ]

let regalloc_test =
  [
    "decodrle4"; "codrle4"; "124.m88ksim"; "unepic"; "djpeg"; "023.eqntott";
    "132.ijpeg"; "147.vortex"; "085.cc1"; "130.li";
  ]

(* Prefetching sets (Figures 13, 15, 16). *)
let prefetch_specialize =
  [
    "101.tomcatv"; "102.swim"; "103.su2cor"; "125.turb3d"; "146.wave5";
    "093.nasa7"; "015.doduc"; "034.mdljdp2"; "107.mgrid"; "141.apsi";
  ]

let prefetch_train = prefetch_specialize

let prefetch_test =
  [
    "168.wupwise"; "171.swim"; "172.mgrid"; "173.applu"; "178.galgel";
    "183.equake"; "187.facerec"; "188.ammp"; "189.lucas"; "200.sixtrack";
    "301.apsi"; "191.fma3d";
  ]
