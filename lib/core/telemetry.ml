(* Zero-dependency metrics/tracing core.  See telemetry.mli for the
   contract; the load-bearing property is that with no sink installed
   every entry point returns before reading the clock or touching the
   registry, so disabled telemetry is a true no-op. *)

(* --- JSON ---------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then begin
      (* %.17g round-trips doubles exactly; strip to a JSON number (no
         bare ".5", no "inf"). *)
      let s = Printf.sprintf "%.17g" f in
      Buffer.add_string buf s
    end
    else Buffer.add_string buf "null"
  | String s -> escape_string buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write_json buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        write_json buf v)
      fields;
    Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 256 in
  write_json buf j;
  Buffer.contents buf

(* A small recursive-descent parser: enough JSON to read back anything
   [json_to_string] produces (and ordinary hand-written documents).  Used
   by the round-trip tests and the bench-report schema validator. *)
exception Parse_fail of string

let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        match e with
        | '"' | '\\' | '/' ->
          Buffer.add_char buf e;
          go ()
        | 'n' ->
          Buffer.add_char buf '\n';
          go ()
        | 'r' ->
          Buffer.add_char buf '\r';
          go ()
        | 't' ->
          Buffer.add_char buf '\t';
          go ()
        | 'b' ->
          Buffer.add_char buf '\b';
          go ()
        | 'f' ->
          Buffer.add_char buf '\012';
          go ()
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let code =
            try int_of_string ("0x" ^ hex)
            with _ -> fail "bad \\u escape"
          in
          (* Encode as UTF-8; surrogate pairs are not produced by our
             writer and are passed through as replacement chars. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end;
          go ()
        | _ -> fail "unknown escape")
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if
      String.contains tok '.' || String.contains tok 'e'
      || String.contains tok 'E'
    then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elems []
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_fail msg -> Error msg

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

(* --- Metrics ------------------------------------------------------------- *)

module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let incr ?(by = 1) t = t.n <- t.n + by
  let value t = t.n
end

module Histogram = struct
  type t = {
    mutable samples : float array;
    mutable len : int;
    mutable sorted : bool;
  }

  let create () = { samples = [||]; len = 0; sorted = false }

  let add t v =
    if t.len = Array.length t.samples then begin
      let cap = Stdlib.max 64 (2 * t.len) in
      let grown = Array.make cap 0.0 in
      Array.blit t.samples 0 grown 0 t.len;
      t.samples <- grown
    end;
    t.samples.(t.len) <- v;
    t.len <- t.len + 1;
    t.sorted <- false

  let count t = t.len

  let sum t =
    let acc = ref 0.0 in
    for i = 0 to t.len - 1 do
      acc := !acc +. t.samples.(i)
    done;
    !acc

  let mean t = if t.len = 0 then 0.0 else sum t /. float_of_int t.len

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.samples 0 t.len in
      Array.sort compare live;
      Array.blit live 0 t.samples 0 t.len;
      t.sorted <- true
    end

  let min t =
    if t.len = 0 then 0.0
    else begin
      ensure_sorted t;
      t.samples.(0)
    end

  let max t =
    if t.len = 0 then 0.0
    else begin
      ensure_sorted t;
      t.samples.(t.len - 1)
    end

  (* Linear interpolation between closest ranks (the "C = 1" textbook
     variant): p50 of [1;2;3;4] is 2.5, p100 is the max. *)
  let percentile t p =
    if t.len = 0 then 0.0
    else begin
      ensure_sorted t;
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let rank = p /. 100.0 *. float_of_int (t.len - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then t.samples.(lo)
      else
        let frac = rank -. float_of_int lo in
        (t.samples.(lo) *. (1.0 -. frac)) +. (t.samples.(hi) *. frac)
    end

  let to_json t =
    Obj
      [
        ("count", Int (count t));
        ("sum", Float (sum t));
        ("mean", Float (mean t));
        ("min", Float (min t));
        ("max", Float (max t));
        ("p50", Float (percentile t 50.0));
        ("p95", Float (percentile t 95.0));
      ]
end

(* --- Registry ------------------------------------------------------------ *)

let counters : (string, Counter.t) Hashtbl.t = Hashtbl.create 32
let histograms : (string, Histogram.t) Hashtbl.t = Hashtbl.create 32

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = Counter.create () in
    Hashtbl.replace counters name c;
    c

let histogram name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.replace histograms name h;
    h

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let registry_json () =
  Obj
    [
      ("counters", Obj (sorted_bindings counters (fun c -> Int (Counter.value c))));
      ("histograms", Obj (sorted_bindings histograms Histogram.to_json));
    ]

let reset () =
  Hashtbl.reset counters;
  Hashtbl.reset histograms

(* --- Sinks --------------------------------------------------------------- *)

type sink = { write : json -> unit; close : unit -> unit }

let jsonl_sink path =
  match open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path with
  | exception Sys_error _ -> { write = (fun _ -> ()); close = (fun () -> ()) }
  | oc ->
    let closed = ref false in
    {
      write =
        (fun j ->
          if not !closed then begin
            try
              output_string oc (json_to_string j);
              output_char oc '\n';
              flush oc
            with Sys_error _ -> ()
          end);
      close =
        (fun () ->
          if not !closed then begin
            closed := true;
            try close_out oc with Sys_error _ -> ()
          end);
    }

let memory_sink () =
  let records = ref [] in
  ( {
      write = (fun j -> records := j :: !records);
      close = (fun () -> ());
    },
    fun () -> List.rev !records )

let current_sink : sink option ref = ref None
let tracing = ref false
let epoch = ref (Unix.gettimeofday ())

let set_sink s =
  (match !current_sink with Some old -> old.close () | None -> ());
  current_sink := s;
  if s <> None then begin
    reset ();
    epoch := Unix.gettimeofday ()
  end

let enabled () = !current_sink <> None
let set_trace b = tracing := b

(* --- Entry points -------------------------------------------------------- *)

let now_s () = Unix.gettimeofday () -. !epoch

let incr ?by name = if enabled () then Counter.incr ?by (counter name)

let observe name v = if enabled () then Histogram.add (histogram name) v

let emit ~kind fields =
  match !current_sink with
  | None -> ()
  | Some sink ->
    sink.write
      (Obj (("kind", String kind) :: ("ts", Float (now_s ())) :: fields))

let span name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_s () in
    let v = f () in
    let dur = now_s () -. t0 in
    Histogram.add (histogram name) dur;
    if !tracing then
      emit ~kind:"span"
        [ ("name", String name); ("start_s", Float t0); ("dur_s", Float dur) ];
    v
  end
