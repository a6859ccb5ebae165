(* The wire protocol between a metaopt study client and the evaluation
   daemon.  See protocol.mli for the frame layout and the handshake.

   Framing is a 4-byte big-endian payload length followed by the
   payload.  The first frame each way is a plain-text version handshake
   (so a garbage or incompatible peer is rejected by string compare,
   before anything reaches Marshal); every later frame is a marshaled
   [request] / [response].  Marshal is the same channel discipline the
   fork pool's worker pipes use, and every type that crosses the wire
   ([Study.remote_desc], genomes, datasets, outcomes) is pure data. *)

let version = 1
let magic = "metaopt-serve"

(* Payload ceiling: a batch of a few thousand genomes marshals to well
   under a megabyte; anything near the cap is a corrupt or hostile
   length header, not a real request. *)
let max_frame = 64 * 1024 * 1024

(* The handshake frames are tiny; a longer one is not a handshake. *)
let max_hello_frame = 256

type task = { t_digest : string; t_genome : Gp.Expr.genome; t_case : int }

type request =
  | Open_study of Driver.Study.remote_desc
  | Eval of {
      req : int;
      study : int;
      dataset : Benchmarks.Bench.dataset;
      tasks : task array;
    }

type reject_reason = Queue_full | Inflight_cap

let reject_to_string = function
  | Queue_full -> "queue full"
  | Inflight_cap -> "per-client in-flight cap"

type response =
  | Study_opened of { study : int }
  | Eval_result of { req : int; outcomes : float Gp.Parmap.outcome array }
  | Rejected of { req : int; reason : reject_reason }
  | Shutting_down
  | Server_error of string

(* --- Framing -------------------------------------------------------------- *)

let retry_eintr = Gp.Parmap.retry_eintr

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  b

let decode_len header off =
  let len = Int32.to_int (Bytes.get_int32_be header off) in
  if len < 0 || len > max_frame then
    failwith (Printf.sprintf "serve: bad frame length %d" len)
  else len

let write_frame fd payload = Gp.Parmap.write_all fd (frame payload)

let read_fully fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    let k = retry_eintr (fun () -> Unix.read fd b !off (n - !off)) in
    if k = 0 then raise End_of_file;
    off := !off + k
  done;
  b

let read_frame ?(max = max_frame) fd =
  let header = read_fully fd 4 in
  let len = decode_len header 0 in
  if len > max then failwith (Printf.sprintf "serve: frame too long (%d)" len);
  Bytes.to_string (read_fully fd len)

(* --- Handshake ------------------------------------------------------------ *)

let hello = Printf.sprintf "%s %d" magic version
let hello_ok = Printf.sprintf "%s %d ok" magic version

let client_handshake fd =
  write_frame fd hello;
  let reply = read_frame ~max:max_hello_frame fd in
  if reply <> hello_ok then
    failwith
      (Printf.sprintf
         "serve: version handshake failed (sent %S, daemon answered %S)" hello
         reply)

(* --- Marshal wrappers ----------------------------------------------------- *)

let encode_request (r : request) = Marshal.to_string r []
let encode_response (r : response) = Marshal.to_string r []

let decode_request s : request =
  try Marshal.from_string s 0
  with _ -> failwith "serve: unreadable request frame"

let decode_response s : response =
  try Marshal.from_string s 0
  with _ -> failwith "serve: unreadable response frame"

let send_request fd r = write_frame fd (encode_request r)
let read_response fd = decode_response (read_frame fd)
