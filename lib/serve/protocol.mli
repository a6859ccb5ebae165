(** Wire protocol of the [metaopt serve] evaluation daemon.

    {2 Frame layout}

    Every message each way is one frame: a 4-byte big-endian payload
    length followed by the payload.  Lengths above {!max_frame} (or
    {!max_hello_frame} during the handshake) are rejected before any
    allocation.

    The first frame after connect is a plain-text version handshake —
    client sends ["metaopt-serve 1"], daemon answers
    ["metaopt-serve 1 ok"] or closes — so an incompatible or garbage
    peer is refused by string comparison before anything reaches
    [Marshal].  Every subsequent payload is a marshaled {!request}
    (client to daemon) or {!response} (daemon to client); both sides are
    builds of the same repository, the same discipline the fork pool's
    worker pipes already rely on. *)

val version : int
val magic : string
val max_frame : int
val max_hello_frame : int

type task = {
  t_digest : string;
      (** the client-computed persistent store key; the daemon serves
          and stores by this digest without recomputing it, and answers
          a request carrying one that is not 32 lowercase hex characters
          with [Server_error] *)
  t_genome : Gp.Expr.genome;  (** canonical; evaluated exactly as sent *)
  t_case : int;
}

type request =
  | Open_study of Driver.Study.remote_desc
      (** register a study shape; idempotent — the same description
          from any client yields the same study id *)
  | Eval of {
      req : int;  (** client-chosen correlation id *)
      study : int;  (** from [Study_opened] *)
      dataset : Benchmarks.Bench.dataset;
      tasks : task array;
    }

type reject_reason =
  | Queue_full  (** the daemon's bounded task queue cannot take the batch *)
  | Inflight_cap  (** this client already has too many open requests *)

val reject_to_string : reject_reason -> string

type response =
  | Study_opened of { study : int }
  | Eval_result of { req : int; outcomes : float Gp.Parmap.outcome array }
      (** one outcome per task, in request order; non-[Ok] outcomes are
          the pool's fault classification, forwarded verbatim *)
  | Rejected of { req : int; reason : reject_reason }
      (** typed backpressure: nothing was evaluated; retry later *)
  | Shutting_down  (** the daemon is draining; it accepts no new work *)
  | Server_error of string

(** {2 Blocking framed IO (client side; EINTR-safe)} *)

val write_frame : Unix.file_descr -> string -> unit
val read_frame : ?max:int -> Unix.file_descr -> string
(** @raise End_of_file on a closed peer, [Failure] on a bad length. *)

val client_handshake : Unix.file_descr -> unit
(** Send the hello frame and require the daemon's acknowledgment.
    @raise Failure on a version mismatch or a non-daemon peer. *)

val send_request : Unix.file_descr -> request -> unit
val read_response : Unix.file_descr -> response

(** {2 Codecs (for the daemon's non-blocking loop)} *)

val hello : string
val hello_ok : string
val frame : string -> bytes
val decode_len : bytes -> int -> int
(** Length of the frame whose 4 header bytes sit at [off].
    @raise Failure outside [0..max_frame]. *)

val encode_request : request -> string
val encode_response : response -> string
val decode_request : string -> request
val decode_response : string -> response
