(* Cooperative per-task cancellation for the domains pool.

   A domain cannot be killed, so the only way to bound a task running in
   one is for the task itself to notice the deadline.  A [token] carries
   an absolute wall-clock deadline plus a flag another domain can set;
   the hot loops of the evaluation stack (the interpreter's block loop,
   Evalc's batch chunks, the Eval tree-walker) poll the current token at
   cheap safepoints and raise [Cancelled] past the deadline.  [Parmap]'s domains supervisor installs one token per task
   attempt and maps the exception to a [Timed_out] outcome.

   The token is threaded implicitly: the supervisor installs it into
   domain-local storage around the task ([with_token]), and the hot
   loops fetch it once per run ([current]).  Existing evaluation APIs
   keep their signatures; code running outside any supervised task sees
   the shared [never] token, whose poll is a single atomic load and
   float compare. *)

exception Cancelled

type token = {
  flag : bool Atomic.t;  (* set by [cancel]; checked at every poll *)
  deadline : float;      (* absolute Unix time; [infinity] = none *)
}

let never = { flag = Atomic.make false; deadline = infinity }

let create ?deadline_s () =
  let deadline =
    match deadline_s with
    | Some d when Float.is_finite d && d > 0.0 -> Unix.gettimeofday () +. d
    | Some _ -> invalid_arg "Cancel.create: deadline_s must be positive"
    | None -> infinity
  in
  { flag = Atomic.make false; deadline }

let active t = t != never

let cancel t = if active t then Atomic.set t.flag true

(* The clock is only read when a real deadline is set, so polling an
   inactive (or flag-only) token never costs a syscall. *)
let cancelled t =
  Atomic.get t.flag
  || (t.deadline < infinity && Unix.gettimeofday () > t.deadline)

let check t = if cancelled t then raise Cancelled

(* --- The current token, per domain -------------------------------------- *)

let key = Domain.DLS.new_key (fun () -> never)

let current () = Domain.DLS.get key

let with_token t f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

(* --- Safepoint helpers --------------------------------------------------- *)

(* Loop-grained polling: hot loops keep their own countdown and call
   [check] on the token they fetched at entry every [poll_interval]
   iterations.  At typical iteration costs this bounds cancellation
   latency to well under a millisecond while keeping the common case to
   a decrement and a compare. *)
let poll_interval = 1024

(* Call-grained polling for code without a natural loop counter (the
   [Eval] tree-walker, [Evalc]'s scalar closures): a domain-local fuel
   counter is spent one unit per call and the current token is really
   checked each time it runs out.  One DLS read per call; the token
   lookup and clock read are paid only every [tick_interval] calls. *)
let tick_interval = 256

type tick_state = { mutable left : int }

let tick_key = Domain.DLS.new_key (fun () -> { left = tick_interval })

let tick () =
  let s = Domain.DLS.get tick_key in
  s.left <- s.left - 1;
  if s.left <= 0 then begin
    s.left <- tick_interval;
    let t = Domain.DLS.get key in
    if active t then check t
  end
