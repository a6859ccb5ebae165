(* Spans the harness records around the public calls it makes (live
   spans) and around the inner layers it re-executes afterwards (replayed
   spans, whose parent is the live span whose work they model).  Kept in
   memory, written as JSONL when the traced run ends.  Client threads of
   the served workload record concurrently, hence the lock. *)

type t = {
  id : int;
  parent : int;  (* 0 = root *)
  name : string;
  start : float;
  stop : float;
  replayed : bool;
}

let on = ref false
let lock = Mutex.create ()
let all : t list ref = ref []
let next = ref 1

let reset () =
  Mutex.protect lock (fun () ->
      all := [];
      next := 1)

let fresh () =
  Mutex.protect lock (fun () ->
      let id = !next in
      incr next;
      id)

let add s = Mutex.protect lock (fun () -> all := s :: !all)

(* [record ~parent name f] runs [f id] inside a new span; with tracing
   off it is [f 0] and reads no clock. *)
let record ~replayed ~parent name f =
  if not !on then f 0
  else begin
    let id = fresh () in
    let start = Unix.gettimeofday () in
    let r = f id in
    add { id; parent; name; start; stop = Unix.gettimeofday (); replayed };
    r
  end

let with_ ~parent name f = record ~replayed:false ~parent name f
let replayed ~parent name f = record ~replayed:true ~parent name f
let dur s = s.stop -. s.start

(* Every span with its self time: its duration minus the durations of its
   direct children.  A replayed child can outlast its live parent when the
   live work ran in parallel workers, so self times may be negative. *)
let with_self spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (prev +. dur s))
    spans;
  List.map
    (fun s ->
      (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)))
    spans

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Gp.Telemetry.json_to_string
           (Gp.Telemetry.Obj
              [
                ("id", Gp.Telemetry.Int s.id);
                ("parent", Gp.Telemetry.Int s.parent);
                ("name", Gp.Telemetry.String s.name);
                ("start", Gp.Telemetry.Float s.start);
                ("end", Gp.Telemetry.Float s.stop);
                ("replayed", Gp.Telemetry.Bool s.replayed);
              ]));
      output_char oc '\n')
    (List.sort (fun a b -> compare a.id b.id) spans);
  close_out oc
