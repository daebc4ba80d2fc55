(** The traced replay's span buffer: one span per call into a layer,
    kept in memory and written out as Chrome trace-event JSON when the
    run ends.  It is the benchmark's own, so changes to the program's
    tracing cannot move these numbers. *)

type span = {
  id : int;
  name : string;
  stmt : int;  (** the statement the span belongs to *)
  parent : int;  (** id of the enclosing span; -1 for a statement's root *)
  start_ns : int64;
  mutable stop_ns : int64;
}

type t = { mutable spans : span list; mutable next_id : int; mutable open_ : int list }

let now () = Monotonic_clock.now ()
let create () = { spans = []; next_id = 0; open_ = [] }

let with_span t ~stmt name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  let s = { id; name; stmt; parent; start_ns = now (); stop_ns = 0L } in
  t.open_ <- id :: t.open_;
  Fun.protect f ~finally:(fun () ->
      s.stop_ns <- now ();
      t.open_ <- List.tl t.open_;
      t.spans <- s :: t.spans)

let dur s = Int64.sub s.stop_ns s.start_ns

(** Every span with its self time: its duration less the part its
    children cover. *)
let self_times t : (span * int64) list =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (Int64.add (dur s)
             (Option.value ~default:0L (Hashtbl.find_opt child_ns s.parent))))
    t.spans;
  List.map
    (fun s ->
      (s, Int64.sub (dur s) (Option.value ~default:0L (Hashtbl.find_opt child_ns s.id))))
    t.spans

(** Writes the spans as Chrome trace-event JSON ("X" complete events,
    microsecond timestamps), loadable in chrome://tracing or Perfetto. *)
let write_chrome t path =
  let spans = List.rev t.spans in
  let t0 = List.fold_left (fun m s -> min m s.start_ns) Int64.max_int spans in
  let us ns = Int64.to_float ns /. 1000. in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %S, \"cat\": \"sb_bench\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"stmt\": %d, \
             \"id\": %d, \"parent\": %d}}\n"
            (if i = 0 then "" else ",")
            s.name
            (us (Int64.sub s.start_ns t0))
            (us (dur s)) s.stmt s.id s.parent)
        spans;
      output_string oc "], \"displayTimeUnit\": \"ns\"}\n")
