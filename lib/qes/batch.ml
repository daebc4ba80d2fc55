open Sb_storage

type t = {
  b_width : int;
  b_cols : Value.t array array;  (* b_width column chunks of length cap *)
  b_sel : int array;  (* selection vector: physical indices of live rows *)
  mutable b_len : int;  (* physical rows appended *)
  mutable b_live : int;  (* live rows (used prefix of b_sel) *)
}

let capacity = 1024

let create ?(cap = capacity) w =
  {
    b_width = w;
    b_cols = Array.init w (fun _ -> Array.make cap Value.Null);
    b_sel = Array.make cap 0;
    b_len = 0;
    b_live = 0;
  }

let reset b =
  b.b_len <- 0;
  b.b_live <- 0

let owner w =
  let own = ref None in
  fun () ->
    match !own with
    | Some b ->
      reset b;
      b
    | None ->
      let b = create w in
      own := Some b;
      b

let count b = b.b_live
let full b = b.b_len >= Array.length b.b_sel

let append b (row : Tuple.t) =
  let phys = b.b_len in
  for k = 0 to b.b_width - 1 do
    b.b_cols.(k).(phys) <- row.(k)
  done;
  b.b_sel.(b.b_live) <- phys;
  b.b_len <- phys + 1;
  b.b_live <- b.b_live + 1

let append_init b f =
  let phys = b.b_len in
  for k = 0 to b.b_width - 1 do
    b.b_cols.(k).(phys) <- f k
  done;
  b.b_sel.(b.b_live) <- phys;
  b.b_len <- phys + 1;
  b.b_live <- b.b_live + 1

(* the scan fast path: append the projection [row.(cols.(k))] without a
   per-row closure *)
let append_cols b (row : Tuple.t) (cols : int array) =
  let phys = b.b_len in
  for k = 0 to b.b_width - 1 do
    b.b_cols.(k).(phys) <- row.(cols.(k))
  done;
  b.b_sel.(b.b_live) <- phys;
  b.b_len <- phys + 1;
  b.b_live <- b.b_live + 1

(* the column-only-projection fast path: no value moves; the new batch
   shares [b]'s column chunks and its selection vector *)
let select b (cols : int array) =
  {
    b_width = Array.length cols;
    b_cols = Array.map (fun c -> b.b_cols.(c)) cols;
    b_sel = b.b_sel;
    b_len = b.b_len;
    b_live = b.b_live;
  }

(* appends [n] blank rows — the degenerate width-0 projection, where
   only the row count carries information *)
let pad b n =
  for j = 0 to n - 1 do
    b.b_sel.(b.b_live + j) <- b.b_len + j
  done;
  b.b_len <- b.b_len + n;
  b.b_live <- b.b_live + n

(* the join emission fast path: append [a @ c] without materializing
   the concatenated row *)
let append_concat b (a : Tuple.t) (c : Tuple.t) =
  let phys = b.b_len in
  let wa = Array.length a in
  for k = 0 to wa - 1 do
    b.b_cols.(k).(phys) <- a.(k)
  done;
  for k = wa to b.b_width - 1 do
    b.b_cols.(k).(phys) <- c.(k - wa)
  done;
  b.b_sel.(b.b_live) <- phys;
  b.b_len <- phys + 1;
  b.b_live <- b.b_live + 1

let value b ~col i = b.b_cols.(col).(b.b_sel.(i))
let get b i = Array.init b.b_width (fun k -> b.b_cols.(k).(b.b_sel.(i)))

let blit_row b i dst =
  let phys = b.b_sel.(i) in
  for k = 0 to b.b_width - 1 do
    dst.(k) <- b.b_cols.(k).(phys)
  done

(* partial blit for expression evaluation that reads few slots of a
   wide row *)
let blit_slots b i dst (slots : int array) =
  let phys = b.b_sel.(i) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) in
    dst.(s) <- b.b_cols.(s).(phys)
  done

(* compaction writes only at positions <= the index being tested, so
   [pred] always sees the pre-refinement selection entry *)
let keep b pred =
  let j = ref 0 in
  for i = 0 to b.b_live - 1 do
    if pred i then begin
      b.b_sel.(!j) <- b.b_sel.(i);
      incr j
    end
  done;
  b.b_live <- !j

let truncate b n = if n < b.b_live then b.b_live <- max n 0

(* A producer's output: rows are appended to [e_cur]; a batch that
   fills queues in [e_ready] and the next row opens a spare one.  The
   batch lent to the consumer comes back on its next pull. *)
type emitter = {
  e_width : int;
  mutable e_cur : t;  (* the batch being filled; [idle] when none *)
  e_ready : t Queue.t;  (* full batches, oldest first *)
  mutable e_spare : t list;
  mutable e_lent : t option;
}

(* zero capacity: always full, so the first append opens a real batch *)
let idle = create ~cap:0 0

let emitter w =
  { e_width = w; e_cur = idle; e_ready = Queue.create (); e_spare = [];
    e_lent = None }

(* the current batch is full (or [idle]): queue it and open a spare
   or new one *)
let roll em =
  if em.e_cur != idle then Queue.push em.e_cur em.e_ready;
  em.e_cur <-
    (match em.e_spare with
    | b :: rest ->
      em.e_spare <- rest;
      b
    | [] -> create em.e_width)

let push em row =
  if full em.e_cur then roll em;
  append em.e_cur row

let push_cols em row cols =
  if full em.e_cur then roll em;
  append_cols em.e_cur row cols

let push_concat em a c =
  if full em.e_cur then roll em;
  append_concat em.e_cur a c

let filled em =
  (not (Queue.is_empty em.e_ready)) || (full em.e_cur && em.e_cur.b_len > 0)

let produce em step =
  let finished = ref false in
  let lend b =
    em.e_lent <- Some b;
    Some b
  in
  let rec pull () =
    if not (Queue.is_empty em.e_ready) then lend (Queue.pop em.e_ready)
    else if (!finished || full em.e_cur) && em.e_cur.b_len > 0 then begin
      let b = em.e_cur in
      em.e_cur <- idle;
      lend b
    end
    else if !finished then None
    else begin
      if not (step ()) then finished := true;
      pull ()
    end
  in
  Seq.of_dispenser (fun () ->
      Option.iter
        (fun b ->
          reset b;
          em.e_spare <- b :: em.e_spare;
          em.e_lent <- None)
        em.e_lent;
      pull ())

let of_seq ~width (s : Tuple.t Seq.t) : t Seq.t =
  let src = Seq.to_dispenser s in
  let em = emitter width in
  produce em (fun () ->
      match src () with
      | None -> false
      | Some row ->
        push em row;
        true)

let of_rows ~width rows = of_seq ~width (List.to_seq rows)

let to_seq (bs : t Seq.t) : Tuple.t Seq.t =
  let rec rows b i rest () =
    if i < b.b_live then Seq.Cons (get b i, rows b (i + 1) rest) else next rest ()
  and next bs () =
    match bs () with Seq.Nil -> Seq.Nil | Seq.Cons (b, rest) -> rows b 0 rest ()
  in
  next bs
