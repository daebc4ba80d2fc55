open Sb_storage

type t = {
  b_width : int;
  b_cols : Value.t array array;
      (* b_width column chunks, each as long as [b_sel]; [typed] for an
         INT chunk *)
  b_ints : int array array;
      (* the INT chunks, [no_ints] for a boxed column; [all_boxed] when
         the batch has no INT chunk *)
  b_nulls : bool array array;
      (* each INT chunk's NULL marks, [no_nulls] until its first NULL *)
  mutable b_sel : int array;
      (* selection vector: physical indices of live rows; its length is
         the batch's room, which doubles from [initial] to [capacity] *)
  mutable b_len : int;  (* physical rows appended *)
  mutable b_live : int;  (* live rows (used prefix of b_sel) *)
}

let capacity = 1024

(* a fresh batch's room: small statements stay on the minor heap (an
   array over 256 words is allocated on the major heap) *)
let initial = 16

(* shared sentinels, told apart by physical equality (each its own
   one-element array: every empty array is the same atom) *)
let typed : Value.t array = Array.make 1 Value.Null
let no_ints : int array = Array.make 1 0
let no_nulls : bool array = Array.make 1 false
let all_boxed : int array array = Array.make 1 no_ints

let create ?(cap = initial) ?ints w =
  match ints with
  | Some m when Array.exists Fun.id m ->
    {
      b_width = w;
      b_cols = Array.init w (fun k -> if m.(k) then typed else Array.make cap Value.Null);
      b_ints = Array.init w (fun k -> if m.(k) then Array.make cap 0 else no_ints);
      b_nulls = Array.make w no_nulls;
      b_sel = Array.make cap 0;
      b_len = 0;
      b_live = 0;
    }
  | _ ->
    {
      b_width = w;
      b_cols = Array.init w (fun _ -> Array.make cap Value.Null);
      b_ints = all_boxed;
      b_nulls = [||];
      b_sel = Array.make cap 0;
      b_len = 0;
      b_live = 0;
    }

let reset b =
  b.b_len <- 0;
  b.b_live <- 0

(* [grow b n]: room for at least [n] rows, doubling; every chunk, the
   NULL marks allocated so far and the selection vector keep their
   contents *)
let grow b n =
  let room = Array.length b.b_sel in
  let rec target r = if r >= n then r else target (2 * r) in
  let room' = target (max room initial) in
  let widen a fill =
    let a' = Array.make room' fill in
    Array.blit a 0 a' 0 room;
    a'
  in
  for k = 0 to b.b_width - 1 do
    let c = b.b_cols.(k) in
    if c != typed then b.b_cols.(k) <- widen c Value.Null
    else begin
      b.b_ints.(k) <- widen b.b_ints.(k) 0;
      let m = b.b_nulls.(k) in
      if m != no_nulls then b.b_nulls.(k) <- widen m false
    end
  done;
  b.b_sel <- widen b.b_sel 0

let owner w =
  let own = ref None in
  fun n ->
    let b =
      match !own with
      | Some b ->
        reset b;
        b
      | None ->
        let b = create w in
        own := Some b;
        b
    in
    if n > Array.length b.b_sel then grow b n;
    b

let count b = b.b_live
let full b = b.b_len >= capacity

(* Every writer below but [append_sink] writes boxed batches only: the
   scan's emitter is the one producer of INT chunks. *)

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

(* the index fetch's fast path: append the projection [row.(cols.(k))]
   without a per-row closure *)
let append_cols b (row : Tuple.t) (cols : int array) =
  let phys = b.b_len in
  for k = 0 to b.b_width - 1 do
    b.b_cols.(k).(phys) <- row.(cols.(k))
  done;
  b.b_sel.(b.b_live) <- phys;
  b.b_len <- phys + 1;
  b.b_live <- b.b_live + 1

(* INT chunk [k]'s mark for row [phys]; the marks are allocated on the
   chunk's first NULL and, once there, written for every row, so a
   refilled batch needs no clearing *)
let[@inline] mark b k phys null =
  let m = b.b_nulls.(k) in
  if m != no_nulls then m.(phys) <- null
  else if null then begin
    let m = Array.make (Array.length b.b_sel) false in
    m.(phys) <- true;
    b.b_nulls.(k) <- m
  end

(* the scan's append: the sink's fields [cols.(k)], each INT chunk's
   from the sink's unboxed ints *)
let append_sink b (s : Row_codec.sink) (cols : int array) =
  let phys = b.b_len in
  if b.b_ints == all_boxed then
    for k = 0 to b.b_width - 1 do
      b.b_cols.(k).(phys) <- s.row.(cols.(k))
    done
  else
    for k = 0 to b.b_width - 1 do
      let c = cols.(k) and chunk = b.b_ints.(k) in
      if chunk != no_ints then begin
        chunk.(phys) <- s.ints.(c);
        mark b k phys s.nulls.(c)
      end
      else b.b_cols.(k).(phys) <- s.row.(c)
    done;
  b.b_sel.(b.b_live) <- phys;
  b.b_len <- phys + 1;
  b.b_live <- b.b_live + 1

(* the column-only-projection fast path: no value moves; the new batch
   shares [b]'s column chunks and its selection vector *)
let select b (cols : int array) =
  let typed_kept =
    b.b_ints != all_boxed && Array.exists (fun c -> b.b_ints.(c) != no_ints) cols
  in
  {
    b_width = Array.length cols;
    b_cols = Array.map (fun c -> b.b_cols.(c)) cols;
    b_ints = (if typed_kept then Array.map (fun c -> b.b_ints.(c)) cols else all_boxed);
    b_nulls = (if typed_kept then Array.map (fun c -> b.b_nulls.(c)) cols else [||]);
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

(* --- reads: INT chunks box on read --- *)

let[@inline] is_int b ~col = b.b_ints != all_boxed && b.b_ints.(col) != no_ints

let[@inline] int_null b col phys =
  let m = b.b_nulls.(col) in
  m != no_nulls && m.(phys)

(* physical row [phys] of column [col], boxed *)
let[@inline] cell b col phys =
  let c = b.b_cols.(col) in
  if c != typed then c.(phys)
  else if int_null b col phys then Value.Null
  else Value.Int b.b_ints.(col).(phys)

let[@inline] value b ~col i =
  if b.b_ints == all_boxed then b.b_cols.(col).(b.b_sel.(i)) else cell b col b.b_sel.(i)

let[@inline] null_at b ~col i =
  let phys = b.b_sel.(i) in
  if is_int b ~col then int_null b col phys else Value.is_null b.b_cols.(col).(phys)

let[@inline] int_at b ~col i = b.b_ints.(col).(b.b_sel.(i))

let get b i =
  let phys = b.b_sel.(i) in
  if b.b_ints == all_boxed then Array.init b.b_width (fun k -> b.b_cols.(k).(phys))
  else Array.init b.b_width (fun k -> cell b k phys)

let blit_row b i dst =
  let phys = b.b_sel.(i) in
  if b.b_ints == all_boxed then
    for k = 0 to b.b_width - 1 do
      dst.(k) <- b.b_cols.(k).(phys)
    done
  else
    for k = 0 to b.b_width - 1 do
      dst.(k) <- cell b k phys
    done

(* partial blit for expression evaluation that reads few slots of a
   wide row *)
let blit_slots b i dst (slots : int array) =
  let phys = b.b_sel.(i) in
  if b.b_ints == all_boxed then
    for k = 0 to Array.length slots - 1 do
      let s = slots.(k) in
      dst.(s) <- b.b_cols.(s).(phys)
    done
  else
    for k = 0 to Array.length slots - 1 do
      let s = slots.(k) in
      dst.(s) <- cell b s phys
    done

(* INT chunk [k] becomes a boxed chunk, its rows so far boxed: the
   fallback for a value an INT chunk cannot hold *)
let box_chunk b k =
  let vals = Array.make (Array.length b.b_sel) Value.Null in
  for phys = 0 to b.b_len - 1 do
    vals.(phys) <- cell b k phys
  done;
  b.b_cols.(k) <- vals;
  b.b_ints.(k) <- no_ints;
  b.b_nulls.(k) <- no_nulls

(* writes [v] at row [phys] of column [k], whatever its chunk *)
let[@inline] set_cell b k phys (v : Value.t) =
  if b.b_ints == all_boxed || b.b_ints.(k) == no_ints then b.b_cols.(k).(phys) <- v
  else
    match v with
    | Value.Int x ->
      b.b_ints.(k).(phys) <- x;
      mark b k phys false
    | Value.Null -> mark b k phys true
    | v ->
      box_chunk b k;
      b.b_cols.(k).(phys) <- v

(* the join's emission: live row [i] of [src], then [c]; an INT column
   of [src] moves unboxed into an INT chunk of [b] *)
let append_from b src i (c : Tuple.t) =
  let phys = b.b_len and sphys = src.b_sel.(i) in
  let wa = src.b_width in
  for k = 0 to wa - 1 do
    if b.b_ints == all_boxed || b.b_ints.(k) == no_ints then
      b.b_cols.(k).(phys) <- cell src k sphys
    else if src.b_ints != all_boxed && src.b_ints.(k) != no_ints then begin
      b.b_ints.(k).(phys) <- src.b_ints.(k).(sphys);
      mark b k phys (int_null src k sphys)
    end
    else set_cell b k phys src.b_cols.(k).(sphys)
  done;
  for k = wa to b.b_width - 1 do
    if b.b_ints == all_boxed || b.b_ints.(k) == no_ints then b.b_cols.(k).(phys) <- c.(k - wa)
    else set_cell b k phys c.(k - wa)
  done;
  b.b_sel.(b.b_live) <- phys;
  b.b_len <- phys + 1;
  b.b_live <- b.b_live + 1

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
  mutable e_ints : bool array option;  (* which columns are INT chunks *)
  mutable e_cur : t;  (* the batch being filled; [idle] when none *)
  e_ready : t Queue.t;  (* full batches, oldest first *)
  mutable e_spare : t list;
  mutable e_lent : t option;
}

(* no room, so the first push takes the slow path, which rolls it *)
let idle = create ~cap:0 0

let emitter ?ints w =
  { e_width = w; e_ints = ints; e_cur = idle; e_ready = Queue.create (); e_spare = [];
    e_lent = None }

(* the push path's slow half, when the current batch has no room: a
   full batch (or [idle]) queues and a spare or new one opens; a
   batch short of [capacity] doubles (a spare keeps its grown room) *)
let make_room em =
  let b = em.e_cur in
  if b != idle && not (full b) then grow b (b.b_len + 1)
  else begin
    if b != idle then Queue.push b em.e_ready;
    em.e_cur <-
      (match em.e_spare with
      | b :: rest ->
        em.e_spare <- rest;
        b
      | [] -> create ?ints:em.e_ints em.e_width)
  end

let[@inline] no_room b = b.b_len >= Array.length b.b_sel

let push em row =
  if no_room em.e_cur then make_room em;
  append em.e_cur row

let push_cols em row cols =
  if no_room em.e_cur then make_room em;
  append_cols em.e_cur row cols

let push_sink em s cols =
  if no_room em.e_cur then make_room em;
  append_sink em.e_cur s cols

let push_from em src i c =
  if no_room em.e_cur then make_room em;
  append_from em.e_cur src i c

let reshape em ints =
  if em.e_cur != idle || em.e_spare != [] || not (Queue.is_empty em.e_ready) then
    invalid_arg "Batch.reshape: the emitter has batches";
  em.e_ints <- Some ints

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
