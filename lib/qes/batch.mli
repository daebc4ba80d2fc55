(** Columnar row batches with selection vectors — the one interface
    between QES operators.

    A batch holds up to {!capacity} rows column-chunked, plus a
    {e selection vector}: the physical indices of the rows still live.
    Filters refine the selection in place instead of copying rows;
    materializing operators read through it.  A batch's room starts at
    16 rows and doubles, as rows arrive, up to {!capacity}: a statement
    over a few dozen rows allocates arrays of a few dozen slots, which
    stay on the minor heap.  A batch keeps its grown room when its
    producer refills it.

    {b Typed chunks.}  A column chunk is either an array of
    {!Sb_storage.Value.t} or, for an INT column, an unboxed [int array]
    whose NULL marks are allocated on its first NULL.  Only the scan
    produces INT chunks ({!emitter} [~ints], {!push_sink}); every other
    producer writes boxed chunks, through today's paths.  {!value},
    {!get}, {!blit_row} and {!blit_slots} box an INT chunk's values on
    read, so an operator that knows nothing of typed chunks works
    unchanged; GROUP BY aggregates, DISTINCT and GROUP keys and the hash
    join's probe read them unboxed through {!is_int}, {!null_at} and
    {!int_at}.  A batch without INT chunks pays one test per read call,
    not per value.

    {b Lifetime.}  A producer owns the batches it emits and refills them:
    a batch is valid until its consumer pulls the next one,
    and a consumer that keeps rows past that point copies them.  While
    it holds a batch, the consumer may mutate it (selection refinement,
    truncation) or take it over ({!select}) and pass it on; batches are
    never shared between consumers.  So a stream of batches costs one
    batch per operator instance (a few when one step of a producer fills
    several; see {!produce}), not one per batch.

    Rows leave batches ({!to_seq}) only where they are materialized:
    at the plan root, in subquery materializations, and as
    table-function arguments.  The join build copies its rows with
    {!get}. *)

open Sb_storage

type t

(** Rows in a full batch (1024): producers cut their batches at this
    size, and no batch holds more. *)
val capacity : int

(** [owner w] is a producer's one batch of width [w]: every call
    [owner w n] empties and returns the same batch, created on the first
    call, with room for [n] rows ([n <= capacity]) — so a producer
    reserves once per batch, and {!append_init} and {!pad} check no
    room per row. *)
val owner : int -> int -> t

(** Live rows (after selection refinement). *)
val count : t -> int

(** [append_init b f] appends the row [f 0 .. f (width-1)] without an
    intermediate array.  The row must fit the room {!owner} reserved. *)
val append_init : t -> (int -> Value.t) -> unit

(** [select b cols] is the column-only projection of [b] onto its
    [cols] columns, without copying: the result shares [b]'s column
    chunks (typed ones included) and selection vector, so it takes [b] over — the caller must
    not use [b] again. *)
val select : t -> int array -> t

(** [pad b n] appends [n] blank rows (the width-0 projection: only the
    row count carries information).  The rows must fit the room
    {!owner} reserved. *)
val pad : t -> int -> unit

(** [value b ~col i] reads column [col] of the [i]th {e live} row. *)
val value : t -> col:int -> int -> Value.t

(** [is_int b ~col]: column [col] of [b] is an unboxed INT chunk. *)
val is_int : t -> col:int -> bool

(** [null_at b ~col i]: column [col] of the [i]th live row is NULL
    (for any chunk). *)
val null_at : t -> col:int -> int -> bool

(** [int_at b ~col i] reads an INT chunk's [i]th live row unboxed; the
    result means nothing when the row's value is NULL.  [col] must be an
    INT chunk ({!is_int}). *)
val int_at : t -> col:int -> int -> int

(** Materializes the [i]th live row as a fresh tuple. *)
val get : t -> int -> Tuple.t

(** Copies the [i]th live row into [dst] (a scratch row for expression
    evaluation; [dst] must have length [width]). *)
val blit_row : t -> int -> Value.t array -> unit

(** [blit_slots b i dst slots] copies only the [slots] columns of the
    [i]th live row into [dst] — enough for expressions that read
    nothing else. *)
val blit_slots : t -> int -> Value.t array -> int array -> unit

(** [keep b pred] refines the selection in place: live row [i] survives
    iff [pred i].  [pred] is called in order with the pre-refinement
    live indices. *)
val keep : t -> (int -> bool) -> unit

(** Keeps only the first [n] live rows. *)
val truncate : t -> int -> unit

(** {1 Producers} *)

(** A producer's output batches: rows are pushed one at a time and
    leave in batches of exactly {!capacity} rows (the last may be
    short).  Rows pushed past a full batch open the next one, so a
    producer may push any number of rows per step. *)
type emitter

(** [emitter ?ints w]: batches of width [w]; column [k] is an INT chunk
    when [ints.(k)] (no column when [ints] is absent). *)
val emitter : ?ints:bool array -> int -> emitter

val push : emitter -> Tuple.t -> unit

(** [push_cols em row cols] pushes the projection
    [row.(cols.(0)) .. row.(cols.(k-1))] (an index fetch's base-column
    projection) without a per-row closure.  [em]'s batches must be
    boxed. *)
val push_cols : emitter -> Tuple.t -> int array -> unit

(** [push_sink em s cols] pushes the sink's fields [cols.(0) ..
    cols.(k-1)] (the scan's projection): into an INT chunk from
    [s.ints] and [s.nulls], into a boxed chunk from [s.row].  Each INT
    chunk's field must have been decoded [Unboxed], each boxed one
    [Boxed]. *)
val push_sink : emitter -> Row_codec.sink -> int array -> unit

(** [reshape em ints]: the batches [em] opens have an INT chunk at
    column [k] when [ints.(k)].
    @raise Invalid_argument once [em] has opened a batch. *)
val reshape : emitter -> bool array -> unit

(** [push_from em b i c] pushes live row [i] of [b] followed by [c] (a
    join's outer and inner halves): an INT chunk of [b] moves unboxed
    into an INT chunk of [em]'s batch.  A value an INT chunk cannot hold
    (neither Int nor NULL) turns that chunk boxed. *)
val push_from : emitter -> t -> int -> Tuple.t -> unit

(** [filled em]: [em] holds a full batch, so the next pull will not
    step again; a step that can stop between rows stops here. *)
val filled : emitter -> bool

(** [produce em step] is [em]'s batches: each pull calls [step] (which
    pushes rows into [em] and returns [false] once its input is
    exhausted) until a batch is full or the input is exhausted.  Empty
    batches are never produced.  The batch lent to the consumer is
    refilled on its next pull, so a step that pushes k batches' worth of
    rows costs at most k + 1 batches. *)
val produce : emitter -> (unit -> bool) -> t Seq.t

(** Chunks a tuple stream into batches (lazily, through an emitter). *)
val of_seq : width:int -> Tuple.t Seq.t -> t Seq.t

val of_rows : width:int -> Tuple.t list -> t Seq.t

(** Flattens batches back into tuples (fresh arrays). *)
val to_seq : t Seq.t -> Tuple.t Seq.t
