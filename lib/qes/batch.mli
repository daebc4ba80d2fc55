(** Columnar row batches with selection vectors — the unit of exchange
    between vectorized QES operators.

    A batch holds up to {!capacity} rows column-chunked ([width] arrays
    of {!Sb_storage.Value.t}), plus a {e selection vector}: the physical
    indices of the rows still live.  Filters refine the selection in
    place instead of copying rows; materializing operators read through
    it.

    {b Lifetime.}  A producer owns the batches it emits and refills them
    ({!reset}): a batch is valid until its consumer pulls the next one,
    and a consumer that keeps rows past that point copies them.  While
    it holds a batch, the consumer may mutate it (selection refinement,
    truncation) or take it over ({!select}) and pass it on; batches are
    never shared between consumers.  So a stream of batches costs one
    batch per operator instance, not one per batch.

    [Tuple.t Seq.t] remains the lingua franca at the plan root and at
    operators that are not vectorized; {!of_seq} and {!to_seq} are the
    adapters between the two worlds. *)

open Sb_storage

type t

(** Rows per batch (1024). *)
val capacity : int

val create : ?cap:int -> int -> t

val width : t -> int

(** Empties [b] for refilling: no rows, no live rows.  Views taken
    over from [b] ({!select}) are invalidated with it. *)
val reset : t -> unit

(** [owner w] is a producer's one batch of width [w]: every call empties
    and returns the same batch, created on the first call. *)
val owner : int -> unit -> t

(** Live rows (after selection refinement). *)
val count : t -> int

(** No more physical rows fit. *)
val full : t -> bool

(** Appends a row (copied into the columns).  The row becomes live. *)
val append : t -> Tuple.t -> unit

(** [append_init b f] appends the row [f 0 .. f (width-1)] without an
    intermediate array. *)
val append_init : t -> (int -> Value.t) -> unit

(** [append_concat b a c] appends the row [a @ c] (a join's outer and
    inner halves) without materializing the concatenation;
    [length a + length c] must equal [width b]. *)
val append_concat : t -> Tuple.t -> Tuple.t -> unit

(** [append_cols b row cols] appends the row
    [row.(cols.(0)) .. row.(cols.(width-1))] (the scan's base-column
    projection) without a per-row closure. *)
val append_cols : t -> Tuple.t -> int array -> unit

(** [select b cols] is the column-only projection of [b] onto its
    [cols] columns, without copying: the result shares [b]'s column
    chunks and selection vector, so it takes [b] over — the caller must
    not use [b] again. *)
val select : t -> int array -> t

(** [pad b n] appends [n] blank rows (the width-0 projection: only the
    row count carries information).  [n] must fit the batch. *)
val pad : t -> int -> unit

(** [value b ~col i] reads column [col] of the [i]th {e live} row. *)
val value : t -> col:int -> int -> Value.t

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

(** Chunks a tuple stream into batches (lazily; empty batches are never
    produced).  One batch is refilled for every pull. *)
val of_seq : width:int -> Tuple.t Seq.t -> t Seq.t

val of_rows : width:int -> Tuple.t list -> t Seq.t

(** Flattens batches back into tuples (fresh arrays). *)
val to_seq : t Seq.t -> Tuple.t Seq.t
