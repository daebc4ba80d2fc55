(** Serialization of tuples to byte records and back.

    Two codecs: the {e variable-length} codec (a tagged encoding
    handling any value) and the {e fixed-length} codec used by the
    fixed-length storage manager (INT / FLOAT / BOOL columns plus a null
    bitmap, with a width computable from the schema alone).

    Both decode a record in place into a {!sink}, field by field as the
    sink's {!field} modes ask: skipped, boxed into a {!Tuple.t}, or (INT
    fields) written unboxed into an [int array] with NULL marks.  The
    variable-length codec has one record walker, {!decode_into}: one
    range check of the record against its buffer, then one pass over
    the fields with unchecked reads, each bounded by the record's end,
    that decodes the unboxed fields and notes where the boxed ones
    start; the boxed fields are then built from those checked offsets.
    A decode that writes no boxed field allocates nothing, and, once a
    sink has decoded a few dozen short STRINGs, a boxed one equal to one
    the sink boxed lately for the same field shares its value. *)

(** Variable-length encoding of any tuple. *)
val encode : Tuple.t -> string

val decode : string -> Tuple.t

(** A record written a field at a time, for one too large to build as a
    tuple first: its field count, then each field — the bytes {!encode}
    writes for a tuple of those fields. *)
val add_count : Buffer.t -> int -> unit

val add_field : Buffer.t -> Value.t -> unit

(** What a decode does with one field. *)
type field =
  | Skip  (** skipped by tag and length; its sink slots are untouched *)
  | Boxed  (** written into [row] *)
  | Unboxed
      (** an INT column's field: its value into [ints] and its NULL
          mark into [nulls] ([ints] is left as it was for a NULL) *)

(** Where a decode writes a record's fields.  [row], [ints] and
    [nulls] are indexed by field number and have the length of
    [fields], the widest record the sink accepts ([ints] and [nulls]
    are empty when no field is [Unboxed]); the caller reads them after
    each decode, before the next one overwrites them. *)
type sink = private {
  fields : field array;
  row : Tuple.t;
  ints : int array;
  nulls : bool array;
  scratch : scratch;
      (** the decoder's own state, among it the cache of short STRING
          values it boxed lately, per [Boxed] field, that a record
          holding the same bytes shares (it opens after the sink's
          first 64 short strings, and a field that misses far more
          often than it hits stops using it) *)
}

and scratch

(** A sink for the given field modes ([row] all [Null], [ints] all 0,
    [nulls] all false). *)
val sink : field array -> sink

(** [decode_into s b ~off ~len] decodes the variable-length record held
    in the [len] bytes at offset [off] of [b] into [s].
    @raise Sb_resil.Err.Error (stage [Storage]) on a corrupt record,
    whether or not the corrupt field is skipped: a record outside [b],
    an unknown tag, a length or field running past [off + len], or more
    fields than [s] holds; also when an [Unboxed] field holds neither an
    INT nor NULL. *)
val decode_into : sink -> Bytes.t -> off:int -> len:int -> unit

(** Width in bytes of a fixed-length record for [schema], or [None] if
    the schema contains variable-length columns. *)
val fixed_width : Schema.t -> int option

(** @raise Sb_resil.Err.Error (stage [Storage]) on variable-length columns. *)
val encode_fixed : schema:Schema.t -> Tuple.t -> string

val decode_fixed : schema:Schema.t -> string -> Tuple.t

(** A fixed-length schema's field offsets, computed once. *)
type layout

(** @raise Sb_resil.Err.Error (stage [Storage]) on variable-length
    columns. *)
val fixed_layout : Schema.t -> layout

(** [decode_fixed_into l s b off] is the fixed-length counterpart of
    {!decode_into} for the record at offset [off] of [b]: field offsets
    are constants of [l], so skipped fields cost nothing.
    @raise Sb_resil.Err.Error (stage [Storage]) when the record lies
    outside [b], when [s] holds fewer fields than [l], or when an
    [Unboxed] field is not an INT column. *)
val decode_fixed_into : layout -> sink -> Bytes.t -> int -> unit
