(** Serialization of tuples to byte records and back.

    Two codecs: the {e variable-length} codec (a tagged encoding
    handling any value) and the {e fixed-length} codec used by the
    fixed-length storage manager (INT / FLOAT / BOOL columns plus a null
    bitmap, with a width computable from the schema alone). *)

(** Variable-length encoding of any tuple. *)
val encode : Tuple.t -> string

val decode : string -> Tuple.t

(** [decode_into ~needed b ~off ~len row] decodes the variable-length
    record held in the [len] bytes at offset [off] of [b] straight into
    [row], writing only the fields [i] with [needed.(i)]; the others are
    skipped by tag and length without being materialized, and their
    slots of [row] are left as they were.
    @raise Sb_resil.Err.Error (stage [Storage]) on a corrupt record,
    needed field or not: an unknown tag, a length or field running past
    [off + len], or more fields than [needed] or [row] holds. *)
val decode_into :
  needed:bool array -> Bytes.t -> off:int -> len:int -> Tuple.t -> unit

(** Width in bytes of a fixed-length record for [schema], or [None] if
    the schema contains variable-length columns. *)
val fixed_width : Schema.t -> int option

(** @raise Sb_resil.Err.Error (stage [Storage]) on variable-length columns. *)
val encode_fixed : schema:Schema.t -> Tuple.t -> string

val decode_fixed : schema:Schema.t -> string -> Tuple.t

(** The fixed-length counterpart of {!decode_into}: field offsets follow
    from [schema], so unneeded columns cost nothing.
    @raise Sb_resil.Err.Error (stage [Storage]) on variable-length
    columns. *)
val decode_fixed_into :
  schema:Schema.t -> needed:bool array -> Bytes.t -> int -> Tuple.t -> unit
