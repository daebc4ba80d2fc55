(** Runtime values.

    SQL three-valued logic lives in the expression evaluator; here
    [Null] is simply a distinguished value that compares lowest, so that
    sorting and B-tree keys have a total order.  [Ext] carries an
    externally-defined (DBC) type's payload; its behaviour comes from
    the {!Datatype.registry}. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | String of string
  | Ext of string * string  (** type name, payload *)

exception Type_error of string

(** The datatype of a value; [None] for [Null]. *)
val type_of : t -> Datatype.t option

val is_null : t -> bool

(** Total order.  Ints and floats compare numerically; [registry]
    resolves comparisons of external types (payloads compare as strings
    without it). *)
val compare : ?registry:Datatype.registry -> t -> t -> int

val equal : ?registry:Datatype.registry -> t -> t -> bool

(** Hash consistent with {!equal}: values that compare equal (e.g.
    [Int 3] and [Float 3.0]) hash alike.  An [Int] up to 2^53 in
    magnitude hashes as itself, and so does a [Float] holding it; the
    hash is not mixed, so bucketed tables mix it themselves.  An [Ext]
    value hashes by its type name alone, since equality is the type's
    [ext_compare], which may equate different payloads. *)
val hash : t -> int

(** [hash_int x] is [hash (Int x)], without boxing [x]. *)
val hash_int : int -> int

val to_string : ?registry:Datatype.registry -> t -> string

(** Literal display form: strings are quoted and escaped. *)
val to_literal : t -> string

val pp : Format.formatter -> t -> unit

(** Numeric/boolean/string accessors; raise {!Type_error} on mismatch.
    [as_int] truncates floats; [as_float] widens ints. *)

val as_int : t -> int
val as_float : t -> float
val as_bool : t -> bool
val as_string : t -> string
