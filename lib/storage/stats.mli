(** Table and column statistics, the optimizer's cost-model input
    ("starting with statistics on stored tables", section 6). *)

type column_stats = {
  cs_distinct : int;
  cs_nulls : int;
  cs_min : Value.t option;
  cs_max : Value.t option;
  cs_histogram : Value.t array;
      (** equi-depth bucket upper bounds over non-null values *)
}

type t = {
  ts_cardinality : int;
  ts_pages : int;
  ts_columns : column_stats array;
}

val empty_column : column_stats
val empty : t

val histogram_buckets : int

(** Computes statistics from a full scan. *)
val analyze :
  ?registry:Datatype.registry -> schema:Schema.t -> pages:int -> Tuple.t Seq.t -> t

(** Fallbacks used when no statistics are available. *)
val default_eq_selectivity : float

val default_range_selectivity : float

(** Fraction of rows whose column [i] equals a value (1/distinct). *)
val eq_selectivity : t -> int -> float

(** Fraction of rows with column [i] related to the bound, from the
    equi-depth histogram. *)
val range_selectivity :
  ?registry:Datatype.registry ->
  t ->
  int ->
  op:[ `Lt | `Le | `Gt | `Ge ] ->
  Value.t ->
  float

(** Distinct count of column [i] (estimated when unknown). *)
val distinct_of : t -> int -> int

val pp : Format.formatter -> t -> unit
