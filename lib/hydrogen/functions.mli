(** The function registry: the language-extension surface of Hydrogen.

    A DBC can register four kinds of functions (section 2): {e scalar}
    functions over column values, {e aggregate} functions ranging over a
    table, {e set-predicate} functions generalizing [ALL]/[ANY] (e.g.
    [MAJORITY]), and {e table} functions producing tables.  Built-ins
    are registered through the same interface. *)

open Sb_storage

exception Function_error of string

(** Formats and raises {!Function_error}. *)
val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

type scalar_fn = {
  sf_name : string;
  sf_arity : int option;  (** [None] = variadic *)
  sf_type : Datatype.t option list -> (Datatype.t option, string) result;
      (** result type given argument types ([None] = untyped/null) *)
  sf_eval : Value.t list -> Value.t;
}

(** A fresh accumulator per group; [agg_step] sees non-null argument
    values (SQL semantics: aggregates skip nulls; counting all rows is
    handled by the executor). *)
type agg_instance = {
  agg_step : Value.t -> unit;
  agg_result : unit -> Value.t;
}

type aggregate_fn = {
  af_name : string;
  af_type : Datatype.t option -> (Datatype.t option, string) result;
  af_make : Datatype.registry -> agg_instance;
      (** a fresh accumulator; the catalog's datatype registry orders
          extension values (as [min] and [max] do) *)
}

(** Decides a comparison's truth over a whole set: [spf_combine] folds
    the three-valued truth of the comparison for each element
    ([None] = unknown). *)
type set_predicate_fn = {
  spf_name : string;
  spf_combine : bool option Seq.t -> bool option;
}

type table_fn = {
  tf_name : string;
  tf_type :
    arg_tables:Schema.t list ->
    arg_values:Datatype.t option list ->
    (Schema.t, string) result;
  tf_eval :
    arg_tables:(Schema.t * Tuple.t Seq.t) list ->
    arg_values:Value.t list ->
    Tuple.t Seq.t;
}

type t

(** Registration replaces any previous function of the same name
    (case-insensitive). *)

val register_scalar : t -> scalar_fn -> unit
val register_aggregate : t -> aggregate_fn -> unit
val register_set_predicate : t -> set_predicate_fn -> unit
val register_table_fn : t -> table_fn -> unit

val find_scalar : t -> string -> scalar_fn option
val find_aggregate : t -> string -> aggregate_fn option
val find_set_predicate : t -> string -> set_predicate_fn option
val find_table_fn : t -> string -> table_fn option

val is_aggregate : t -> string -> bool
val is_table_fn : t -> string -> bool

(** A registry pre-loaded with the built-ins: scalars (abs, mod, upper,
    lower, length, substr, coalesce, sqrt, power, round, floor, ceil,
    sign, trim, replace, greatest, least, nullif) and aggregates (count,
    sum, avg, min, max). *)
val create : unit -> t
