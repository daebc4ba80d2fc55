(** The Query Evaluation System (section 7).

    Plans are interpreted against the database through an algebraic,
    stream-based interface, one body per operator, and every operator
    yields columnar row batches with selection vectors ({!Batch}); rows
    leave batches only at the plan root, in materializations
    (evaluate-on-demand, hash build sides) and as table-function
    arguments.  Every keyed structure decides key equality by
    [Value.compare] under the catalog's datatype registry.  Join
    {e methods} are control structures — one join body serves them
    all, each method only deciding which inner rows match an outer row
    — and join {e kinds} are the functions performed during the join:
    one operator handles many kinds, new kinds register here, and kind
    implementations always see materialized tuples.  Subqueries run
    through a single uniform {e evaluate-on-demand} mechanism with a
    cache keyed on correlation values.  The join stops probing outer
    rows once an output batch is full, so past it it buffers at most
    one outer row's matches; a LIMIT above a join or a scan may read up to one
    batch of the outer input, or one page, past the rows it returns.

    Runtime failures raise structured {!Sb_resil.Err} values with
    stage [Exec]. *)

open Sb_storage
module Functions = Sb_hydrogen.Functions

type counters = {
  mutable c_scanned : int;  (** tuples read from base tables *)
  mutable c_index_probes : int;
  mutable c_shipped : int;
  mutable c_sorted : int;
  mutable c_sub_evals : int;  (** subquery (re)materializations *)
  mutable c_sub_cache_hits : int;
  mutable c_or_branch_evals : int;
  mutable c_fixpoint_rounds : int;
  mutable c_batches : int;  (** batches emitted by operators *)
  mutable c_output : int;
}

val fresh_counters : unit -> counters

(** An extension join kind: given the outer tuple, the candidate inner
    tuples (pre-filtered by equi-columns under hash/merge), and the kind
    predicate over the concatenated row, produce the output rows. *)
type kind_impl =
  outer:Tuple.t ->
  inners:Tuple.t list ->
  pred:(Tuple.t -> bool option) ->
  inner_width:int ->
  Tuple.t list

type db = {
  x_cat : Catalog.t;
  x_fns : Functions.t;
  x_kinds : (string, kind_impl) Hashtbl.t;
  mutable x_demand_cache : bool;
      (** evaluate-on-demand correlation caching (on by default; the
          bench harness turns it off to measure its effect) *)
}

val make_db : catalog:Catalog.t -> functions:Functions.t -> db

val register_join_kind : db -> string -> kind_impl -> unit

(** Runs a plan to completion.  [hosts] binds host variables.  [gov] is
    the per-query resource governor — operator instantiations and every
    intermediate/output row are charged to it; when omitted a fresh
    governor over {!Sb_resil.Limits.default} applies, so the finite
    intermediate-row ceiling holds even outside Corona. *)
val run :
  ?hosts:(string * Value.t) list ->
  ?counters:counters ->
  ?gov:Sb_resil.Limits.gov ->
  db ->
  Sb_optimizer.Plan.plan ->
  Tuple.t list

(** Per-operator runtime accounting for EXPLAIN ANALYZE: rows produced
    and batches emitted (across all re-evaluations, e.g. of a join's
    inner), and inclusive elapsed time. *)
type op_stats = {
  mutable os_rows : int;
  mutable os_batches : int;
  mutable os_ns : int64;
}

(** Like {!run}, but with per-operator accounting: also returns a lookup
    from plan node (by physical identity, including subplans embedded in
    expressions) to its statistics. *)
val run_analyzed :
  ?hosts:(string * Value.t) list ->
  ?counters:counters ->
  ?gov:Sb_resil.Limits.gov ->
  db ->
  Sb_optimizer.Plan.plan ->
  Tuple.t list * (Sb_optimizer.Plan.plan -> op_stats option)

(** Evaluates a standalone runtime expression over one row (used by the
    facade for UPDATE/DELETE predicates and SET expressions). *)
val eval_row :
  ?hosts:(string * Value.t) list ->
  db ->
  row:Tuple.t ->
  Sb_optimizer.Plan.rexpr ->
  Value.t

(** The row test a batch Scan or Filter compiles once per instance from
    its conjunction of predicates: [true] exactly when every predicate
    evaluates to TRUE under {!eval_row}.  [RCol c <cmp> k], with [k] a
    literal, host variable or parameter, compares unboxed when the
    runtime tags agree (Int/Int, Float/Float under [Float.compare],
    String/String); [k] is resolved on the first row tested, so an
    unbound host variable raises only once a row reaches the test. *)
val row_test :
  ?hosts:(string * Value.t) list ->
  ?params:Value.t array ->
  db ->
  Sb_optimizer.Plan.rexpr list ->
  Tuple.t ->
  bool
