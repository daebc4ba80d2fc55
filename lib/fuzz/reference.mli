(** A reference evaluator over canonical QGM: the fuzz and test oracle.

    [run db text] parses and builds the query with the database's own
    front end, then interprets the QGM as built — before any rewrite —
    directly against the stored tables.  It shares no rewrite, STAR,
    QES or hashing code with the engine it checks:

    - base tables are read through [Table_store.scan];
    - a SELECT box runs nested loops over its F setformers in
      quantifier order; a predicate on one setformer alone is tested on
      every row of it first (so any row the engine can test, pushed
      down or not, the reference tests too), and the others as soon as
      their setformers are bound;
    - under a PF (preserve) setformer every other predicate is a join
      condition, and an unmatched preserved row is kept once with the
      null-producing setformers bound to NULL rows;
    - E, A, S and set-predicate quantifiers are evaluated inside the
      expressions that consume them, every row tested, with correlated
      columns read from the environment of bound quantifier rows;
    - GROUP BY, UNION/INTERSECT/EXCEPT (with and without ALL), VALUES,
      DISTINCT, ORDER BY and LIMIT follow SQL; a
      recursive box (WITH RECURSIVE over seed UNION [ALL] step) is a
      semi-naive fixpoint over its QGM cycle.

    Predicates use three-valued logic, results are bags, and every key
    equality (grouping, DISTINCT, set operations) is [Value.compare]
    under the catalog's datatype registry, found by sorting and list
    scans.  Rows produced are charged to a governor over the database's
    limits, so a runaway recursion fails with a [Resource] error. *)

type outcome =
  | Rows of Sb_storage.Tuple.t list
  | Failed of Sb_resil.Err.t
      (** classified as the engine would classify it *)
  | Unsupported of string
      (** a QGM shape the reference does not interpret (table
          functions, CHOOSE and extension boxes, an outer join with
          several preserved setformers, ...) *)

val run : Starburst.t -> string -> outcome
