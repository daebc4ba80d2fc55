(** Random workload generation: catalogs, data, and Hydrogen queries.

    Everything is drawn from a {!Sprng} stream, so a catalog or query is
    a pure function of its seed.  Generated queries are {e typed}
    (arithmetic only over numeric columns, comparisons between
    comparable operands — INT and FLOAT mix in comparisons, join keys
    and set-operation columns, so key equality across numeric types is
    exercised — aggregate arguments matched to their signatures) so
    that semantic failures stay rare and every
    discrepancy the oracle reports is interesting.  Two more contracts
    the test suite enforces for every generated query:

    - round-trip: [Parser.query_text (Pretty.with_query_to_string q)]
      is structurally equal to [q];
    - buildability: {!Sb_qgm.Builder.build} accepts it (given the
      generated catalog and the outer-join extension) and the resulting
      QGM passes {!Sb_qgm.Check.check}.

    Error-prone constructs are deliberately avoided — scalar subqueries
    always aggregate (cardinality 1), literal divisors are non-zero —
    because a runtime error that one plan reaches and another does not
    would drown the oracle in false positives. *)

open Sb_storage
module Ast = Sb_hydrogen.Ast

type col = {
  c_name : string;
  c_type : Datatype.t;
  c_nullable : bool;
  c_unique : bool;
}

type table = {
  t_name : string;
  t_cols : col list;
  t_rows : Value.t list list;
  t_index : string option;  (** a btree-indexed column, when present *)
}

type catalog = table list

(** 2–4 small tables (0–28 rows each) with skewed, NULL-heavy data:
    an INT NOT NULL key (sometimes UNIQUE, sometimes indexed) plus a
    random mix of INT / FLOAT / STRING / BOOL columns. *)
val gen_catalog : Sprng.t -> catalog

(** The DDL + DML script materializing a catalog: CREATE TABLE,
    chunked INSERTs, CREATE INDEX, and a final ANALYZE. *)
val ddl_of_catalog : catalog -> string list

(** A random query over the catalog: joins (inner and outer/PF),
    subqueries (EXISTS / IN / quantified comparisons / scalar
    aggregates, optionally correlated), GROUP BY / HAVING, set
    operations, WITH prefixes, DISTINCT, ORDER BY, LIMIT, and NULL-rich
    predicates. *)
val gen_query : Sprng.t -> catalog -> Ast.with_query

(** [Pretty.with_query_to_string], re-exported for callers that store
    query text next to the AST. *)
val query_text : Ast.with_query -> string

(** Number of quantifiers a query contributes: FROM items plus
    subquery predicates, counted recursively (the shrinker's size
    measure, and the acceptance bound for shrunk repros). *)
val quantifier_count : Ast.with_query -> int

(** [n] mostly-valid INSERT / UPDATE / DELETE statements over the
    catalog's tables.  Unique key columns draw fresh monotone values so
    inserts rarely collide with the seed rows; UPDATE never SETs a
    unique column.  The crash fuzzer runs each statement as one
    implicit transaction. *)
val gen_dml_workload : Sprng.t -> catalog -> n:int -> string list
