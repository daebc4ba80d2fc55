(** The differential and metamorphic oracle.

    One fuzz case runs a single generated query through a matrix of
    independently configured databases (each a fresh {!Starburst.create}
    with the generated catalog replayed) and cross-checks every result
    against the {e reference}:

    - {e reference}: {!Reference.run}, an interpreter of the canonical
      QGM that shares no rewrite, STAR, QES or hashing code with the
      engine, so none of their bugs can reach the expected answer;
    - {e rewritten}: the full rule set — hand-written closures plus the
      verified DSL ports of the predicate and redundant-join classes —
      and default cost-based search;
    - {e greedy}: full rewrite but the degraded greedy STAR strategy the
      pipeline falls back to under optimizer failures;
    - {e paranoid}: sanitizer mode — per-firing rule audits, plan
      validation, and Corona's own internal differential must all stay
      silent;
    - {e chaos}: a seeded fault-injection plan on storage; the run must
      either match the reference or fail with a structured, retryable
      {!Sb_resil.Err.t} — never a wrong answer, never a raw exception;
    - {e unrewritten}: rewrite off — the canonical QGM goes
      straight to the optimizer, so a divergence (row bags, NULL
      semantics, the metamorphic checks below) is an optimizer or
      executor bug.

    An error in the reference alone — a runtime error (the reference
    tests every row, so it can reach one a plan legitimately avoids) or
    a resource limit — while a configuration answers is not a
    discrepancy; the reverse is, except for resource limits and chaos's
    retryable errors.  A query the reference does not interpret is
    counted as {!Unsupported} and not checked.

    Results are compared as bags ({!Sb_verify.Rule_audit.compare_results}),
    so plan-dependent row order is never a false positive.  Queries with
    a top-level LIMIT are compared on their LIMIT-stripped core (a LIMIT
    without a total order may legitimately pick different rows per
    plan); the limited output is then checked metamorphically: it must
    be a sub-bag of the unlimited output and respect the bound.  A
    second metamorphic check conjoins a literal-only tautology (proved
    TRUE by {!Sb_analysis.Prover.const_truth}) onto the WHERE clause and
    requires the result bag to be unchanged.  Both metamorphic checks
    run on the rewritten and the unrewritten leg. *)

module Ast = Sb_hydrogen.Ast

type config =
  | Reference  (** {!Reference.run} over a plain database *)
  | Rewritten  (** full rewrite, cost-based search *)
  | Greedy  (** full rewrite, forced degraded greedy strategy *)
  | Paranoid  (** sanitizer mode: audits + plan checks + differential *)
  | Chaos of int  (** fault injection at the given seed *)
  | Unrewritten  (** rewrite off ([rewrite_enabled = false]) *)

val config_name : config -> string

(** The standard matrix, reference first. *)
val configs : chaos_seed:int -> config list

type outcome =
  | Rows of Sb_storage.Tuple.t list
  | Failed of Sb_resil.Err.t

(** A fresh database loaded with the DDL script (one statement per list
    element — {!Gen.ddl_of_catalog} for generated cases, the replayed
    script for corpus cases) and configured as [config]; [inject] (used
    by the rule-soundness acceptance test to plant a deliberately broken
    rewrite rule) is applied to every configuration {e except}
    [Reference] and [Unrewritten], which fire no rule. *)
val fresh_db :
  ?inject:(Starburst.t -> unit) ->
  ddl:string list ->
  config ->
  Starburst.t

(** Runs one query text, classifying every failure as {!Failed} — an
    exception escaping here is itself a bug the oracle reports. *)
val run_outcome : Starburst.t -> string -> outcome

type verdict =
  | Pass
  | Rejected of string
      (** the reference itself refused the query (parse/semantic): a
          generator imperfection, counted but not a discrepancy *)
  | Unsupported of string
      (** the reference does not interpret the query's QGM: counted,
          not checked *)
  | Fail of { config : string; detail : string }

(** Runs the full matrix plus the metamorphic checks for one case.
    Pure in its arguments — the shrinker re-invokes it verbatim. *)
val check_case :
  ?inject:(Starburst.t -> unit) ->
  ddl:string list ->
  chaos_seed:int ->
  Ast.with_query ->
  verdict
