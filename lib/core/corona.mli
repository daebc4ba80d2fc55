(** Corona, the Starburst query language processor: the full pipeline of
    the paper's Figure 1 — parse → QGM (with semantic analysis) → query
    rewrite → cost-based plan optimization → plan refinement →
    execution — over the Core data manager, in one handle.

    All of this module is re-exported by {!Starburst}, so application
    code normally writes [Starburst.create] / [Starburst.run]. *)

open Sb_storage
module Ast = Sb_hydrogen.Ast
module Parser = Sb_hydrogen.Parser
module Pretty = Sb_hydrogen.Pretty
module Functions = Sb_hydrogen.Functions
module Qgm = Sb_qgm.Qgm
module Builder = Sb_qgm.Builder
module Check = Sb_qgm.Check
module Qgm_print = Sb_qgm.Print
module Rule = Sb_rewrite.Rule
module Engine = Sb_rewrite.Engine
module Base_rules = Sb_ruledsl.Base_rules
module Rule_dsl = Sb_ruledsl.Dsl
module Rule_compile = Sb_ruledsl.Compile
module Rule_verify = Sb_ruledsl.Verify
module Plan = Sb_optimizer.Plan
module Star = Sb_optimizer.Star
module Generator = Sb_optimizer.Generator
module Exec = Sb_qes.Exec
module Trace = Sb_obs.Trace
module Metrics = Sb_obs.Metrics
module Plan_check = Sb_verify.Plan_check
module Rule_audit = Sb_verify.Rule_audit
module Lint = Sb_verify.Lint
module Err = Sb_resil.Err
module Limits = Sb_resil.Limits
module Faults = Sb_resil.Faults

(** Every failure escaping {!run} / {!run_script} is a structured
    {!Err.t}: classified by pipeline stage, carrying the statement
    text, and flagged retryable when it was a transient fault. *)
exception Error of Err.t

(** A compiled query: "these two stages may be separated in time, since
    the result of the compilation stage can be stored for future use"
    (section 3).  Host variables are bound at execution time, so one
    prepared plan serves many parameter values. *)
type prepared = {
  prep_text : string;
  prep_columns : string list;
  prep_plan : Plan.plan;
}

(** One change of the in-flight statement: what its [Commit] record
    will log, and the rid the change left its row at (a delete's is the
    rid it freed), kept unboxed for rollback. *)
type change = { page : int; slot : int; logged : Wal.change }

(** One session of a database.  The fields up to [exec_db] are the
    database's, shared by reference by every {!session}; the rest are
    the session's own.  Fields are exposed for extensions, tests and
    instrumentation; ordinary use goes through the functions below. *)
type t = {
  catalog : Catalog.t;
  plan_cache : prepared Plan_cache.t;
  functions : Functions.t;
  builder_cfg : Builder.config;  (** holds the enabled operations *)
  rules : Rule.set;  (** with each rule's fire and attempt counts *)
  dsl_statuses : (string, Rule_verify.status) Hashtbl.t;
      (** verification status of every DSL-compiled rule, by name *)
  exec_db : Exec.db;  (** holds the join kinds *)
  optimizer : Generator.t;
      (** the session's search state over the database's STARs *)
  mutable rewrite_enabled : bool;
  mutable paranoid : bool;
      (** sanitizer mode ([STARBURST_PARANOID=1] / [SET paranoid = on]):
          per-firing rule audits ({!Rule_audit.instrument}), plan
          validation after optimization ({!Plan_check.assert_valid}),
          and the differential oracle on every SELECT, cached or not *)
  mutable hosts : (string * Value.t) list;  (** host-variable bindings *)
  mutable last_counters : Exec.counters;
  mutable last_rewrite : Engine.stats option;
  mutable tracer : Trace.t;  (** {!Trace.noop} unless tracing is on *)
  stage_ns : (string, int64) Hashtbl.t;
      (** elapsed time of each pipeline stage's most recent run, by stage
          name — recorded whether or not tracing is on *)
  limits : Limits.t;  (** per-query resource limits (SET limit_<name>) *)
  mutable last_gov : Limits.gov;  (** governor of the current/last query *)
  mutable last_degraded : string option;
      (** why the last statement fell back to a degraded compilation *)
  (* -- durability: every DML statement is an implicit transaction -- *)
  mutable txn_changes : change list;
      (** the in-flight statement's changes, newest first: its [Commit]
          record when it succeeds, its rollback when it fails *)
  mutable txn_replaying : bool;
      (** recovery replay in progress: suppress logging and the
          needs-recovery gate *)
  mutable last_txn : int;
      (** the last committed transaction, named by its [Commit] LSN *)
}

(** Execution outcome of one statement. *)
type result =
  | Rows of { columns : string list; rows : Tuple.t list }
  | Affected of int
  | Message of string

(** A fresh database with the base rule set, the base STAR array, the
    built-in storage managers, access methods and functions installed.
    [limits] seeds the per-query resource governor; when omitted,
    {!Limits.default} with [STARBURST_LIMITS] applied on top. *)
val create : ?limits:Limits.t -> unit -> t

(** A new session of [t]'s database: it shares the database's fields
    and the optimizer's STAR array, probe matchers and select handlers
    with [t], so extensions installed once reach it.  The session's
    fields start as in {!create}, with [limits]. *)
val session : ?limits:Limits.t -> t -> t

(** Binds a host-language variable for subsequent executions. *)
val bind_host : t -> string -> Value.t -> unit

(** Execution counters of the most recent query. *)
val counters : t -> Exec.counters

(** Rewrite statistics of the most recent rewritten query. *)
val last_rewrite : t -> Engine.stats option

(** {1 The rule DSL}

    Declarative rewrite rules ({!Sb_ruledsl.Dsl.rule}) are compiled to
    ordinary {!Rule.t}s at registration, after a static verification
    pass: metavariable scoping, then soundness obligations discharged
    through {!Sb_analysis.Prover} under schema-only facts.  A rule is
    [Verified] (all obligations proved), [Conditional] (runtime guards
    auto-inserted for the unproved ones) or [Rejected] (registration
    refused with a counterexample sketch). *)

(** Compiles, verifies and registers a DSL rule; returns its status.
    @raise Error (semantic) when the verifier rejects the rule — the
    message names the failed obligation and the counterexample sketch. *)
val register_dsl_rule : t -> Rule_dsl.rule -> Rule_verify.status

(** The database's per-rule [(name, (fires, attempts))] rows, sorted by
    name — the input to {!Sb_verify.Lint.lint_rules}. *)
val rule_stats : t -> (string * (int * int)) list

(** The [EXPLAIN RULES] / shell [\rules] report: every registered rule
    with class, priority, origin, verification status and the
    database's fire/attempt counts, plus dead-rule lints. *)
val rules_report : t -> string

(** {1 Resilience}

    A per-statement resource governor enforces {!limits} cooperatively
    inside QES operator loops and the STAR generator; breaches raise a
    structured [Resource] error naming the limit, leaving the session
    usable.  If rewrite or optimization fails (or blows its budget),
    compilation degrades — un-rewritten plan, or greedy STAR strategy —
    instead of failing the query, and records why. *)

(** The session's limits; mutate directly or via [SET limit_* = n]. *)
val limits : t -> Limits.t

(** The governor of the current (or most recent) statement — its
    {!Limits.consumption} backs the shell's [\limits]. *)
val last_gov : t -> Limits.gov

(** [Some reason] if the last statement's compilation degraded
    (also shown by EXPLAIN as [degraded: <reason>]). *)
val last_degraded : t -> string option

(** Installs a fault-injection plan on storage (catalog lookups,
    buffer-pool pins, index searches); injections and retries are
    counted in {!metrics}. *)
val set_faults : t -> Faults.t -> unit

val faults : t -> Faults.t

(** {1 Observability}

    Each pipeline stage (parse, build, rewrite, optimize, refine,
    execute) always records its elapsed time in the handle's [stage_ns]
    (two clock reads per stage; EXPLAIN ANALYZE prints them) and
    observes it in the [sb_stage_duration_ns{stage}] histogram.  With
    tracing on, each stage is also a span, the rewrite engine records
    one span per rule firing, and the optimizer one per STAR
    expansion.  The default tracer is
    {!Trace.noop}; install a real one with {!set_tracer} or
    [SET trace = on]. *)

val tracer : t -> Trace.t

(** Installs a tracer on every pipeline layer (Corona stages, rewrite
    engine, STAR evaluator). *)
val set_tracer : t -> Trace.t -> unit

(** The database's metrics registry — the catalog's, shared by every
    session over it.  Counts with no other home are written to it as
    they happen: stage latencies, execution counters, degradations,
    paranoid-mode analysis regressions, rolled-back statements,
    simulated crashes, fault sites and recovery runs. *)
val metrics : t -> Metrics.t

(** Prometheus-style text dump of {!metrics}, after copying into it
    (with {!Metrics.set}) the counts other subsystems keep for their
    own stats: the rule fires ([sb_rewrite_rule_fires_total{rule}]),
    the buffer pool's ([sb_pool_*_total]), the WAL's
    ([sb_wal_{appends,flushes,records_flushed,checkpoints,commits}_total])
    and the plan cache's
    ([sb_plan_cache_{hits,misses,evictions,invalidations}_total]). *)
val metrics_dump : t -> string

(** {1 Pipeline stages (exposed for instrumentation and extensions)} *)

val parse : t -> string -> Ast.with_query
val build_qgm : t -> Ast.with_query -> Qgm.t
val rewrite : t -> Qgm.t -> Engine.stats

(** Plan refinement: residual CHOOSE nodes resolve to their first
    alternative and trivial pass-throughs collapse. *)
val refine : Plan.plan -> Plan.plan

(** {!Generator.optimize} / {!refine} wrapped in their stage spans. *)
val optimize : t -> Qgm.t -> Plan.plan

val refine_plan : t -> Plan.plan -> Plan.plan

(** The full compile pipeline (without executing): the one path every
    query takes — build and rewrite the QGM (the canonical QGM if the
    rewrite fails), then optimize (greedily if that fails) and refine. *)
val compile : t -> Ast.with_query -> Plan.plan

val compile_text : t -> string -> Plan.plan
val run_plan : t -> Plan.plan -> Tuple.t list

(** {1 Queries} *)

(** Runs a query text, returning its rows. *)
val query : t -> string -> Tuple.t list

(** {1 Prepared statements} *)

val prepare : t -> string -> prepared
val execute_prepared : t -> prepared -> Tuple.t list

(** The plan-cache key for [text] under the session's current options:
    [Plan_cache.normalize text] plus the compile options that qualify a
    cached plan's reusability (rewrite on/off, the STAR strategy, the
    bushy and Cartesian flags). *)
val plan_cache_key : t -> string -> string

(** Like {!query}, but caches the compiled plan, keyed on normalized
    query text plus the session's compile options (see
    {!plan_cache_key}).  Entries remember the
    catalog/statistics epoch they were compiled at, so DDL and ANALYZE —
    from this session or any other sharing the catalog — invalidate them
    lazily; eviction is LRU.  A degraded compilation runs but is never
    cached.  A miss compiles and executes as one statement under one
    governor, so {!last_rewrite} and {!last_degraded} describe it
    afterwards; a hit executes the cached plan alone.  Returns the
    plan's column names with its rows. *)
val cached_query : t -> string -> string list * Tuple.t list

(** {1 Statements} *)

(** Renders EXPLAIN output for a query at the given stage(s). *)
val explain : t -> Ast.explain_mode -> Ast.with_query -> string

(** The [EXPLAIN ANALYZE] renderer (also reachable via {!explain}):
    compiles and executes the query, then prints the stage times this
    statement recorded in [stage_ns] and the plan with per-operator
    estimated vs. actual rows and inclusive time. *)
val explain_analyze : t -> Ast.with_query -> string

(** The [EXPLAIN ANALYSIS] renderer (also reachable via {!explain} and
    the shell's [\infer]): the semantic analysis of the rewritten QGM —
    inferred per-box column properties (nullability, value ranges),
    derived keys, row bounds, provable emptiness, the prover-backed
    lint findings, and the plan with inference-tightened estimates. *)
val explain_analysis : t -> Ast.with_query -> string

(** The [EXPLAIN VERIFY] renderer (also reachable via {!explain} and the
    shell's [\check]): QGM consistency before/after rewrite with every
    firing audited, lints, plan validation against the catalog, and
    the differential oracle paranoid mode applies to every SELECT (the
    un-rewritten compilation, run outside the plan budget, against the
    rewritten one). *)
val explain_verify : t -> Ast.with_query -> string

val run_statement : t -> Ast.statement -> result

(** Does the statement leave shared state alone?  True for a query,
    EXPLAIN of a query (ANALYZE included), EXPLAIN RULES and SET (the
    database-wide [wal_checkpoint] takes the log's own lock);
    false for DML, DDL, ANALYZE and EXPLAIN of any of them (which runs
    the inner statement).  The multi-session server picks its reader or
    writer lock with it. *)
val read_only : Ast.statement -> bool

(** The exception classifier used at the {!run} boundary: [Some (Error e)]
    with the pipeline stage and statement text filled in, or [None] for
    asynchronous/fatal exceptions that must pass through unclassified.
    Exposed so alternative front ends (the multi-session server) report
    the same structured errors as {!run}. *)
val classify_exn : string -> exn -> exn option

(** Parses and runs one statement.
    @raise Error on parse, semantic, planning or execution failures. *)
val run : t -> string -> result

(** Parses and runs a [;]-separated script. *)
val run_script : t -> string -> result list

(** {1 Durability}

    Every DML statement runs as an implicit transaction over the
    instance's write-ahead log ({!Catalog.t.wal}): its value-based
    before/after images per changed row are kept in memory until it
    ends, then logged as one [Commit] record + log force on success
    (group commit — one force covers everything queued before it), or
    rolled back with nothing logged on failure.  DDL auto-commits as
    logged statement text.  A simulated crash ({!Faults.Crashed}
    escaping a statement) atomically discards all volatile state;
    {!recover} rebuilds exactly the committed prefix.  For every
    session of the database, [SET wal_checkpoint = n] checkpoints
    every n commits. *)

(** The WAL's counters and state, backing the shell's [\wal]. *)
val wal_stats : t -> Wal.stats

(** The most recently committed transaction, named by its [Commit]
    record's LSN (0 if none). *)
val last_txn : t -> int

(** Rebuilds the database from the stable log (one redo pass over the
    last checkpoint and the records after it), refreshes statistics, bumps the catalog
    epoch and clears the needs-recovery flag.  A run that completes is
    counted in {!metrics} from the stats it returns
    ([sb_recovery_{runs,records_scanned,records_redone,torn_records}_total]).
    @raise Error (stage [Storage]) when a readable log record cannot be
    replayed. *)
val recover : t -> Recovery.stats

(** Renders a result as an aligned text table. *)
val render_result : ?registry:Datatype.registry -> result -> string
