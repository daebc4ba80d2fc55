(** Corona, the Starburst query language processor: the full pipeline of
    Figure 1 — parse → QGM (with semantic analysis) → query rewrite →
    cost-based plan optimization → plan refinement → execution — over
    the Core data manager, in one handle.

    {[
      let db = Starburst.create () in
      Starburst.run db "CREATE TABLE parts (partno INT UNIQUE, name STRING)";
      Starburst.run db "INSERT INTO parts VALUES (1, 'bolt')";
      match Starburst.run db "SELECT name FROM parts WHERE partno = 1" with
      | Rows { rows; _ } -> ...
    ]} *)

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
module Infer = Sb_analysis.Infer
module Err = Sb_resil.Err
module Limits = Sb_resil.Limits
module Faults = Sb_resil.Faults

exception Error of Err.t

(* most in-pipeline errors raised here are semantic (bad names, arity
   mismatches, invalid options); other stages raise their own
   exceptions, classified at the {!run} boundary *)
let error fmt =
  Fmt.kstr (fun s -> raise (Error (Err.make Err.Semantic s))) fmt

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

type t = {
  (* -- the database: every {!session} shares these by reference -- *)
  catalog : Catalog.t;
  plan_cache : prepared Plan_cache.t;
  functions : Functions.t;
  builder_cfg : Builder.config;  (** holds the enabled operations *)
  rules : Rule.set;  (** with each rule's fire and attempt counts *)
  dsl_statuses : (string, Rule_verify.status) Hashtbl.t;
      (** verification status of every DSL-compiled rule, by name *)
  exec_db : Exec.db;  (** holds the join kinds *)
  (* -- the session -- *)
  optimizer : Generator.t;
      (** the session's search state over the database's STARs *)
  mutable rewrite_enabled : bool;
  mutable paranoid : bool;
      (** sanitizer mode ([STARBURST_PARANOID=1] / [SET paranoid = on]):
          per-firing rule audits, plan validation after optimization,
          and differential execution of rewritten queries *)
  mutable hosts : (string * Value.t) list;  (** host-variable bindings *)
  mutable last_counters : Exec.counters;
  mutable last_rewrite : Engine.stats option;
  mutable tracer : Trace.t;  (** {!Trace.noop} unless tracing is on *)
  stage_ns : (string, int64) Hashtbl.t;
      (** elapsed time of each pipeline stage's most recent run *)
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

type result =
  | Rows of { columns : string list; rows : Tuple.t list }
  | Affected of int
  | Message of string

let default_limits () = Limits.apply_env (Limits.default ())

let create ?(limits = default_limits ()) () : t =
  let catalog = Catalog.create () in
  let functions = Functions.create () in
  let builder_cfg = Builder.make_config ~catalog ~functions in
  {
    catalog;
    plan_cache = Plan_cache.create ();
    functions;
    builder_cfg;
    rules = Base_rules.default_set ~catalog;
    dsl_statuses = Hashtbl.of_seq (List.to_seq Base_rules.builtin_statuses);
    exec_db = Exec.make_db ~catalog ~functions;
    optimizer = Generator.create ~catalog ~functions ();
    rewrite_enabled = true;
    paranoid = Rule_audit.paranoid_env ();
    hosts = [];
    last_counters = Exec.fresh_counters ();
    last_rewrite = None;
    tracer = Trace.noop;
    stage_ns = Hashtbl.create 8;
    limits;
    last_gov = Limits.start limits;
    last_degraded = None;
    txn_changes = [];
    txn_replaying = false;
    last_txn = 0;
  }

let session ?(limits = default_limits ()) t : t =
  { t with optimizer = Generator.session t.optimizer; rewrite_enabled = true;
    paranoid = Rule_audit.paranoid_env (); hosts = [];
    last_counters = Exec.fresh_counters (); last_rewrite = None;
    tracer = Trace.noop; stage_ns = Hashtbl.create 8; limits;
    last_gov = Limits.start limits; last_degraded = None;
    txn_changes = []; txn_replaying = false; last_txn = 0 }

let bind_host t name value =
  t.hosts <- (name, value) :: List.remove_assoc name t.hosts

let counters t = t.last_counters
let last_rewrite t = t.last_rewrite

(* every session over one catalog records into the catalog's registry *)
let metrics t = t.catalog.Catalog.metrics

(* ------------------------------------------------------------------ *)
(* Resilience                                                          *)
(* ------------------------------------------------------------------ *)

let limits t = t.limits
let last_gov t = t.last_gov
let last_degraded t = t.last_degraded

(** Opens a fresh governor for one statement: all pipeline stages —
    optimizer plan generation included — charge against it. *)
let begin_statement t : Limits.gov =
  let gov = Limits.start t.limits in
  t.last_gov <- gov;
  t.last_degraded <- None;
  t.last_rewrite <- None;
  t.optimizer.Generator.sctx.Star.governor <- Some gov;
  gov

(** Installs a fault-injection plan on storage (catalog lookups, buffer
    pool, index searches); injections and retries land in {!metrics}. *)
let set_faults t (f : Faults.t) =
  Faults.set_metrics f (metrics t);
  Catalog.set_faults t.catalog f

let faults t = Catalog.faults t.catalog

(* runs [f] with the optimizer governor suspended (paranoid baselines
   and greedy fallbacks must not charge the statement's plan budget) *)
let without_opt_governor t f =
  let sctx = t.optimizer.Generator.sctx in
  let saved = sctx.Star.governor in
  sctx.Star.governor <- None;
  Fun.protect ~finally:(fun () -> sctx.Star.governor <- saved) f

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let tracer t = t.tracer

(** Installs [tr] on the pipeline: Corona's stage spans, the rewrite
    engine's per-firing spans, and the optimizer's STAR expansion spans
    all record into it. *)
let set_tracer t (tr : Trace.t) =
  t.tracer <- tr;
  t.optimizer.Generator.sctx.Star.tracer <- tr

(** Wraps one pipeline stage: its elapsed time is always recorded in
    [t.stage_ns] and observed in the [sb_stage_duration_ns] histogram
    (two clock reads and one registry lock, also when the stage
    raises); with tracing on, the stage is also a [stage.<name>]
    span. *)
let stage t name f =
  let t0 = Trace.now_ns () in
  let finish () =
    let ns = Int64.sub (Trace.now_ns ()) t0 in
    Hashtbl.replace t.stage_ns name ns;
    Metrics.observe_named ~label:("stage", name) (metrics t)
      "sb_stage_duration_ns" (Int64.to_float ns)
  in
  Fun.protect ~finally:finish (fun () ->
      if Trace.enabled t.tracer then
        Trace.with_span t.tracer ("stage." ^ name) f
      else f ())

(* one output path for execution counters: fold each run's Exec.counters
   into the metrics registry in one locked pass *)
let record_exec_counters t (c : Exec.counters) =
  Metrics.add_counters (metrics t)
    [
      ("sb_exec_scanned_total", None, c.Exec.c_scanned);
      ("sb_exec_index_probes_total", None, c.Exec.c_index_probes);
      ("sb_exec_shipped_total", None, c.Exec.c_shipped);
      ("sb_exec_sorted_total", None, c.Exec.c_sorted);
      ("sb_exec_sub_evals_total", None, c.Exec.c_sub_evals);
      ("sb_exec_sub_cache_hits_total", None, c.Exec.c_sub_cache_hits);
      ("sb_exec_or_branch_evals_total", None, c.Exec.c_or_branch_evals);
      ("sb_exec_fixpoint_rounds_total", None, c.Exec.c_fixpoint_rounds);
      ("sb_exec_batches_total", None, c.Exec.c_batches);
      ("sb_exec_output_total", None, c.Exec.c_output);
    ]

let rule_stats t : (string * (int * int)) list = Rule.counts t.rules

(* ------------------------------------------------------------------ *)
(* The rule DSL                                                        *)
(* ------------------------------------------------------------------ *)

(** Compiles and registers a declarative rewrite rule.  The static
    verifier runs at registration: a [Rejected] rule never enters the
    rule set — it surfaces as a structured semantic {!Err.t} naming the
    failed obligation and the counterexample sketch.  [Conditional]
    rules register with their runtime guards auto-inserted; the
    returned status says which obligations were discharged statically. *)
let register_dsl_rule t (r : Rule_dsl.rule) : Rule_verify.status =
  match Rule_compile.compile ~catalog:t.catalog r with
  | Error status ->
    raise
      (Error
         (Err.make Err.Semantic
            (Fmt.str "rule %s rejected by the static verifier: %s"
               r.Rule_dsl.name
               (Rule_verify.status_to_string status))))
  | Ok (rule, status) ->
    Rule.add t.rules rule;
    Hashtbl.replace t.dsl_statuses r.Rule_dsl.name status;
    status

(** The EXPLAIN RULES / [\rules] report: every registered rule with its
    class, priority, origin, verification status (DSL rules only —
    native closures are opaque to the verifier) and cumulative
    fire/attempt counts, followed by any dead-rule lints. *)
let rules_report t : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Fmt.str "%-28s %-10s %4s  %-6s  %-24s %10s\n" "rule" "class" "prio"
       "origin" "verification" "fires/attempts");
  let counts = rule_stats t in
  List.iter
    (fun (r : Rule.t) ->
      let fires, attempts =
        Option.value ~default:(0, 0) (List.assoc_opt r.Rule.rule_name counts)
      in
      let verification =
        match r.Rule.rule_origin with
        | Rule.Native -> "-"
        | Rule.Dsl -> (
          match Hashtbl.find_opt t.dsl_statuses r.Rule.rule_name with
          | Some s -> Rule_verify.status_to_string s
          | None -> "?")
      in
      Buffer.add_string buf
        (Fmt.str "%-28s %-10s %4d  %-6s  %-24s %6d/%-6d\n" r.Rule.rule_name
           r.Rule.rule_class r.Rule.rule_priority
           (match r.Rule.rule_origin with
           | Rule.Native -> "native"
           | Rule.Dsl -> "dsl")
           verification fires attempts))
    (Rule.all t.rules);
  (match Lint.lint_rules counts with
  | [] -> ()
  | diags ->
    Buffer.add_string buf "== LINT ==\n";
    List.iter
      (fun d -> Buffer.add_string buf ("  " ^ Lint.diag_to_string d ^ "\n"))
      diags);
  Buffer.contents buf

(* A count a subsystem keeps for its own stats has that one home: it is
   copied into the registry here, at dump time, so recording it costs a
   statement nothing and the registry cannot drift from the stats *)
let metrics_dump t =
  let m = metrics t in
  let mirror ?label name v = Metrics.set (Metrics.counter ?label m name) v in
  List.iter
    (fun (rule, (fires, _)) ->
      if fires > 0 then mirror ~label:("rule", rule) "sb_rewrite_rule_fires_total" fires)
    (rule_stats t);
  let pool = Buffer_pool.stats t.catalog.Catalog.pool in
  mirror "sb_pool_logical_reads_total" pool.Buffer_pool.logical_reads;
  mirror "sb_pool_physical_reads_total" pool.Buffer_pool.physical_reads;
  mirror "sb_pool_physical_writes_total" pool.Buffer_pool.physical_writes;
  mirror "sb_pool_evictions_total" pool.Buffer_pool.evictions;
  let wal = Wal.stats t.catalog.Catalog.wal in
  mirror "sb_wal_appends_total" wal.Wal.s_appends;
  mirror "sb_wal_flushes_total" wal.Wal.s_flushes;
  mirror "sb_wal_records_flushed_total" wal.Wal.s_flushed_records;
  mirror "sb_wal_checkpoints_total" wal.Wal.s_checkpoints;
  mirror "sb_wal_commits_total" wal.Wal.s_commits;
  (* counted at rollback; listed before the first one *)
  ignore (Metrics.counter m "sb_wal_aborts_total");
  let cache = Plan_cache.stats t.plan_cache in
  mirror "sb_plan_cache_hits_total" cache.Plan_cache.hits;
  mirror "sb_plan_cache_misses_total" cache.Plan_cache.misses;
  mirror "sb_plan_cache_evictions_total" cache.Plan_cache.evictions;
  mirror "sb_plan_cache_invalidations_total" cache.Plan_cache.invalidations;
  Metrics.dump m

(* ------------------------------------------------------------------ *)
(* The compilation pipeline                                            *)
(* ------------------------------------------------------------------ *)

let build_qgm t (wq : Ast.with_query) : Qgm.t =
  stage t "build" (fun () -> Builder.build t.builder_cfg wq)

let rewrite t (g : Qgm.t) : Engine.stats =
  (* paranoid mode wraps every rule in the soundness audit (consistency
     asserted before and after each firing, attributed by rule name) and
     the inference audit (inferred top-box properties compared before
     and after each firing; regressions are logged and counted, never
     fatal — a rewrite may trade derivable precision for shape) *)
  let rules = Rule.all t.rules in
  let rules =
    if t.paranoid then
      Rule_audit.instrument_inference ~catalog:t.catalog
        ~on_regression:(fun msg ->
          Metrics.add_counters (metrics t)
            [ ("sb_analysis_regressions_total", None, 1) ];
          Logs.warn (fun m -> m "analysis regression: %s" msg))
        (Rule_audit.instrument rules)
    else rules
  in
  let stats =
    stage t "rewrite" (fun () ->
        Engine.run ~check_each:t.paranoid
          ~tracer:t.tracer ~rules g)
  in
  t.last_rewrite <- Some stats;
  Rule.record t.rules ~firings:stats.Engine.firings
    ~attempts:stats.Engine.attempts;
  stats

let parse t (text : string) : Ast.with_query =
  stage t "parse" (fun () -> Parser.query_text text)

(** Plan refinement (Figure 1's final compile phase): cleanups between
    the optimizer's output and the executable plan —
    residual CHOOSE nodes resolve to their first alternative, empty
    filters disappear, subquery-free filters collapse into the SCAN
    below them, and adjacent projections fuse. *)
let rec refine (p : Plan.plan) : Plan.plan =
  let p = { p with Plan.inputs = List.map refine p.Plan.inputs } in
  match p.Plan.op, p.Plan.inputs with
  | Plan.Choose_op, first :: _ -> first
  | Plan.Filter [], [ input ] -> input
  | ( Plan.Filter preds,
      [ { Plan.op = Plan.Scan { sc_table; sc_cols; sc_preds }; inputs = []; props = _ } ] )
    when not (List.exists Plan.rexpr_has_sub preds) ->
    (* scan predicates are expressed over base column indices; remap the
       filter's output-slot references through sc_cols *)
    let cols = Array.of_list sc_cols in
    let remapped =
      List.map (Plan.map_rexpr (function
        | Plan.RCol i when i < Array.length cols -> Plan.RCol cols.(i)
        | e -> e))
        preds
    in
    {
      p with
      Plan.op = Plan.Scan { sc_table; sc_cols; sc_preds = sc_preds @ remapped };
      inputs = [];
    }
  | Plan.Project outer_exprs, [ { Plan.op = Plan.Project inner_exprs; inputs; props = _ } ]
    when not (List.exists Plan.rexpr_has_sub (outer_exprs @ inner_exprs)) ->
    (* compose: outer slots index into inner expressions *)
    let inner = Array.of_list inner_exprs in
    let composed =
      List.map
        (Plan.map_rexpr (function
          | Plan.RCol i when i < Array.length inner -> inner.(i)
          | e -> e))
        outer_exprs
    in
    { p with Plan.op = Plan.Project composed; inputs }
  | _ -> p

let optimize t (g : Qgm.t) : Plan.plan =
  let plan = stage t "optimize" (fun () -> Generator.optimize t.optimizer g) in
  (* paranoid: validate the optimizer's claims before refinement runs *)
  if t.paranoid then Plan_check.assert_valid ~catalog:t.catalog plan;
  plan

let refine_plan t (p : Plan.plan) : Plan.plan = stage t "refine" (fun () -> refine p)

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)
(* ------------------------------------------------------------------ *)

let exn_message = function
  | Error e | Err.Error e -> Err.to_string e
  | Qgm.Qgm_error m | Star.Opt_error m | Generator.Unsupported m
  | Plan_check.Invalid_plan m | Rule_audit.Unsound m | Failure m ->
    m
  | exn -> Printexc.to_string exn

let degrade t ~stage:stage_name ~reason =
  t.last_degraded <- Some reason;
  Metrics.add_counters (metrics t)
    [ ("sb_degraded_total", Some ("stage", stage_name), 1) ];
  if Trace.enabled t.tracer then
    Trace.with_span t.tracer "degraded"
      ~attrs:[ ("stage", stage_name); ("reason", reason) ]
      (fun () -> ())

(** The rewritten QGM of [wq] — the one place a graph is rewritten.
    If the engine (or a paranoid audit) fails, the half-transformed
    graph is discarded and the canonical QGM is rebuilt from the AST:
    the query still runs, un-rewritten, with a degradation span + metric
    recorded.  Under [SET rewrite = off] the canonical QGM. *)
let rewritten t (wq : Ast.with_query) : Qgm.t =
  let g = build_qgm t wq in
  if not t.rewrite_enabled then g
  else
    match rewrite t g with
    | _ -> g
    | exception ((Stack_overflow | Out_of_memory) as exn) -> raise exn
    | exception exn -> (
      match build_qgm t wq with
      | g0 ->
        degrade t ~stage:"rewrite"
          ~reason:(Fmt.str "rewrite failed: %s" (exn_message exn));
        g0
      | exception _ -> raise exn)

(** Optimization with fallback: on failure (including a blown plan-node
    budget) retry under {!Star.greedy_strategy} with the governor
    suspended — one cheap plan per STAR always exists for the base
    rules.  Re-raises the original error if even that fails. *)
let optimize_degradable t (g : Qgm.t) : Plan.plan =
  try optimize t g with
  | (Stack_overflow | Out_of_memory) as exn -> raise exn
  | exn -> (
    let sctx = t.optimizer.Generator.sctx in
    let saved = sctx.Star.strategy in
    let retry () =
      Fun.protect
        ~finally:(fun () -> sctx.Star.strategy <- saved)
        (fun () ->
          sctx.Star.strategy <- Star.greedy_strategy;
          without_opt_governor t (fun () -> optimize t g))
    in
    match retry () with
    | plan ->
      degrade t ~stage:"optimize"
        ~reason:(Fmt.str "optimize failed: %s; greedy fallback" (exn_message exn));
      plan
    | exception _ -> raise exn)

(** The executable plan of a (rewritten) graph: optimization with its
    greedy fallback, then refinement. *)
let plan_of t (g : Qgm.t) : Plan.plan = refine_plan t (optimize_degradable t g)

let compile t (wq : Ast.with_query) : Plan.plan =
  ignore (begin_statement t);
  plan_of t (rewritten t wq)

let compile_text t (text : string) : Plan.plan = compile t (parse t text)

(* ------------------------------------------------------------------ *)
(* Query execution                                                     *)
(* ------------------------------------------------------------------ *)

(* the execute stage: [run] gets the statement's fresh counters, which
   land in {!counters} and the metrics registry *)
let execute t (run : Exec.counters -> 'a) : 'a =
  let counters = Exec.fresh_counters () in
  t.last_counters <- counters;
  let v = stage t "execute" (fun () -> run counters) in
  record_exec_counters t counters;
  v

let exec_plan t (gov : Limits.gov) (plan : Plan.plan) : Tuple.t list =
  execute t (fun counters -> Exec.run ~hosts:t.hosts ~counters ~gov t.exec_db plan)

let run_plan t (plan : Plan.plan) : Tuple.t list =
  exec_plan t (begin_statement t) plan

(* A query's results are deterministic unless some box keeps LIMIT rows
   of an unordered stream — the one case the differential oracle must
   skip (both sides are "right" with different rows). *)
let deterministic_results (g : Qgm.t) : bool =
  List.for_all
    (fun (b : Qgm.box) -> b.Qgm.b_limit = None || b.Qgm.b_order <> [])
    (Qgm.reachable_boxes g)

(* ORDER BY pins only its keys, so the differential comparison must let
   rows tied on every key permute.  Map each order key to the head
   column carrying the same expression; keys not exposed in the head
   cannot be checked positionally and are skipped (the bag comparison
   still covers them). *)
let audit_sort_keys (g : Qgm.t) : int list =
  let tb = Qgm.top_box g in
  List.filter_map
    (fun (e, _dir) ->
      let rec idx i = function
        | [] -> None
        | (hc : Qgm.head_col) :: rest ->
          if hc.Qgm.hc_expr = Some e then Some i else idx (i + 1) rest
      in
      idx 0 tb.Qgm.b_head)
    tb.Qgm.b_order

(** The differential oracle of rewriting: compiles [wq]'s canonical QGM
    without rewriting it, runs that plan, and compares its result with
    [rows] (the rewritten compilation's answer).  The baseline runs
    without counters and outside the statement's plan budget — it must
    not be observable as a second query.  [None] when the result is not
    deterministic (a LIMIT over an unordered stream), so both sides may
    rightly keep different rows. *)
let against_unrewritten t (wq : Ast.with_query) (rows : Tuple.t list) :
    (unit, string) Stdlib.result option =
  let g0 = build_qgm t wq in
  if not (deterministic_results g0) then None
  else
    let baseline =
      without_opt_governor t (fun () ->
          Exec.run ~hosts:t.hosts t.exec_db (refine_plan t (optimize t g0)))
    in
    Some
      (Rule_audit.compare_results ~registry:t.catalog.Catalog.datatypes
         ~ordered:((Qgm.top_box g0).Qgm.b_order <> [])
         ~sort_keys:(audit_sort_keys g0) baseline rows)

(* paranoid mode: every SELECT's rows must match the oracle's *)
let check_paranoid t (wq : Ast.with_query) (rows : Tuple.t list) =
  if t.paranoid && t.rewrite_enabled then
    match against_unrewritten t wq rows with
    | Some (Error msg) ->
      raise (Rule_audit.Unsound ("rewrite changed query results: " ^ msg))
    | Some (Ok ()) | None -> ()

let columns_of (g : Qgm.t) : string list =
  List.map (fun hc -> hc.Qgm.hc_name) (Qgm.top_box g).Qgm.b_head

let query_ast t (wq : Ast.with_query) : string list * Tuple.t list =
  let gov = begin_statement t in
  let g = rewritten t wq in
  let rows = exec_plan t gov (plan_of t g) in
  check_paranoid t wq rows;
  (columns_of g, rows)

(** Runs a query text, returning its rows. *)
let query t (text : string) : Tuple.t list = snd (query_ast t (parse t text))

(* ------------------------------------------------------------------ *)
(* Prepared statements                                                 *)
(* ------------------------------------------------------------------ *)

(** Compiles [text] once; see {!execute_prepared}. *)
let prepare t (text : string) : prepared =
  ignore (begin_statement t);
  let g = rewritten t (parse t text) in
  { prep_text = text; prep_columns = columns_of g; prep_plan = plan_of t g }

(** Executes a prepared query under the current host-variable bindings. *)
let execute_prepared t (p : prepared) : Tuple.t list = run_plan t p.prep_plan

(* A plan is only reusable under the compile options it was built with,
   so those options are part of the cache key.  This is also what keeps
   a shed (greedy-strategy) compilation from being served to sessions
   running at full optimization, and vice versa. *)
let settings_fingerprint t : string =
  Fmt.str "rw=%b;opt=%s,%b,%b" t.rewrite_enabled
    t.optimizer.Generator.sctx.Star.strategy.Star.st_name
    t.optimizer.Generator.allow_bushy t.optimizer.Generator.allow_cartesian

let plan_cache_key t (text : string) : string =
  Plan_cache.normalize text ^ "\x00" ^ settings_fingerprint t

(** Like {!query}, but caches the compiled plan, keyed on normalized
    query text plus the session's compile options.  Entries remember the
    catalog/statistics epoch they were compiled at, so DDL and ANALYZE
    (from this session or any other sharing the catalog) invalidate
    them; eviction is LRU.  A degraded compilation is executed but never
    cached.  Returns the plan's column names with its rows.  Paranoid
    mode re-parses [text] to check the rows against the oracle. *)
let cached_query t (text : string) : string list * Tuple.t list =
  let key = plan_cache_key t text in
  let epoch = Catalog.epoch t.catalog in
  let p, rows =
    match Plan_cache.find t.plan_cache ~epoch key with
    | Some p -> (p, execute_prepared t p)
    | None ->
      (* a miss compiles and runs as one statement under one governor,
         so its rewrite and any degradation stay visible afterwards *)
      let p = prepare t text in
      if t.last_degraded = None then Plan_cache.add t.plan_cache ~epoch key p;
      (p, exec_plan t t.last_gov p.prep_plan)
  in
  if t.paranoid then check_paranoid t (parse t text) rows;
  (p.prep_columns, rows)

(* ------------------------------------------------------------------ *)
(* DML                                                                 *)
(* ------------------------------------------------------------------ *)

(** Compiles an expression over a single table's row (no subqueries) for
    UPDATE/DELETE; columns resolve against the table schema, and a
    qualifier must name the table or its alias. *)
let compile_row_expr t ~table ~(schema : Schema.t) ~alias (e : Ast.expr) :
    Plan.rexpr =
  let names_row q =
    List.exists
      (fun n -> String.lowercase_ascii n = String.lowercase_ascii q)
      (table :: Option.to_list alias)
  in
  let rec go (e : Ast.expr) : Plan.rexpr =
    match e with
    | Ast.Lit v -> Plan.RLit v
    | Ast.Host v -> Plan.RHost v
    | Ast.Col (Some q, name) when not (names_row q) ->
      error "unknown column %s.%s" q name
    | Ast.Col (_, name) -> (
      match Schema.find_index schema name with
      | Some i -> Plan.RCol i
      | None -> error "unknown column %s" name)
    | Ast.Bin (op, a, b) -> Plan.RBin (op, go a, go b)
    | Ast.Un (op, a) -> Plan.RUn (op, go a)
    | Ast.Func (name, args) ->
      if Functions.find_scalar t.functions name = None then
        error "unknown function %s" name;
      Plan.RFun (name, List.map go args)
    | Ast.Case (arms, els) ->
      Plan.RCase (List.map (fun (c, v) -> (go c, go v)) arms, Option.map go els)
    | Ast.Is_null a -> Plan.RIs_null (go a)
    | Ast.Like (a, pat) -> Plan.RLike (go a, pat)
    | Ast.Between (a, lo, hi) ->
      let x = go a in
      Plan.RBin (Ast.And, Plan.RBin (Ast.Ge, x, go lo), Plan.RBin (Ast.Le, x, go hi))
    | Ast.In_list (a, items) ->
      let x = go a in
      List.fold_left
        (fun acc item -> Plan.RBin (Ast.Or, acc, Plan.RBin (Ast.Eq, x, go item)))
        (Plan.RLit (Value.Bool false))
        items
    | Ast.Agg _ | Ast.In_query _ | Ast.Exists _ | Ast.Quant_cmp _
    | Ast.Scalar_query _ ->
      error "subqueries and aggregates are not supported in UPDATE/DELETE"
  in
  go e

(* ------------------------------------------------------------------ *)
(* Durability: implicit transactions over the WAL                      *)
(* ------------------------------------------------------------------ *)

let wal t = t.catalog.Catalog.wal
let wal_stats t = Wal.stats (wal t)
let last_txn t = t.last_txn

(* Keeps one value-based change of the in-flight statement, with the
   rid it left its row at. *)
let log_change t ~table (rid : Storage_manager.rid) ~before ~after =
  t.txn_changes <-
    { page = rid.rid_page; slot = rid.rid_slot;
      logged = { Wal.c_table = table; c_before = before; c_after = after } }
    :: t.txn_changes

(* Undoes the statement's changes, newest first, through Table_store
   (so indexes stay consistent), each at the rid it left its row at.  A
   statement changes a row at most once, and undoing a change only
   frees rids or fills free ones, so every older change's row is still
   where it was kept: rollback never scans.  Nothing is logged — the
   statement never reached the log.  Fault injection is suspended: a
   rollback must not itself be failed. *)
let rollback_statement t =
  let changes = t.txn_changes in
  t.txn_changes <- [];
  if changes <> [] then begin
    let saved = Catalog.faults t.catalog in
    Catalog.set_faults t.catalog Faults.none;
    Fun.protect ~finally:(fun () -> Catalog.set_faults t.catalog saved)
    @@ fun () ->
    List.iter
      (fun { page; slot; logged = { Wal.c_table; c_before; c_after } } ->
        let rid = { Storage_manager.rid_page = page; rid_slot = slot } in
        match (Catalog.find_table t.catalog c_table, c_before, c_after) with
        | None, _, _ -> ()
        | Some tab, None, _ -> ignore (Table_store.delete tab rid)
        | Some tab, Some before, None -> ignore (Table_store.insert tab before)
        | Some tab, Some before, Some _ -> ignore (Table_store.update tab rid before))
      changes
  end

(* Runs one DML statement as an implicit transaction.  On success its
   changes become one Commit record and the log is forced (group
   commit); the record's LSN names the transaction.  On any error the
   statement rolls back and the log is left alone.  A simulated crash
   propagates untouched — the caller discards all volatile state, so
   there is nothing to roll back. *)
let with_txn t (f : unit -> result) : result =
  if t.txn_replaying then f ()
  else begin
    t.txn_changes <- [];
    match f () with
    | res ->
      let w = wal t in
      let changes = List.rev_map (fun c -> c.logged) t.txn_changes in
      t.txn_changes <- [];
      let lsn = Wal.append w (Wal.Commit changes) in
      (* force the log: the commit — and by group commit everything
         queued before it — becomes durable here *)
      Wal.flush w;
      t.last_txn <- lsn;
      if Wal.checkpoint_due w then
        Wal.checkpoint w ~tables:(Catalog.snapshot_tables t.catalog);
      res
    | exception (Faults.Crashed _ as crash) ->
      t.txn_changes <- [];
      raise crash
    | exception exn ->
      rollback_statement t;
      Metrics.add_counters (metrics t) [ ("sb_wal_aborts_total", None, 1) ];
      raise exn
  end

(* DDL auto-commits: one Ddl record, forced immediately.  A crash at
   the append loses the record — and recovery then (correctly) does not
   replay a statement whose success the client never saw. *)
let log_ddl t (text : string) =
  if not t.txn_replaying then begin
    ignore (Wal.append (wal t) (Wal.Ddl text));
    Wal.flush (wal t)
  end

let find_table t name =
  match Catalog.find_table t.catalog name with
  | Some tab -> tab
  | None -> error "no such table %s" name

let do_insert t ~table ~columns (wq : Ast.with_query) : result =
  let tab = find_table t table in
  let schema = tab.Table_store.schema in
  let _, rows = query_ast t wq in
  let positions =
    match columns with
    | None -> List.init (Array.length schema) Fun.id
    | Some names ->
      List.map
        (fun name ->
          match Schema.find_index schema name with
          | Some i -> i
          | None -> error "no column %s in %s" name table)
        names
  in
  let n = ref 0 in
  List.iter
    (fun row ->
      if Array.length row <> List.length positions then
        error "INSERT arity mismatch: %d values for %d columns"
          (Array.length row) (List.length positions);
      let tuple = Array.make (Array.length schema) Value.Null in
      List.iteri (fun i pos -> tuple.(pos) <- row.(i)) positions;
      let rid =
        try Table_store.insert tab tuple with
        | Invalid_argument msg -> error "%s" msg
        (* a constraint violation is a runtime (Exec-stage) failure, like
           the boundary classifier stamps it when it escapes raw *)
        | Table_store.Constraint_violation msg ->
          raise (Error (Err.make Err.Exec msg))
      in
      log_change t ~table rid ~before:None ~after:(Some tuple);
      incr n)
    rows;
  Affected !n

let do_delete t ~table ~alias ~where : result =
  let tab = find_table t table in
  let pred =
    Option.map (compile_row_expr t ~table ~schema:tab.Table_store.schema ~alias) where
  in
  let victims =
    Seq.filter_map
      (fun (rid, row) ->
        match pred with
        | None -> Some (rid, row)
        | Some p -> (
          match Exec.eval_row ~hosts:t.hosts t.exec_db ~row p with
          | Value.Bool true -> Some (rid, row)
          | _ -> None))
      (Table_store.scan tab)
    |> List.of_seq
  in
  List.iter
    (fun (rid, row) ->
      if Table_store.delete tab rid then
        log_change t ~table rid ~before:(Some (Array.copy row)) ~after:None)
    victims;
  Affected (List.length victims)

let do_update t ~table ~alias ~sets ~where : result =
  let tab = find_table t table in
  let schema = tab.Table_store.schema in
  let pred = Option.map (compile_row_expr t ~table ~schema ~alias) where in
  let compiled_sets =
    List.map
      (fun (col, e) ->
        match Schema.find_index schema col with
        | Some i -> (i, compile_row_expr t ~table ~schema ~alias e)
        | None -> error "no column %s in %s" col table)
      sets
  in
  let updates =
    Seq.filter_map
      (fun (rid, row) ->
        let keep =
          match pred with
          | None -> true
          | Some p ->
            Exec.eval_row ~hosts:t.hosts t.exec_db ~row p = Value.Bool true
        in
        if keep then begin
          let row' = Array.copy row in
          List.iter
            (fun (i, e) -> row'.(i) <- Exec.eval_row ~hosts:t.hosts t.exec_db ~row e)
            compiled_sets;
          Some (rid, Array.copy row, row')
        end
        else None)
      (Table_store.scan tab)
    |> List.of_seq
  in
  List.iter
    (fun (rid, before, row) ->
      match
        try Table_store.update tab rid row with
        | Invalid_argument msg -> error "%s" msg
        (* a constraint violation is a runtime (Exec-stage) failure, like
           the boundary classifier stamps it when it escapes raw *)
        | Table_store.Constraint_violation msg ->
          raise (Error (Err.make Err.Exec msg))
      with
      | Some rid -> log_change t ~table rid ~before:(Some before) ~after:(Some row)
      | None -> ())
    updates;
  Affected (List.length updates)

(* ------------------------------------------------------------------ *)
(* DDL                                                                 *)
(* ------------------------------------------------------------------ *)

let do_create_table t ~name ~columns ~storage : result =
  let schema =
    Array.of_list
      (List.map
         (fun (cname, ctype, nullable, unique) ->
           match Datatype.of_string t.catalog.Catalog.datatypes ctype with
           | Some ty -> Schema.column ~nullable ~unique cname ty
           | None -> error "unknown type %s" ctype)
         columns)
  in
  (try
     ignore
       (Catalog.create_table t.catalog ?storage ~name ~schema ()
         : Table_store.t)
   with Catalog.Catalog_error msg -> error "%s" msg);
  Message (Fmt.str "table %s created" name)

(* ------------------------------------------------------------------ *)
(* SET options                                                         *)
(* ------------------------------------------------------------------ *)

let on_off = function
  | "on" | "true" | "1" -> true
  | "off" | "false" | "0" -> false
  | v -> error "expected on/off, got %s" v

let do_set t key value : result =
  (match key with
  | "rewrite" -> t.rewrite_enabled <- on_off value
  | "trace" ->
    set_tracer t
      (if on_off value then
         if Trace.enabled t.tracer then t.tracer else Trace.create ()
       else Trace.noop)
  | "paranoid" -> t.paranoid <- on_off value
  | "wal_checkpoint" ->
    Wal.set_checkpoint_every (wal t)
      (match int_of_string_opt value with
      | Some n when n >= 0 -> n
      | _ -> error "wal_checkpoint expects a commit count (0 = off)")
  | k when String.length k > 6 && String.sub k 0 6 = "limit_" -> (
    match int_of_string_opt value with
    | None -> error "%s expects an integer (0 = unlimited)" k
    | Some n -> (
      match Limits.set t.limits k n with
      | Ok () -> ()
      | Error msg -> error "%s" msg))
  | k -> error "unknown option %s" k);
  Message (Fmt.str "%s = %s" key value)

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)
(* ------------------------------------------------------------------ *)

(** Renders a plan with the optimizer's estimates next to the actual
    per-operator rows and inclusive time measured by
    {!Exec.run_analyzed}.  An operator the execution never pulled from
    (e.g. behind an empty outer) shows as [never executed]. *)
let pp_analyzed_plan buf (lookup : Plan.plan -> Exec.op_stats option) plan =
  let rec render indent (p : Plan.plan) =
    let detail = Plan.op_detail p.Plan.op in
    let actual =
      match lookup p with
      | Some st ->
        Fmt.str "rows=%d%s time=%s" st.Exec.os_rows
          (if st.Exec.os_batches > 0 then
             Fmt.str " batches=%d" st.Exec.os_batches
           else "")
          (Trace.dur_string st.Exec.os_ns)
      | None -> "never executed"
    in
    Buffer.add_string buf
      (Fmt.str "%s%s%s  {est_rows=%.0f cost=%.2f | actual %s}\n"
         (String.make (indent * 2) ' ')
         (Plan.op_name p.Plan.op)
         (if detail = "" then "" else " " ^ detail)
         p.Plan.props.Plan.p_card p.Plan.props.Plan.p_cost actual);
    List.iter (render (indent + 1)) p.Plan.inputs
  in
  render 0 plan

(** EXPLAIN ANALYZE: compiles the query, runs the plan with per-operator
    accounting, and prints the statement's stage times (as {!stage}
    recorded them) and the LOLEPOP tree with estimated vs. actual rows
    and time. *)
let explain_analyze t (wq : Ast.with_query) : string =
  let gov = begin_statement t in
  let plan = plan_of t (rewritten t wq) in
  let rows, lookup =
    execute t (fun counters ->
        Exec.run_analyzed ~hosts:t.hosts ~counters ~gov t.exec_db plan)
  in
  let buf = Buffer.create 1024 in
  (match t.last_degraded with
  | Some reason -> Buffer.add_string buf (Fmt.str "degraded: %s\n" reason)
  | None -> ());
  Buffer.add_string buf "== STAGE TIMINGS ==\n";
  let stage_line ?(extra = "") name ns =
    Buffer.add_string buf
      (Fmt.str "  %-10s %10s%s\n" name (Trace.dur_string ns) extra)
  in
  let recorded name = Option.value ~default:0L (Hashtbl.find_opt t.stage_ns name) in
  stage_line "build" (recorded "build");
  (match t.last_rewrite with
  | Some stats ->
    stage_line "rewrite" (recorded "rewrite")
      ~extra:
        (Fmt.str "  (%d rules fired in %d passes)" stats.Engine.rules_fired
           stats.Engine.passes)
  | None when t.rewrite_enabled ->
    stage_line "rewrite" (recorded "rewrite") ~extra:"  (failed)"
  | None -> stage_line "rewrite" 0L ~extra:"  (disabled)");
  List.iter (fun name -> stage_line name (recorded name)) [ "optimize"; "refine"; "execute" ];
  Buffer.add_string buf "== PLAN (estimated vs. actual) ==\n";
  pp_analyzed_plan buf lookup plan;
  Buffer.add_string buf (Fmt.str "%d row(s)\n" (List.length rows));
  Buffer.contents buf

(** EXPLAIN VERIFY (and the shell's [\check]): one report from the whole
    {!Sb_verify} suite — QGM consistency before and after rewriting
    (with every firing audited), lints, plan validation against the
    catalog, and the differential oracle ({!against_unrewritten}).
    Unlike a query, it reports an unsound firing or an invalid plan
    instead of degrading around it. *)
let explain_verify t (wq : Ast.with_query) : string =
  ignore (begin_statement t);
  let buf = Buffer.create 512 in
  let add fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let report name = function
    | [] -> add "%-26s ok" name
    | msgs ->
      add "%-26s %d violation(s)" name (List.length msgs);
      List.iter (fun m -> add "    %s" m) msgs
  in
  add "== VERIFY ==";
  let g = build_qgm t wq in
  report "qgm (built)" (Check.check g);
  (match Lint.lint_qgm ~catalog:t.catalog g @ Lint.lint_catalog t.catalog with
  | [] -> add "%-26s none" "lint"
  | diags ->
    add "%-26s %d diagnostic(s)" "lint" (List.length diags);
    List.iter (fun d -> add "    %s" (Lint.diag_to_string d)) diags);
  (if t.rewrite_enabled then begin
     let audited = Rule_audit.instrument (Rule.all t.rules) in
     match
       stage t "rewrite" (fun () ->
           Engine.run ~check_each:true
             ~tracer:t.tracer ~rules:audited g)
     with
     | stats ->
       add "%-26s ok (%d firing(s) audited)" "rule audit" stats.Engine.rules_fired
     | exception Rule_audit.Unsound msg -> add "%-26s UNSOUND: %s" "rule audit" msg
   end
   else add "%-26s skipped (rewrite disabled)" "rule audit");
  report "qgm (rewritten)" (Check.check g);
  let plan = stage t "optimize" (fun () -> Generator.optimize t.optimizer g) in
  report "plan (optimized)"
    (List.map Plan_check.violation_to_string
       (Plan_check.check ~catalog:t.catalog plan));
  let refined = refine_plan t plan in
  report "plan (refined)"
    (List.map Plan_check.violation_to_string
       (Plan_check.check ~catalog:t.catalog refined));
  (if not t.rewrite_enabled then
     add "%-26s skipped (rewrite disabled)" "differential"
   else
     let after = run_plan t refined in
     match against_unrewritten t wq after with
     | None -> add "%-26s skipped (LIMIT without ORDER BY)" "differential"
     | Some (Ok ()) -> add "%-26s ok (%d row(s))" "differential" (List.length after)
     | Some (Error msg) -> add "%-26s DIVERGED: %s" "differential" msg);
  Buffer.contents buf

(** EXPLAIN ANALYSIS (and the shell's [\infer]): the semantic analysis
    of the rewritten QGM — per-box inferred column properties
    (nullability, value ranges), derived keys, row bounds and provable
    emptiness ({!Sb_analysis.Infer}), the prover-backed lint findings,
    and the plan with inference-tightened estimates. *)
let explain_analysis t (wq : Ast.with_query) : string =
  ignore (begin_statement t);
  let buf = Buffer.create 1024 in
  let g = rewritten t wq in
  let t0 = Trace.now_ns () in
  let inf = Infer.analyze ~trust_stats:true ~catalog:t.catalog g in
  let infer_ns = Int64.sub (Trace.now_ns ()) t0 in
  Buffer.add_string buf
    (Fmt.str "== ANALYSIS (%d fact(s), %s) ==\n" (Infer.fact_count inf)
       (Trace.dur_string infer_ns));
  Buffer.add_string buf (Infer.to_string inf g);
  (match Lint.lint_qgm ~catalog:t.catalog g with
  | [] -> ()
  | diags ->
    Buffer.add_string buf "== LINT ==\n";
    List.iter
      (fun d -> Buffer.add_string buf ("  " ^ Lint.diag_to_string d ^ "\n"))
      diags);
  (match plan_of t g with
  | plan ->
    Buffer.add_string buf "== PLAN (inference-tightened estimates) ==\n";
    Buffer.add_string buf (Plan.to_string plan)
  | exception Generator.Unsupported msg ->
    Buffer.add_string buf (Fmt.str "== PLAN ==\nunsupported: %s\n" msg));
  Buffer.contents buf

let explain t mode (wq : Ast.with_query) : string =
  match mode with
  | Ast.Explain_rules -> rules_report t
  | Ast.Explain_analyze -> explain_analyze t wq
  | Ast.Explain_analysis -> explain_analysis t wq
  | Ast.Explain_verify -> explain_verify t wq
  | Ast.Explain_qgm | Ast.Explain_rewrite | Ast.Explain_plan | Ast.Explain_dot
  | Ast.Explain_all ->
    ignore (begin_statement t);
    let buf = Buffer.create 512 in
    let shows m = mode = m || mode = Ast.Explain_all in
    if shows Ast.Explain_qgm then begin
      Buffer.add_string buf "== QGM ==\n";
      Buffer.add_string buf (Qgm_print.to_string (build_qgm t wq))
    end;
    let g = rewritten t wq in
    if t.rewrite_enabled && shows Ast.Explain_rewrite then begin
      let fired =
        match t.last_rewrite with
        | Some stats -> stats.Engine.rules_fired
        | None -> 0
      in
      Buffer.add_string buf
        (Fmt.str "== QGM after rewrite (%d rules fired) ==\n" fired);
      Buffer.add_string buf (Qgm_print.to_string g)
    end;
    (* Graphviz rendering of the (rewritten) QGM, drawn with the paper's
       Figure 2 conventions *)
    if mode = Ast.Explain_dot then Buffer.add_string buf (Qgm_print.to_dot g);
    if shows Ast.Explain_plan then begin
      Buffer.add_string buf "== PLAN ==\n";
      Buffer.add_string buf (Plan.to_string (plan_of t g))
    end;
    (match t.last_degraded with
    | Some reason -> Buffer.add_string buf (Fmt.str "degraded: %s\n" reason)
    | None -> ());
    Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Statement dispatch                                                  *)
(* ------------------------------------------------------------------ *)

(** Does [stmt] leave shared state alone?  A query, EXPLAIN of a query
    (ANALYZE included), EXPLAIN RULES and SET do — SET changes the
    session, apart from [wal_checkpoint], which sets the
    database's log under its own lock and which only writers read.
    EXPLAIN of DML or DDL runs it, so it writes. *)
let read_only (stmt : Ast.statement) : bool =
  match stmt with
  | Ast.Stmt_query _ | Ast.Stmt_set _
  | Ast.Stmt_explain (Ast.Explain_rules, _)
  | Ast.Stmt_explain (_, Ast.Stmt_query _) ->
    true
  | _ -> false

(* No wholesale cache clearing here: DDL and ANALYZE bump the catalog
   epoch (inside Catalog, plus {!Catalog.bump_epoch} for the single-table
   path below), which invalidates cached plans lazily; SET changes the
   settings fingerprint, steering lookups away from stale entries. *)
let rec run_statement t (stmt : Ast.statement) : result =
  (* after a (simulated) crash, nothing runs until recovery has: a
     stale in-memory state must never be served as an answer *)
  if (not t.txn_replaying) && Wal.needs_recovery (wal t) then
    raise
      (Error
         (Err.make Err.Storage
            "crash recovery required before statements can run"));
  match stmt with
  | Ast.Stmt_query wq ->
    let columns, rows = query_ast t wq in
    Rows { columns; rows }
  | Ast.Stmt_insert { ins_table; ins_columns; ins_source = Ast.Ins_query wq } ->
    with_txn t (fun () -> do_insert t ~table:ins_table ~columns:ins_columns wq)
  | Ast.Stmt_update { upd_table; upd_alias; upd_sets; upd_where } ->
    with_txn t (fun () ->
        do_update t ~table:upd_table ~alias:upd_alias ~sets:upd_sets
          ~where:upd_where)
  | Ast.Stmt_delete { del_table; del_alias; del_where } ->
    with_txn t (fun () ->
        do_delete t ~table:del_table ~alias:del_alias ~where:del_where)
  | Ast.Stmt_create_table { ct_name; ct_source = Some wq; _ } ->
    (* CREATE TABLE AS: infer the schema from the query's head *)
    let g = build_qgm t wq in
    let schema =
      Array.of_list
        (List.map
           (fun hc ->
             Schema.column hc.Qgm.hc_name
               (Option.value ~default:Datatype.String hc.Qgm.hc_type))
           (Qgm.top_box g).Qgm.b_head)
    in
    (try ignore (Catalog.create_table t.catalog ~name:ct_name ~schema () : Table_store.t)
     with Catalog.Catalog_error msg -> error "%s" msg);
    (* CREATE TABLE AS replays as plain DDL (the inferred schema spelled
       out) followed by the populating inserts, which log as an ordinary
       transaction *)
    log_ddl t
      (Fmt.str "CREATE TABLE %s (%s)" ct_name
         (String.concat ", "
            (List.map
               (fun col ->
                 Fmt.str "%s %s" col.Schema.col_name
                   (Datatype.to_string col.Schema.col_type))
               (Array.to_list schema))));
    let n =
      match with_txn t (fun () -> do_insert t ~table:ct_name ~columns:None wq) with
      | Affected n -> n
      | _ -> 0
    in
    Message (Fmt.str "table %s created (%d rows)" ct_name n)
  | Ast.Stmt_create_table { ct_name; ct_columns; ct_storage; ct_source = None } ->
    let res = do_create_table t ~name:ct_name ~columns:ct_columns ~storage:ct_storage in
    log_ddl t (Pretty.statement_to_string stmt);
    res
  | Ast.Stmt_create_index { ci_name; ci_table; ci_kind; ci_columns } ->
    (try
       ignore
         (Catalog.create_index t.catalog ~name:ci_name ~table:ci_table
            ~kind:(Option.value ~default:"btree" ci_kind)
            ~columns:ci_columns)
     with Catalog.Catalog_error msg -> error "%s" msg);
    log_ddl t (Pretty.statement_to_string stmt);
    Message (Fmt.str "index %s created" ci_name)
  | Ast.Stmt_create_view { cv_name; cv_columns; cv_text } ->
    (* validate the definition now, as DDL should *)
    let _ =
      try Builder.build t.builder_cfg (Parser.query_text cv_text)
      with Builder.Semantic_error msg -> error "invalid view: %s" msg
    in
    (try Catalog.create_view t.catalog ~name:cv_name ~text:cv_text ?columns:cv_columns ()
     with Catalog.Catalog_error msg -> error "%s" msg);
    log_ddl t (Pretty.statement_to_string stmt);
    Message (Fmt.str "view %s created" cv_name)
  | Ast.Stmt_drop_table name ->
    (try Catalog.drop_table t.catalog name
     with Catalog.Catalog_error msg -> error "%s" msg);
    log_ddl t (Pretty.statement_to_string stmt);
    Message (Fmt.str "table %s dropped" name)
  | Ast.Stmt_drop_view name ->
    (try Catalog.drop_view t.catalog name
     with Catalog.Catalog_error msg -> error "%s" msg);
    log_ddl t (Pretty.statement_to_string stmt);
    Message (Fmt.str "view %s dropped" name)
  | Ast.Stmt_drop_index { di_table; di_name } ->
    (try Catalog.drop_index t.catalog ~table:di_table ~name:di_name
     with Catalog.Catalog_error msg -> error "%s" msg);
    log_ddl t (Pretty.statement_to_string stmt);
    Message (Fmt.str "index %s dropped" di_name)
  | Ast.Stmt_analyze None ->
    Catalog.analyze_all t.catalog;
    Message "statistics updated"
  | Ast.Stmt_analyze (Some name) ->
    ignore (Table_store.analyze (find_table t name));
    Catalog.bump_epoch t.catalog;
    Message (Fmt.str "statistics updated for %s" name)
  | Ast.Stmt_set (key, value) -> do_set t key value
  | Ast.Stmt_explain (Ast.Explain_rules, _) -> Message (rules_report t)
  | Ast.Stmt_explain (mode, Ast.Stmt_query wq) -> Message (explain t mode wq)
  | Ast.Stmt_explain
      (_, (Ast.Stmt_insert _ | Ast.Stmt_update _ | Ast.Stmt_delete _ as inner))
    ->
    (* DML under EXPLAIN runs as usual but reports its transaction *)
    let res = run_statement t inner in
    let n = match res with Affected n -> n | _ -> 0 in
    Message
      (Fmt.str "txn %d: %d row(s) affected" t.last_txn n)
  | Ast.Stmt_explain (_, inner) -> run_statement t inner

(* exception classification at the pipeline boundary: every failure
   escaping [run] becomes a structured [Error] carrying its stage, the
   statement text, and a retryable flag.  Asynchronous/fatal exceptions
   (Out_of_memory, Stack_overflow, ...) pass through unclassified. *)
let classify_exn (text : string) (exn : exn) : exn option =
  let mk ?retryable stage msg =
    Some (Error (Err.make ~query:text ?retryable stage msg))
  in
  match exn with
  | Error e | Err.Error e -> Some (Error (Err.with_query text e))
  | Parser.Parse_error (msg, _) -> mk Err.Parse ("parse error: " ^ msg)
  | Sb_hydrogen.Lexer.Lex_error (msg, _) -> mk Err.Parse ("lex error: " ^ msg)
  | Builder.Semantic_error msg | Functions.Function_error msg
  | Catalog.Catalog_error msg ->
    mk Err.Semantic msg
  | Qgm.Qgm_error msg -> mk Err.Rewrite msg
  | Generator.Unsupported msg | Star.Opt_error msg -> mk Err.Optimize msg
  | Value.Type_error msg | Table_store.Constraint_violation msg ->
    mk Err.Exec msg
  | Rule_audit.Unsound msg -> mk Err.Internal ("rule audit: " ^ msg)
  | Plan_check.Invalid_plan msg -> mk Err.Internal ("plan check: " ^ msg)
  | Failure msg -> mk Err.Internal msg
  | Invalid_argument msg -> mk Err.Internal msg
  | _ -> None

(* The statement boundary of {!run} and {!run_script}.  A simulated
   crash escaping a statement IS the process death: all volatile state
   — tables, views, buffered pages, the WAL's unflushed tail — is
   discarded atomically, and the failure surfaces as a structured
   Storage error; only recovery can bring the instance back.  Every
   other failure is classified by {!classify_exn}. *)
let at_boundary t (text : string) f =
  try f () with
  | Faults.Crashed site ->
    t.txn_changes <- [];
    Recovery.crash ~catalog:t.catalog;
    Metrics.add_counters (metrics t) [ ("sb_wal_crashes_total", None, 1) ];
    raise
      (Error
         (Err.make ~query:text Err.Storage
            (Fmt.str
               "simulated crash at %s: volatile state lost, recovery required"
               site)))
  | exn -> (
    match classify_exn text exn with
    | Some classified -> raise classified
    | None -> raise exn)

(** Parses and runs one statement. *)
let run t (text : string) : result =
  at_boundary t text (fun () ->
      run_statement t (stage t "parse" (fun () -> Parser.statement text)))

(** Parses and runs a [;]-separated script, returning each result. *)
let run_script t (text : string) : result list =
  at_boundary t text (fun () -> List.map (run_statement t) (Parser.script text))

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

(** Rebuilds the database from the stable log: one redo pass replays
    the last checkpoint and the DDL and Commit records after it, and a
    final ANALYZE refreshes statistics and bumps the
    epoch (cached plans cannot survive a crash).  Logging is suppressed
    for the duration — recovery must not write the history it reads.
    @raise Error (stage [Storage]) when a readable log record cannot be
    replayed: a broken log is reported, never guessed at. *)
let recover t : Recovery.stats =
  t.txn_changes <- [];
  t.txn_replaying <- true;
  Fun.protect ~finally:(fun () -> t.txn_replaying <- false) @@ fun () ->
  match
    Recovery.run ~catalog:t.catalog ~replay_ddl:(fun text ->
        ignore (run_statement t (Parser.statement text)))
  with
  | stats ->
    Metrics.add_counters (metrics t)
      [
        ("sb_recovery_runs_total", None, 1);
        ("sb_recovery_records_scanned_total", None, stats.Recovery.r_records);
        ("sb_recovery_records_redone_total", None, stats.Recovery.r_redone);
        ("sb_recovery_torn_records_total", None, stats.Recovery.r_truncated);
      ];
    stats
  | exception Err.Error e -> raise (Error e)
  | exception exn -> (
    (* a replayed record that trips the parser or a constraint means
       the log is broken: a Storage error, whatever the stage *)
    match classify_exn "" exn with
    | Some (Error e) -> raise (Error (Err.make Err.Storage ("recovery: " ^ Err.to_string e)))
    | _ -> raise exn)

(** Renders a [Rows] result as an aligned table. *)
let render_result ?registry (r : result) : string =
  match r with
  | Message m -> m
  | Affected n -> Fmt.str "%d row(s) affected" n
  | Rows { columns; rows } ->
    let cells =
      columns
      :: List.map
           (fun row ->
             Array.to_list (Array.map (fun v -> Value.to_string ?registry v) row))
           rows
    in
    let ncols = List.length columns in
    let widths = Array.make ncols 0 in
    List.iter
      (List.iteri (fun i s ->
           if i < ncols then widths.(i) <- max widths.(i) (String.length s)))
      cells;
    let line fill =
      "+"
      ^ String.concat "+"
          (Array.to_list (Array.map (fun w -> String.make (w + 2) fill) widths))
      ^ "+"
    in
    let render_row cells_row =
      "|"
      ^ String.concat "|"
          (List.mapi
             (fun i s ->
               Fmt.str " %s%s " s (String.make (widths.(i) - String.length s) ' '))
             cells_row)
      ^ "|"
    in
    String.concat "\n"
      ([ line '-'; render_row columns; line '-' ]
      @ List.map render_row (List.tl cells)
      @ [ line '-'; Fmt.str "%d row(s)" (List.length rows) ])
