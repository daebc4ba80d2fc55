(** STARs — STrategy Alternative Rules (section 6, [LOHM88]).

    Executable plans are defined by a grammar-like set of parameterized
    production rules: a STAR has a name (a nonterminal), parameters (the
    {!payload}), and one or more alternative definitions in terms of
    LOLEPOPs or other STARs, gated by IF-conditions and ranks.  The
    three aspects the paper keeps orthogonal — the STAR array, the rule
    evaluator ({!invoke}), and the search {!strategy} — are separate
    values, so each can be replaced independently. *)

module Qgm = Sb_qgm.Qgm
module Ast = Sb_hydrogen.Ast
open Sb_storage

(** Parameters passed to a STAR invocation; [make_payload] fills
    defaults for the fields an invocation does not use. *)
type payload = {
  pl_quant : int;  (** QGM quantifier the plans are for *)
  pl_table : string;  (** base table (TableAccess) *)
  pl_stats : Stats.t;
  pl_cols : int list;  (** base columns needed *)
  pl_preds : Plan.rexpr list;  (** predicates over base column indices *)
  pl_info : Cost.slot_info;
  pl_attachments : Access_method.instance list;
  pl_outer : Plan.plan option;
  pl_inner : Plan.plan option;
  pl_kind : Plan.join_kind;
  pl_equi : (int * int) list;
  pl_pred : Plan.rexpr option;
  pl_kind_pred : Plan.rexpr option;
  pl_corr : Plan.rexpr list;
  pl_bound : bool;  (** inner owns its parameter space (subquery joins) *)
  pl_keys : (int * Ast.order_dir) list;  (** required order (glue) *)
  pl_site : string;  (** required site (glue) *)
  pl_plan : Plan.plan option;  (** subject of glue STARs *)
}

val make_payload :
  ?quant:int ->
  ?table:string ->
  ?stats:Stats.t ->
  ?cols:int list ->
  ?preds:Plan.rexpr list ->
  ?info:Cost.slot_info ->
  ?attachments:Access_method.instance list ->
  ?outer:Plan.plan ->
  ?inner:Plan.plan ->
  ?kind:Plan.join_kind ->
  ?equi:(int * int) list ->
  ?pred:Plan.rexpr ->
  ?kind_pred:Plan.rexpr ->
  ?corr:Plan.rexpr list ->
  ?bound:bool ->
  ?keys:(int * Ast.order_dir) list ->
  ?site:string ->
  ?plan:Plan.plan ->
  unit ->
  payload

(** Recognizes an index probe for an attachment given the available
    predicates (over base column indices): returns the probe, its
    selectivity (negative = compute from statistics), and the predicates
    it fully absorbs. *)
type probe_matcher =
  Access_method.instance ->
  Plan.rexpr list ->
  (Plan.probe_spec * float * Plan.rexpr list) option

type ctx = {
  catalog : Catalog.t;
  stars : (string, star) Hashtbl.t;  (** the STAR array *)
  probe_matchers : probe_matcher list ref;
  mutable strategy : strategy;
  site_of : string -> string;
  mutable invocations : int;  (** STAR invocations (bench accounting) *)
  mutable plans_generated : int;  (** plans produced before pruning *)
  mutable plans_pruned : int;  (** plans discarded by the strategy *)
  mutable tracer : Sb_obs.Trace.t;  (** spans per expansion when enabled *)
  mutable governor : Sb_resil.Limits.gov option;
      (** per-query plan-node budget, charged on every expansion *)
}

and star = { star_name : string; mutable alternatives : alternative list }

and alternative = {
  alt_name : string;
  alt_rank : int;  (** alternatives above the strategy's rank are pruned *)
  alt_cond : ctx -> payload -> bool;
  alt_produce : ctx -> payload -> Plan.plan list;
}

and strategy = {
  st_name : string;
  st_max_rank : int;
  st_order : alternative list -> alternative list;
      (** evaluation order — the prioritized-queue mechanism *)
  st_prune : Plan.plan list -> Plan.plan list;
      (** which generated plans survive (interesting-property pruning) *)
}

exception Opt_error of string

(** Evaluates a STAR: filters alternatives by rank and condition, orders
    them per the strategy, evaluates each, and prunes the union.
    @raise Opt_error if no plan is produced. *)
val invoke : ctx -> string -> payload -> Plan.plan list

(** Registers a STAR, merging alternatives if the name exists. *)
val register : ctx -> string -> alternative list -> unit

val star_count : ctx -> int
val alternative_count : ctx -> int

(** Does [have] satisfy [want] as an order prefix? *)
val order_satisfies :
  have:(int * Ast.order_dir) list -> want:(int * Ast.order_dir) list -> bool

(** Does [q] strictly dominate [p] — same site, no worse on cost,
    cardinality, distinctness and [p]'s order, strictly better on cost
    or cardinality? *)
val dominates : Plan.plan -> Plan.plan -> bool

(** Keep the cheapest plan overall plus the cheapest per interesting
    property combination (order, site, distinct), after discarding
    strictly {!dominates}-dominated plans. *)
val interesting_prune : ?max_plans:int -> Plan.plan list -> Plan.plan list

(** Rank-ordered alternatives, interesting-property pruning (default). *)
val default_strategy : strategy

(** First applicable rank-0 alternative only. *)
val greedy_strategy : strategy

val create : catalog:Catalog.t -> site_of:(string -> string) -> unit -> ctx

(** Another session's context: the STAR array and probe matchers
    shared, the rest as {!create} starts it. *)
val session : ctx -> ctx
