(** The plan optimizer driver: optimizes each QGM operation
    independently, bottom up, using the rule-driven plan generator
    (STARs) and the join enumerator (section 6, [ONO88]).

    Correlated subqueries compile to parameterized subplans; their
    parameters surface as [RParam]s bound by the enclosing join's
    evaluate-on-demand machinery at run time.  Setformers correlated
    with siblings (laterals) are applied through parameter-bound
    nested-loop joins after the commutative enumeration. *)

module Qgm = Sb_qgm.Qgm
module Functions = Sb_hydrogen.Functions
open Sb_storage

exception Unsupported of string

type t = {
  cat : Catalog.t;
  fns : Functions.t;
  sctx : Star.ctx;
  mutable allow_bushy : bool;  (** composite inners ("bushy trees") *)
  mutable allow_cartesian : bool;
  select_handlers : (t -> env -> Qgm.t -> Qgm.box -> Plan.plan option) list ref;
      (** extension hooks for SELECT boxes with extension setformers
          (e.g. the outer-join extension's PF handler) *)
  mutable use_analysis : bool;
      (** consult property inference ({!Sb_analysis.Infer}) to tighten
          cardinality estimates (key-covered joins, row bounds); on by
          default *)
  mutable analysis : Sb_analysis.Infer.t option;
      (** inferred properties of the graph last optimized *)
  (* join-enumerator accounting, read by the bench harness *)
  mutable enum_subsets : int;
  mutable enum_pairs : int;
}

(** One parameter-collection environment; a fresh one is opened at every
    subplan boundary. *)
and env

(** A generator over [catalog] with the base STAR array installed. *)
val create : catalog:Catalog.t -> functions:Functions.t -> unit -> t

(** Another session's generator: the select handlers and
    {!Star.session} shared, the rest as {!create} starts it. *)
val session : t -> t

(** Selectivity info for a plan, resolving slot provenance to base-table
    statistics through the QGM graph. *)
val plan_info : t -> Qgm.t -> Plan.plan -> Cost.slot_info

(** Compiles a QGM expression to a runtime expression.  [slotmap]
    resolves local column references to slots; anything unresolvable
    becomes a correlation parameter of [env]. *)
val compile_expr :
  t ->
  g:Qgm.t ->
  env:env ->
  slotmap:(int * int -> int option) ->
  Qgm.expr ->
  Plan.rexpr

(** Splits join conjuncts into equi slot pairs [(outer slot, inner
    slot)] — a column equality with one side in each input, either way
    round — and the rest, each list in reverse order of the input.  The
    equi pairs enable hash and merge joins. *)
val split_equi :
  outer:Plan.plan -> inner:Plan.plan -> Qgm.expr list -> (int * int) list * Qgm.expr list

(** Plans for iterating one quantifier, with [preds] pushed as close to
    the data as possible (used by extension plan handlers). *)
val access_plans :
  ?all_cols:bool -> t -> g:Qgm.t -> env:env -> Qgm.quant -> Qgm.expr list -> Plan.plan list

(** Compiles a box to a plan whose output slots are the box's head
    columns; returns the plan and its correlation parameters. *)
val compile_box :
  t -> g:Qgm.t -> ?rec_ctx:(int * int) list -> int -> Plan.plan * (int * int) array

(** Optimizes the whole QGM (the top box's head columns become the
    output slots).
    @raise Unsupported for constructs outside the planner's scope. *)
val optimize : t -> Qgm.t -> Plan.plan
