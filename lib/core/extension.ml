(** The database customizer's (DBC's) interface: every extension point
    Corona and Core expose, in one place.

    A DBC may add — without touching base-system code —
    {ul
    {- new column datatypes ({!register_datatype});}
    {- new scalar / aggregate / set-predicate / table functions;}
    {- new storage managers and access-method kinds (Core attachments);}
    {- new query-rewrite rules, in existing or new rule classes;}
    {- new optimizer STARs / alternatives, and index probe matchers;}
    {- new join kinds and SELECT-box plan handlers in the QES;}
    {- new table operations in the language (enabled by name).}} *)

open Sb_storage
module Functions = Sb_hydrogen.Functions
module Rule = Sb_rewrite.Rule
module Star = Sb_optimizer.Star
module Generator = Sb_optimizer.Generator
module Exec = Sb_qes.Exec

type t = Corona.t

(* --- language extensions --- *)

let register_datatype (db : t) ops =
  Datatype.register db.Corona.catalog.Catalog.datatypes ops

let register_scalar_function (db : t) f =
  Functions.register_scalar db.Corona.functions f

let register_aggregate_function (db : t) f =
  Functions.register_aggregate db.Corona.functions f

let register_set_predicate (db : t) f =
  Functions.register_set_predicate db.Corona.functions f

let register_table_function (db : t) f =
  Functions.register_table_fn db.Corona.functions f

(** Enables an extension table operation in the language (e.g.
    ["left_outer_join"]); the builder refuses the syntax until then. *)
let enable_operation (db : t) name =
  let cfg = db.Corona.builder_cfg in
  if not (List.mem name cfg.Sb_qgm.Builder.enabled_ops) then
    cfg.Sb_qgm.Builder.enabled_ops <- name :: cfg.Sb_qgm.Builder.enabled_ops

(* --- data management extensions (Core attachments) --- *)

let register_storage_manager (db : t) factory =
  Storage_manager.register db.Corona.catalog.Catalog.storage_managers factory

let register_access_method (db : t) kind =
  Access_method.register db.Corona.catalog.Catalog.access_methods kind

(** Assigns tables to (simulated) sites; the optimizer inserts SHIP
    operators and charges network cost for cross-site access. *)
let set_site_map (db : t) site_of = db.Corona.catalog.Catalog.site_of <- site_of

(* --- query rewrite extensions --- *)

let register_rewrite_rule (db : t) rule = Rule.add db.Corona.rules rule

(** The verified path: the declarative rule is statically checked at
    registration (obligations proved, or guarded, or the registration
    refused with a structured error) — unlike {!register_rewrite_rule},
    whose closures the system must take on trust. *)
let register_dsl_rewrite_rule (db : t) rule = Corona.register_dsl_rule db rule

let rewrite_rule_classes (db : t) = Rule.classes db.Corona.rules

(* --- optimizer extensions --- *)

let register_star (db : t) name alternatives =
  Star.register db.Corona.optimizer.Generator.sctx name alternatives

let append registry x = registry := !registry @ [ x ]

let register_probe_matcher (db : t) matcher =
  append db.Corona.optimizer.Generator.sctx.Star.probe_matchers matcher

let register_select_handler (db : t) handler =
  append db.Corona.optimizer.Generator.select_handlers handler

(* --- QES extensions --- *)

let register_join_kind (db : t) name impl =
  Exec.register_join_kind db.Corona.exec_db name impl
