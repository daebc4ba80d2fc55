(** The database customizer's (DBC's) interface: every extension point
    Corona and Core expose, in one place.

    A DBC may add — without touching base-system code — new column
    datatypes; scalar / aggregate / set-predicate / table functions;
    storage managers and access-method kinds (Core attachments,
    including integrity constraints); query-rewrite rules; optimizer
    STAR alternatives and index probe matchers; QES join kinds and
    SELECT-box plan handlers; and new table operations in the language.
    Each registry is the database's: a registration through any
    {!Corona.session} reaches every session, and a duplicate name
    raises the registry's error.  Register before statements are
    served; sessions then read the registries without a lock. *)

open Sb_storage
module Functions = Sb_hydrogen.Functions
module Rule = Sb_rewrite.Rule
module Star = Sb_optimizer.Star
module Generator = Sb_optimizer.Generator
module Exec = Sb_qes.Exec

type t = Corona.t

(** {1 Language extensions} *)

val register_datatype : t -> Datatype.ext_ops -> unit
val register_scalar_function : t -> Functions.scalar_fn -> unit
val register_aggregate_function : t -> Functions.aggregate_fn -> unit
val register_set_predicate : t -> Functions.set_predicate_fn -> unit
val register_table_function : t -> Functions.table_fn -> unit

(** Enables an extension table operation in the language (e.g.
    ["left_outer_join"]); the builder refuses the syntax until then. *)
val enable_operation : t -> string -> unit

(** {1 Data management extensions (Core attachments)} *)

val register_storage_manager : t -> Storage_manager.factory -> unit
val register_access_method : t -> Access_method.kind -> unit

(** Assigns tables to (simulated) sites; the optimizer inserts SHIP
    operators and charges network cost for cross-site access. *)
val set_site_map : t -> (string -> string) -> unit

(** {1 Query rewrite extensions} *)

val register_rewrite_rule : t -> Rule.t -> unit

(** Registers a declarative ({!Sb_ruledsl.Dsl}) rewrite rule through the
    static verifier; returns the verification status ([Verified], or
    [Conditional] with runtime guards auto-inserted).
    @raise Corona.Error when the verifier rejects the rule. *)
val register_dsl_rewrite_rule :
  t -> Sb_ruledsl.Dsl.rule -> Sb_ruledsl.Verify.status

val rewrite_rule_classes : t -> string list

(** {1 Optimizer extensions} *)

(** Adds alternatives to an existing STAR, or creates a new one. *)
val register_star : t -> string -> Star.alternative list -> unit

val register_probe_matcher : t -> Star.probe_matcher -> unit

(** A handler consulted for SELECT boxes containing extension
    setformers (e.g. PF); the first handler returning a plan wins. *)
val register_select_handler :
  t -> (Generator.t -> Generator.env -> Sb_qgm.Qgm.t -> Sb_qgm.Qgm.box -> Sb_optimizer.Plan.plan option) -> unit

(** {1 QES extensions} *)

val register_join_kind : t -> string -> Exec.kind_impl -> unit
