(** Query evaluation plans: trees of LOLEPOPs (LOw-LEvel Plan OPerators,
    section 6) over streams of tuples, plus the runtime expression
    language they evaluate.

    Each LOLEPOP "is expressed as a function that operates on 0 or more
    streams of tuples, and produces 0 or more new streams"; a plan is a
    nesting of such invocations.  Properties (relational / operational /
    estimated) summarize each plan's output table and are updated by
    each operator's property function (in {!Cost}). *)

open Sb_storage
module Ast = Sb_hydrogen.Ast

(** Join {e methods} are control structures, join {e kinds} are the
    functions performed during the join (section 7); the two compose,
    though not every method suits every kind. *)
type join_method = Nested_loop | Sort_merge | Hash_join

type join_kind =
  | J_regular
  | J_exists  (** semi-join: emit outer when some inner matches *)
  | J_all  (** op-ALL join: emit outer when predicate holds for all inner *)
  | J_scalar  (** scalar-subquery join: append the single inner value *)
  | J_set_pred of string  (** DBC set-predicate function, e.g. majority *)
  | J_ext of string  (** extension kinds, e.g. "left_outer" *)

val join_kind_name : join_kind -> string
val join_method_name : join_method -> string

(** Runtime expressions, evaluated over a tuple of {e slots} plus bound
    correlation {e parameters}.  [RSub] embeds a whole subplan — the
    uniform mechanism behind residual subquery predicates and the OR
    operator. *)
type rexpr =
  | RLit of Value.t
  | RCol of int  (** slot of the input tuple *)
  | RParam of int  (** correlation parameter *)
  | RHost of string  (** host-language variable, bound at execution *)
  | RBin of Ast.binop * rexpr * rexpr
  | RUn of Ast.unop * rexpr
  | RFun of string * rexpr list
  | RCase of (rexpr * rexpr) list * rexpr option
  | RIs_null of rexpr
  | RLike of rexpr * string
  | RSub of sub_spec  (** quantified subquery as a predicate *)
  | RScalar_sub of scalar_sub_spec  (** scalar subquery as a value *)

and sub_spec = {
  sub_kind : sub_kind;
  sub_plan : plan;
  sub_params : rexpr list;  (** evaluated over the outer tuple *)
  sub_pred : rexpr;
      (** per-inner-row predicate: [RCol] = inner slots, [RParam] = the
          parameters above *)
}

and sub_kind = Sk_exists | Sk_all | Sk_set_pred of string

and scalar_sub_spec = { ssub_plan : plan; ssub_params : rexpr list }

and probe_spec =
  | Pr_eq of rexpr list
  | Pr_range of (rexpr * bool) option * (rexpr * bool) option
  | Pr_custom of string * rexpr list  (** extension probe, e.g. overlaps *)

and op =
  | Scan of {
      sc_table : string;
      sc_cols : int list;  (** base columns kept, in output-slot order *)
      sc_preds : rexpr list;  (** over base column indices (paper's SCAN) *)
    }
  | Idx_access of {
      ix_table : string;
      ix_index : string;
      ix_probe : probe_spec;
      ix_cols : int list;
      ix_preds : rexpr list;  (** residual, applied after fetch *)
    }
  | Idx_and of {
      ia_table : string;
      ia_probes : (string * probe_spec) list;  (** index name, probe *)
      ia_cols : int list;
      ia_preds : rexpr list;
    }
      (** index ANDing (section 6): intersect the rid sets of several
          probes, then fetch each surviving record once *)
  | Filter of rexpr list  (** conjunctive *)
  | Or_filter of rexpr list
      (** the OR operator (section 7): disjuncts evaluated left to
          right; a tuple rejected by one is handed to the next *)
  | Project of rexpr list  (** one expression per output slot *)
  | Sort of (int * Ast.order_dir) list
  | Join of {
      j_method : join_method;
      j_kind : join_kind;
      j_equi : (int * int) list;  (** outer slot, inner slot *)
      j_pred : rexpr option;  (** over the concatenated [outer @ inner] *)
      j_corr : rexpr list;
          (** correlation parameter sources, over outer slots; inner is
              re-evaluated on demand when these change *)
      j_bound : bool;
          (** the inner plan owns its parameter space: its [RParam]s are
              bound positionally from [j_corr] (subquery/lateral joins) *)
      j_kind_pred : rexpr option;
          (** for quantified kinds: per-inner-row truth over
              [outer @ inner] slots *)
    }
  | Group of {
      g_keys : int list;
      g_aggs : (string * bool * int option) list;
          (** name, distinct, argument slot ([None] = count of rows) *)
      g_sorted : bool;  (** input already ordered by the keys *)
    }
  | Distinct_op
  | Union_all
  | Intersect_op of bool  (** ALL? *)
  | Except_op of bool  (** ALL? *)
  | Temp  (** materialize the input stream *)
  | Ship of string  (** move the stream to a site *)
  | Limit_op of int
  | Values_scan of rexpr list list
  | Table_fn_scan of { tf_name : string; tf_args : rexpr list }
  | Bloom_filter of {
      bl_subject_key : int;  (** key slot of input 0 (the filtered side) *)
      bl_source_key : int;  (** key slot of input 1 (the key source) *)
      bl_bits : int;
    }
      (** Bloom-join reduction [MACK86]: pass input-0 rows whose key may
          appear among input 1's keys; a join above re-verifies *)
  | Fixpoint of { fx_distinct : bool }
      (** recursion driver: inputs = [seed; step]; the step contains a
          [Rec_delta] leaf re-bound to the newest delta each round *)
  | Rec_delta of { rd_width : int }
  | Choose_op
      (** runtime CHOOSE (section 5 / [GRAE89]); refinement resolves it *)

and props = {
  (* relational *)
  p_quants : int list;  (** QGM quantifiers covered (sorted) *)
  p_slots : (int * int) array;
      (** provenance of each output slot: [(quant, col)], or [(-1, _)]
          for computed values *)
  (* operational *)
  p_order : (int * Ast.order_dir) list;  (** output order, by slot *)
  p_site : string;
  p_distinct : bool;  (** output known duplicate-free *)
  (* estimated *)
  p_cost : float;  (** cumulative *)
  p_card : float;  (** estimated output rows *)
}

and plan = { op : op; inputs : plan list; props : props }

val width : plan -> int

(** Output slot currently carrying [(quant, col)], if any. *)
val slot_of : plan -> int * int -> int option

val computed_slot : int * int

(** {1 Rexpr utilities} *)

(** Bottom-up rewriting; descends into [RSub]/[RScalar_sub] parameter
    lists but not into their plans or inner predicates (those live in
    their own slot/parameter spaces). *)
val map_rexpr : (rexpr -> rexpr) -> rexpr -> rexpr

val shift_slots : (int -> int) -> rexpr -> rexpr
val fold_rexpr : ('a -> rexpr -> 'a) -> 'a -> rexpr -> 'a
val slots_used : rexpr -> int list
val rexpr_has_sub : rexpr -> bool

(** {1 Pretty-printing (EXPLAIN PLAN)} *)

val pp_rexpr : Format.formatter -> rexpr -> unit
val op_name : op -> string
val op_detail : op -> string
val pp : ?indent:int -> Format.formatter -> plan -> unit
val to_string : plan -> string

(** Operator count. *)
val size : plan -> int

(** Rewrites every runtime expression of a plan in the {e current}
    parameter space: descends through inputs but not into the inner
    plans of parameter-bound joins nor into embedded subplans. *)
val map_plan_rexprs : (rexpr -> rexpr) -> plan -> plan

(** Renumbers correlation parameters: [RParam i] becomes
    [RParam (remap i)]. *)
val renumber_params : (int -> int) -> plan -> plan
