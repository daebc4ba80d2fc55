(** The Query Graph Model (QGM), section 4 of the paper.

    A query is a graph of {e boxes} (operations on tables), each with a
    {e head} (the output table's columns) and a {e body}: {e quantifiers}
    (iterators ranging over input tables — the vertices with dotted
    range edges of Figure 2) and {e predicates} (qualifier edges).

    E/A/SP quantifiers are {e consumed} inside predicate expressions
    through the {!constructor:Quantified} node, so a subquery under a
    disjunction (the paper's OR-operator case) is directly representable
    while the common conjunct case stays easy for rewrite rules to
    match.  The graph is mutable: rewrite rules transform it in place,
    as in the paper. *)

open Sb_storage

(** Quantifier types: [F] ForEach setformers contribute rows to the
    output; [E]/[A] are existential/universal subquery quantifiers; [S]
    is a scalar subquery; [SP name] a DBC set-predicate function; and
    [Ext name] covers extension setformer types such as the outer-join
    extension's ["PF"] (Preserve-ForEach). *)
type quant_type =
  | F
  | E
  | A
  | S
  | SP of string  (** DBC set-predicate quantifier, e.g. MAJORITY *)
  | Ext of string  (** extension setformer types, e.g. PF *)

val quant_type_name : quant_type -> string

type box_id = int
type quant_id = int

type expr =
  | Lit of Value.t
  | Col of quant_id * int  (** column [i] of the quantifier's input table *)
  | Host of string
  | Bin of Sb_hydrogen.Ast.binop * expr * expr
  | Un of Sb_hydrogen.Ast.unop * expr
  | Fun of string * expr list
  | Agg of string * bool * expr option
      (** aggregate over the group; legal only in GROUP BY box heads *)
  | Case of (expr * expr) list * expr option
  | Is_null of expr
  | Like of expr * string
  | Quantified of quant_id * expr
      (** truth of [expr] over the (E/A/SP) quantifier's range *)

type kind =
  | Base_table of string  (** stored table; no body *)
  | Select  (** select / project / join *)
  | Group_by of expr list  (** grouping expressions *)
  | Set_op of Sb_hydrogen.Ast.set_op * bool  (** operator, ALL? *)
  | Values_box of expr list list
  | Table_fn of string * expr list  (** DBC table function + value args *)
  | Choose  (** rewrite-generated alternatives; quants are alternatives *)
  | Ext_op of string  (** extension table operation *)

type head_col = {
  hc_name : string;
  mutable hc_type : Datatype.t option;
  mutable hc_expr : expr option;  (** [None] only for body-less boxes *)
}

type pred = {
  mutable p_expr : expr;
  mutable p_marks : string list;
      (** rule bookkeeping, e.g. "pushed" tags preventing re-derivation *)
}

val pred : expr -> pred
val pred_marked : pred -> string -> bool
val mark_pred : pred -> string -> unit

type quant = {
  q_id : quant_id;
  mutable q_type : quant_type;
  mutable q_input : box_id;  (** the range edge's target *)
  mutable q_parent : box_id;
  q_label : string;
}

type box = {
  b_id : box_id;
  mutable b_kind : kind;
  mutable b_head : head_col list;
  mutable b_quants : quant list;
  mutable b_preds : pred list;
  mutable b_distinct : bool;  (** output duplicates eliminated *)
  mutable b_order : (expr * Sb_hydrogen.Ast.order_dir) list;
  mutable b_limit : int option;
  mutable b_label : string;
}

type t = {
  boxes : (box_id, box) Hashtbl.t;
  quants : (quant_id, quant) Hashtbl.t;
  mutable top : box_id;
  mutable next_box : int;
  mutable next_quant : int;
}

exception Qgm_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

val create : unit -> t

(** @raise Qgm_error on unknown ids. *)
val box : t -> box_id -> box

val quant : t -> quant_id -> quant
val top_box : t -> box

val new_box : t -> ?label:string -> kind -> box

(** Creates a quantifier and appends it to the parent's body. *)
val new_quant : t -> ?label:string -> parent:box_id -> input:box_id -> quant_type -> quant

val remove_quant : t -> quant -> unit
val delete_box : t -> box_id -> unit

(** {1 Expression utilities} *)

val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a

(** Bottom-up rewriting. *)
val map_expr : (expr -> expr) -> expr -> expr

(** Quantifier ids referenced (including inside [Quantified]). *)
val quant_refs : expr -> quant_id list

(** Column references [(quant, col)]. *)
val col_refs : expr -> (quant_id * int) list

(** Applies the function to every expression of a box: head,
    predicates, ORDER BY, GROUP BY keys, VALUES rows and table-function
    arguments. *)
val iter_box_exprs : (expr -> unit) -> box -> unit

val contains_agg : expr -> bool
val contains_quantified : expr -> bool
val contains_host : expr -> bool

(** Replaces [Col (q, i)] nodes for which the substitution returns a
    replacement. *)
val subst_cols : (quant_id -> int -> expr option) -> expr -> expr

val equal_expr : expr -> expr -> bool

(** {1 Graph navigation} *)

(** All quantifiers (anywhere) ranging over the box. *)
val users_of_box : t -> box_id -> quant list

(** Boxes reachable from the top through range edges (cycle-safe),
    top first. *)
val reachable_boxes : t -> box list

(** Removes boxes unreachable from the top (rewrite-rule garbage). *)
val garbage_collect : t -> unit

(** Is the box part of a range-edge cycle (i.e. recursive)? *)
val is_recursive : t -> box_id -> bool

val arity : box -> int

(** @raise Qgm_error when out of range. *)
val head_col : box -> int -> head_col

(** Output type of column [i] of the box a quantifier ranges over. *)
val col_type : t -> quant -> int -> Datatype.t option

(** Setformer quantifiers ([F] and extension setformer types). *)
val setformers : box -> quant list

(** Subquery quantifiers ([E]/[A]/[S]/[SP]). *)
val subquery_quants : box -> quant list

val preds_on : box -> quant -> pred list

(** Top-level conjuncts of an expression. *)
val conjuncts : expr -> expr list

val conjoin : expr list -> expr

(** Copies the subgraph rooted at [root], remapping quantifier
    references; boxes for which [share] holds (default: base tables) are
    shared rather than copied.  Correlated references to quantifiers
    outside the subgraph are preserved.  Returns the copy's root id. *)
val copy_subgraph : t -> ?share:(box -> bool) -> box_id -> box_id
