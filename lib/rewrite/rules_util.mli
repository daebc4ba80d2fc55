(** Shared helpers for writing rewrite rules ("a rich set of primitives
    for manipulating query graphs"). *)

module Qgm = Sb_qgm.Qgm

val single_user : Qgm.t -> Qgm.box_id -> Qgm.quant option
val has_single_user : Qgm.t -> Qgm.box_id -> bool

(** No extension setformer (such as PF) in the body — the conservative
    condition keeping base rules off extension operations. *)
val plain_setformers : Qgm.box -> bool

(** A box whose body may both give away and absorb predicates. *)
val is_plain_select : Qgm.t -> Qgm.box -> bool

(** Rewrites [e], replacing references through the quantifier by the
    head expressions of its input box; [None] when a referenced head
    column has no expression (base tables etc.). *)
val inline_through : Qgm.t -> Qgm.quant -> Qgm.expr -> Qgm.expr option

(** Applies a column-reference substitution across the whole graph,
    covering correlated references from nested boxes. *)
val subst_everywhere : Qgm.t -> (Qgm.quant_id -> int -> Qgm.expr option) -> unit

val col_used_anywhere : Qgm.t -> Qgm.quant_id -> int -> bool

(** Number of [Quantified] nodes consuming the quantifier. *)
val quantified_uses : Qgm.t -> Qgm.quant_id -> int

(** Is head column [i] of the box under the quantifier a derived key of
    that box?  A prover query against {!Sb_analysis.Infer} (statistics
    are never trusted): catalog UNIQUE declarations, GROUP BY and
    DISTINCT heads, and key-preserving selects all qualify. *)
val derives_unique :
  Qgm.t -> Qgm.quant -> int -> catalog:Sb_storage.Catalog.t -> bool

(** Can column [i] seen through the quantifier never be NULL?  Inference
    propagates declared NOT NULL through selects; extension setformers
    (outer-join PF) NULL-pad, so nothing survives them. *)
val derives_not_null :
  Qgm.t -> Qgm.quant -> int -> catalog:Sb_storage.Catalog.t -> bool

(** Is the expression a reflexive equality [c = c] over one column
    that can never be NULL (so TRUE on every row)? *)
val reflexive_not_null : Qgm.t -> Qgm.expr -> catalog:Sb_storage.Catalog.t -> bool

(** Does the head-column set cover a derived key of the box?  The empty
    set covers exactly the boxes with a single-row guarantee (per
    binding of any correlated outer quantifier). *)
val derives_key :
  Qgm.t -> Qgm.box_id -> int list -> catalog:Sb_storage.Catalog.t -> bool

(** Removes a predicate by physical identity. *)
val remove_pred : Qgm.box -> Qgm.pred -> unit

val pred_exists : Qgm.box -> Qgm.expr -> bool

(** Interposes a fresh identity SELECT box between the quantifier and
    its input (a place for predicates below set operations, recursion
    seeds and outer joins). *)
val interpose_select : Qgm.t -> Qgm.quant -> Qgm.box
