(** A declarative language for QGM rewrite rules.

    The paper's rules are C condition/action function pairs; OCaml
    closures would be the direct translation — and the classic bug in
    such rules is a hand-rolled safety guard the author forgot.  This
    module makes the rule {e data}: a [pattern] — an ordered list of
    atoms, each either a {e generator} (enumerating candidates from the
    box the rule engine is visiting, in document order) or a {e test} —
    and an [actions] template over the metavariables the pattern binds.
    The declarative form is what lets {!Verify} read a rule's semantics
    off its syntax at registration time: which predicate moves where,
    which quantifier disappears, what the action adds — and so which
    side-conditions must hold for the rewrite to be sound.

    Matching is backtracking first-solution: atoms are tried in order,
    a generator's candidates are enumerated in document order
    ([b_preds] list order, equality-major for replication), and a failed
    test backtracks to the next candidate, so a rule's choice of
    candidate — and therefore its rewrite — is deterministic. *)

module Qgm = Sb_qgm.Qgm
module Ast = Sb_hydrogen.Ast

(** A metavariable.  Bound by generators/binders, consumed by tests and
    actions; scope-checked by {!Verify.verify}. *)
type var = string

(** What a metavariable holds once bound. *)
type value =
  | V_pred of Qgm.pred
  | V_quant of Qgm.quant
  | V_box of Qgm.box
  | V_expr of Qgm.expr
  | V_op of Ast.binop
  | V_int of int

type binding = (var * value) list

(** Box-kind patterns, for the current box and for bound box
    metavariables. *)
type kind_pat =
  | K_select
  | K_group_by
  | K_set_op
  | K_base_table
  | K_ext  (** an extension operation (NULL-padding outer join etc.) *)
  | K_select_or_group_by

(** Shallow expression patterns — enough to constrain a predicate
    metavariable's shape so the verifier can reason about it
    schematically. *)
type epat =
  | E_any
  | E_true  (** the literal TRUE *)
  | E_null_lit  (** the literal NULL *)
  | E_is_null  (** [IS NULL] over a column — provably non-strict *)
  | E_cmp  (** [Col op Lit] comparison — provably strict *)

(** Pattern atoms.  Generators bind their variables to successive
    candidates; tests filter.  The variable-binding discipline is
    mechanical: {!binds} and {!uses} below drive the scope check. *)
type atom =
  (* --- generators over the current box --- *)
  | Each_pred of var  (** every predicate of the current box, in order *)
  | Each_eq_col_pred of { pred : var; keep : var; drop : var; col : var }
      (** predicates [q1.i = q2.i] over two distinct quantifiers and the
          same column index; binds the pred, both quantifiers and the
          index *)
  | Each_eq_pair of { left : var; right : var }
      (** predicates [Col = Col] with distinct column refs; binds the
          two column expressions *)
  | Each_restriction of { col : var; op : var; lit : var }
      (** predicates [Col op Lit] (or flipped, normalized); binds the
          column expression, the comparison and the literal *)
  (* --- tests and binders --- *)
  | Box_kind of kind_pat  (** the current box's kind *)
  | Pred_matches of var * epat
  | Movable of var
      (** no subquery consumption, no aggregates in the predicate *)
  | Not_marked of var * string
  | Sole_quant_ref of { pred : var; quant : var }
      (** the predicate references exactly one quantifier; binds it *)
  | Quant_parent_here of var  (** the quantifier belongs to this box *)
  | Quant_type_f of var
  | Input_box of { quant : var; box : var }  (** binds the input box *)
  | Kind_is of var * kind_pat
  | Plain_select of var
  | Not_top of var
  | Single_user of var
  | Head_all_exprs of var
  | Not_recursive of var
  | Group_keys_passthrough of { pred : var; box : var }
      (** every column the predicate references is a pass-through
          GROUP BY key of the box *)
  | Inline of { pred : var; quant : var; out : var }
      (** binds [out] to the predicate inlined through the quantifier
          (head expressions substituted); fails on expression-less
          heads *)
  | Replica of { left : var; right : var; col : var; op : var; lit : var;
                 out : var }
      (** from [left = right] and [col op lit] where [col] is one side
          of the equality, binds [out] to the replica on the other
          side *)
  | Not_exists_here of var  (** no equal predicate already on this box *)
  | Not_already_pushed of var
      (** the expression (or any inlining of it) does not already exist
          below — the anti-ping-pong fuel check *)
  | Both_quants_here of var * var  (** both are F quantifiers of this box *)
  | Same_input of var * var
  (* --- runtime guards (auto-inserted by the verifier for unproved
         obligations; rule authors may also write them directly) --- *)
  | Guard_unique of { quant : var; col : var }
      (** prover query: the column derives a key of the quantifier's
          input (duplicate preservation) *)
  | Guard_not_null of { quant : var; col : var }
      (** prover query: the column cannot be NULL *)
  | Guard_single_user of var
  | Guard_strict of var
      (** prover query: the predicate is null-intolerant in every column
          it references *)

(** Action templates: the primitive mutations of the matched graph. *)
type action =
  | Remove_pred of var
  | Add_pred_to of { box : var; expr : var }
      (** append the expression as a predicate unless an equal one is
          already there — the move-target half of a push-down *)
  | Add_pred_here of var  (** append to the current box, unconditionally *)
  | Mark_pred of var * string
  | Replicate_into_arms of { pred : var; quant : var; box : var }
      (** σ(A ∪ B) = σA ∪ σB: interpose an identity SELECT above every
          setformer arm of the box and give each a substituted replica *)
  | Redirect_refs of { drop : var; keep : var }
      (** rewrite every reference to [drop]'s columns into [keep]'s *)
  | Drop_reflexive_eqs
      (** drop predicates of the current box that became [c = c] over a
          column that can never be NULL *)
  | Remove_quant of var
  | Remove_preds_matching of epat

type rule = {
  name : string;
  rule_class : string;
  priority : int;
  pattern : atom list;
  actions : action list;
}

(* ------------------------------------------------------------------ *)
(* Variable discipline                                                 *)
(* ------------------------------------------------------------------ *)

(** Variables an atom binds (generators and binders). *)
let binds = function
  | Each_pred p -> [ p ]
  | Each_eq_col_pred { pred; keep; drop; col } -> [ pred; keep; drop; col ]
  | Each_eq_pair { left; right } -> [ left; right ]
  | Each_restriction { col; op; lit } -> [ col; op; lit ]
  | Sole_quant_ref { quant; _ } -> [ quant ]
  | Input_box { box; _ } -> [ box ]
  | Inline { out; _ } -> [ out ]
  | Replica { out; _ } -> [ out ]
  | _ -> []

(** Variables an atom consumes (must be bound earlier). *)
let uses = function
  | Each_pred _ | Each_eq_col_pred _ | Each_eq_pair _ | Each_restriction _
  | Box_kind _ ->
    []
  | Pred_matches (p, _) | Movable p | Not_marked (p, _) -> [ p ]
  | Sole_quant_ref { pred; _ } -> [ pred ]
  | Quant_parent_here q | Quant_type_f q -> [ q ]
  | Input_box { quant; _ } -> [ quant ]
  | Kind_is (b, _) | Plain_select b | Not_top b | Single_user b
  | Head_all_exprs b | Not_recursive b ->
    [ b ]
  | Group_keys_passthrough { pred; box } -> [ pred; box ]
  | Inline { pred; quant; _ } -> [ pred; quant ]
  | Replica { left; right; col; op; lit; _ } -> [ left; right; col; op; lit ]
  | Not_exists_here e | Not_already_pushed e -> [ e ]
  | Both_quants_here (a, b) | Same_input (a, b) -> [ a; b ]
  | Guard_unique { quant; col } | Guard_not_null { quant; col } ->
    [ quant; col ]
  | Guard_single_user b -> [ b ]
  | Guard_strict p -> [ p ]

let action_uses = function
  | Remove_pred p | Mark_pred (p, _) -> [ p ]
  | Add_pred_to { box; expr } -> [ box; expr ]
  | Add_pred_here e -> [ e ]
  | Replicate_into_arms { pred; quant; box } -> [ pred; quant; box ]
  | Redirect_refs { drop; keep } -> [ drop; keep ]
  | Drop_reflexive_eqs | Remove_preds_matching _ -> []
  | Remove_quant q -> [ q ]

let atom_name = function
  | Each_pred _ -> "each-pred"
  | Each_eq_col_pred _ -> "each-eq-col-pred"
  | Each_eq_pair _ -> "each-eq-pair"
  | Each_restriction _ -> "each-restriction"
  | Box_kind _ -> "box-kind"
  | Pred_matches _ -> "pred-matches"
  | Movable _ -> "movable"
  | Not_marked _ -> "not-marked"
  | Sole_quant_ref _ -> "sole-quant-ref"
  | Quant_parent_here _ -> "quant-parent-here"
  | Quant_type_f _ -> "quant-type-f"
  | Input_box _ -> "input-box"
  | Kind_is _ -> "kind-is"
  | Plain_select _ -> "plain-select"
  | Not_top _ -> "not-top"
  | Single_user _ -> "single-user"
  | Head_all_exprs _ -> "head-all-exprs"
  | Not_recursive _ -> "not-recursive"
  | Group_keys_passthrough _ -> "group-keys-passthrough"
  | Inline _ -> "inline"
  | Replica _ -> "replica"
  | Not_exists_here _ -> "not-exists-here"
  | Not_already_pushed _ -> "not-already-pushed"
  | Both_quants_here _ -> "both-quants-here"
  | Same_input _ -> "same-input"
  | Guard_unique _ -> "guard-unique"
  | Guard_not_null _ -> "guard-not-null"
  | Guard_single_user _ -> "guard-single-user"
  | Guard_strict _ -> "guard-strict"

let action_name = function
  | Remove_pred _ -> "remove-pred"
  | Add_pred_to _ -> "add-pred-to"
  | Add_pred_here _ -> "add-pred-here"
  | Mark_pred _ -> "mark-pred"
  | Replicate_into_arms _ -> "replicate-into-arms"
  | Redirect_refs _ -> "redirect-refs"
  | Drop_reflexive_eqs -> "drop-reflexive-eqs"
  | Remove_quant _ -> "remove-quant"
  | Remove_preds_matching _ -> "remove-preds-matching"
