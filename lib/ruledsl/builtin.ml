(** The built-in predicate-migration and redundant-join rules, written
    as DSL data.  They are the only implementation of these two rule
    classes: {!Base_rules.default_set} compiles them into every rule set.
    Note what is {e missing} from [eliminate_redundant_join]: the
    uniqueness/NOT NULL prover checks a hand-written version must
    remember.  The verifier derives those obligations from the
    [Redirect_refs]/[Remove_quant] actions and auto-inserts equivalent
    runtime guards — the rule registers as [Conditional(key,strict)], and
    the guard an author could forget is exactly the one the system writes
    for them. *)

open Dsl

(** Push a single-quantifier predicate down into the plain SELECT box
    below it. *)
let push_into_select =
  {
    name = "push_into_select";
    rule_class = "predicate";
    priority = 40;
    pattern =
      [
        Box_kind K_select_or_group_by;
        Each_pred "p";
        Movable "p";
        Sole_quant_ref { pred = "p"; quant = "q" };
        Quant_parent_here "q";
        Quant_type_f "q";
        Input_box { quant = "q"; box = "l" };
        Plain_select "l";
        Not_top "l";
        Single_user "l";
        Head_all_exprs "l";
        Inline { pred = "p"; quant = "q"; out = "e" };
      ];
    actions = [ Remove_pred "p"; Add_pred_to { box = "l"; expr = "e" } ];
  }

(** Push a predicate over pass-through group keys below a GROUP BY. *)
let push_through_group_by =
  {
    name = "push_through_group_by";
    rule_class = "predicate";
    priority = 40;
    pattern =
      [
        Box_kind K_select;
        Each_pred "p";
        Movable "p";
        Sole_quant_ref { pred = "p"; quant = "q" };
        Input_box { quant = "q"; box = "l" };
        Kind_is ("l", K_group_by);
        Quant_type_f "q";
        Single_user "l";
        Not_recursive "l";
        Group_keys_passthrough { pred = "p"; box = "l" };
        Inline { pred = "p"; quant = "q"; out = "e" };
      ];
    actions = [ Remove_pred "p"; Add_pred_to { box = "l"; expr = "e" } ];
  }

(** Replicate a predicate into every arm of a set operation
    (σ(A ∪ B) = σA ∪ σB, likewise for ∩ and −); the original is marked
    so it is not replicated again. *)
let push_through_set_op =
  {
    name = "push_through_set_op";
    rule_class = "predicate";
    priority = 35;
    pattern =
      [
        Box_kind K_select_or_group_by;
        Each_pred "p";
        Movable "p";
        Not_marked ("p", "pushed_setop");
        Sole_quant_ref { pred = "p"; quant = "q" };
        Input_box { quant = "q"; box = "l" };
        Kind_is ("l", K_set_op);
        Quant_type_f "q";
        Single_user "l";
        Not_recursive "l";
      ];
    actions =
      [
        Mark_pred ("p", "pushed_setop");
        Replicate_into_arms { pred = "p"; quant = "q"; box = "l" };
      ];
  }

(** From [a = c] and [a op v], derive [c op v] — unless the replica is
    already here or has already been pushed below its quantifier. *)
let replicate_restriction =
  {
    name = "replicate_restriction";
    rule_class = "predicate";
    priority = 45;
    pattern =
      [
        Box_kind K_select;
        Each_eq_pair { left = "a"; right = "c" };
        Each_restriction { col = "x"; op = "o"; lit = "v" };
        Replica
          { left = "a"; right = "c"; col = "x"; op = "o"; lit = "v";
            out = "e" };
        Not_exists_here "e";
        Not_already_pushed "e";
      ];
    actions = [ Add_pred_here "e" ];
  }

(** Drop TRUE conjuncts. *)
let drop_true_predicate =
  {
    name = "drop_true_predicate";
    rule_class = "predicate";
    priority = 70;
    pattern = [ Each_pred "p"; Pred_matches ("p", E_true) ];
    actions = [ Remove_preds_matching E_true ];
  }

(** Redundant-join elimination [OTT82]: two iterators over one table
    joined on a UNIQUE NOT NULL column denote the same row, so one is
    removed.  Written {e without} its uniqueness/NOT NULL safety checks;
    the verifier re-derives them as obligations and guards the rule. *)
let eliminate_redundant_join =
  {
    name = "eliminate_redundant_join";
    rule_class = "redundant";
    priority = 52;
    pattern =
      [
        Box_kind K_select;
        Each_eq_col_pred { pred = "p"; keep = "qk"; drop = "qd"; col = "i" };
        Both_quants_here ("qk", "qd");
        Same_input ("qk", "qd");
        Input_box { quant = "qk"; box = "t" };
        Kind_is ("t", K_base_table);
      ];
    actions =
      [
        Remove_pred "p";
        Redirect_refs { drop = "qd"; keep = "qk" };
        Drop_reflexive_eqs;
        Remove_quant "qd";
      ];
  }

(** Every built-in rule, in registration order within its class. *)
let all =
  [
    push_into_select;
    push_through_group_by;
    push_through_set_op;
    replicate_restriction;
    drop_true_predicate;
    eliminate_redundant_join;
  ]
