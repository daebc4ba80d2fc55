(** Tests for the declarative rewrite-rule DSL: the registration-time
    static verifier (sound rules verify, unsound fixtures are rejected
    naming the failed obligation), golden renderings of what the
    built-in predicate and redundant-join rules rewrite, and the
    registration/report surface through Corona. *)

open Sb_storage
module Qgm = Sb_qgm.Qgm
module Print = Sb_qgm.Print
module Builder = Sb_qgm.Builder
module Check = Sb_qgm.Check
module Rule = Sb_rewrite.Rule
module Engine = Sb_rewrite.Engine
module Base_rules = Sb_ruledsl.Base_rules
module Dsl = Sb_ruledsl.Dsl
module Verify = Sb_ruledsl.Verify
module Builtin = Sb_ruledsl.Builtin
open Test_util

let setup () =
  let cat = Catalog.create () in
  let mk name schema = ignore (Catalog.create_table cat ~name ~schema ()) in
  mk "quotations"
    [| Schema.column ~nullable:false "partno" Datatype.Int;
       Schema.column "price" Datatype.Float;
       Schema.column "order_qty" Datatype.Int |];
  mk "inventory"
    [| Schema.column ~nullable:false ~unique:true "partno" Datatype.Int;
       Schema.column "onhand_qty" Datatype.Int;
       Schema.column "type" Datatype.String |];
  mk "parts"
    [| Schema.column "partno" Datatype.Int;
       Schema.column "descr" Datatype.String |];
  let cfg =
    Builder.make_config ~catalog:cat ~functions:(Sb_hydrogen.Functions.create ())
  in
  (cat, cfg)

let status_testable : Verify.status Alcotest.testable =
  Alcotest.testable
    (fun ppf s -> Fmt.string ppf (Verify.status_to_string s))
    (fun a b -> a = b)

let status_of r = (Verify.verify r).Verify.v_status

let rejected_with obl r =
  match status_of r with
  | Verify.Rejected { obligation; _ } -> obligation = obl
  | _ -> false

(* --- built-in ports: expected classifications --- *)

let test_builtin_statuses () =
  let expect name st =
    let r = List.find (fun (r : Dsl.rule) -> r.Dsl.name = name) Builtin.all in
    Alcotest.check status_testable name st (status_of r)
  in
  expect "push_into_select" Verify.Verified;
  expect "push_through_group_by" Verify.Verified;
  expect "push_through_set_op" Verify.Verified;
  expect "replicate_restriction" Verify.Verified;
  expect "drop_true_predicate" Verify.Verified;
  (* written without its uniqueness / NOT NULL checks: the verifier
     derives them and guards the rule *)
  expect "eliminate_redundant_join"
    (Verify.Conditional [ Verify.O_key; Verify.O_strict ])

let test_builtin_guards_inserted () =
  let r =
    List.find
      (fun (r : Dsl.rule) -> r.Dsl.name = "eliminate_redundant_join")
      Builtin.all
  in
  let v = Verify.verify r in
  Alcotest.(check bool)
    "unique guard then not-null guard" true
    (v.Verify.v_guards
    = [ Dsl.Guard_unique { quant = "qk"; col = "i" };
        Dsl.Guard_not_null { quant = "qk"; col = "i" } ])

(* --- fixture table: deliberately unsound rules must be Rejected with
       the failed obligation named; guardable ones become Conditional;
       sound variants must verify --- *)

let base ?(name = "fixture") ?(cls = "fixture") pattern actions =
  { Dsl.name; rule_class = cls; priority = 10; pattern; actions }

let push_pattern ?(target_kind = []) ?(shape = []) ?(sole = true)
    ?(ftype = true) ?(single = true) ?(movable = true) () =
  let open Dsl in
  [ Box_kind K_select; Each_pred "p" ]
  @ (if movable then [ Movable "p" ] else [])
  @ shape
  @ (if sole then [ Sole_quant_ref { pred = "p"; quant = "q" } ] else [])
  @ (if ftype then [ Quant_type_f "q" ] else [])
  @ [ Input_box { quant = "q"; box = "l" } ]
  @ target_kind
  @ (if single then [ Single_user "l" ] else [])
  @ [ Inline { pred = "p"; quant = "q"; out = "e" } ]

let push_actions =
  [ Dsl.Remove_pred "p"; Dsl.Add_pred_to { box = "l"; expr = "e" } ]

let test_unsound_fixtures () =
  let open Dsl in
  let open Verify in
  let cases =
    [
      (* scope: action uses an unbound metavariable *)
      ( "unbound action var", O_scope,
        base [ Each_pred "p" ] [ Remove_pred "x" ] );
      (* scope: a pred metavariable used where a quant is needed *)
      ( "sort mismatch", O_scope,
        base
          [ Each_pred "p"; Sole_quant_ref { pred = "p"; quant = "q" } ]
          [ Remove_quant "p" ] );
      (* scope: rebinding *)
      ( "double binding", O_scope,
        base [ Each_pred "p"; Each_pred "p" ] [ Remove_pred "p" ] );
      (* dropped correlation guard: a two-quantifier predicate pushed
         below one of them — the PR 5 bug class *)
      ( "dropped correlation guard", O_correlation,
        base
          [ Box_kind K_select;
            Each_eq_col_pred
              { pred = "p"; keep = "qk"; drop = "qd"; col = "i" };
            Movable "p";
            Quant_type_f "qk";
            Input_box { quant = "qk"; box = "l" };
            Plain_select "l";
            Single_user "l";
            Inline { pred = "p"; quant = "qk"; out = "e" } ]
          push_actions );
      (* quantifier multiplicity: push through a possibly-existential
         quantifier *)
      ( "missing F-type check", O_quant_type,
        base
          (push_pattern ~ftype:false ~target_kind:[ Plain_select "l" ] ())
          push_actions );
      (* movability: the predicate may consume a subquery *)
      ( "missing movable check", O_correlation,
        base
          (push_pattern ~movable:false ~target_kind:[ Plain_select "l" ] ())
          push_actions );
      (* boundary: no atom says the target absorbs predicates *)
      ( "no target boundary", O_boundary,
        base (push_pattern ()) push_actions );
      (* boundary: GROUP BY target without the pass-through-keys check *)
      ( "group-by without passthrough", O_boundary,
        base
          (push_pattern ~target_kind:[ Kind_is ("l", K_group_by) ] ())
          push_actions );
      (* non-strict null handling: IS NULL pushed below a NULL-padding
         extension operation *)
      ( "IS NULL below NULL padding", O_strict,
        base
          (push_pattern
             ~shape:[ Pred_matches ("p", E_is_null) ]
             ~target_kind:[ Kind_is ("l", K_ext) ] ())
          push_actions );
      (* duplicate-count change: quantifier removed with no redirect *)
      ( "remove-quant without redirect", O_key,
        base
          [ Box_kind K_select;
            Each_eq_col_pred
              { pred = "p"; keep = "qk"; drop = "qd"; col = "i" };
            Both_quants_here ("qk", "qd");
            Same_input ("qk", "qd") ]
          [ Remove_quant "qd" ] );
      (* redundant join without the same-input witness *)
      ( "redirect without same-input", O_key,
        base
          [ Box_kind K_select;
            Each_eq_col_pred
              { pred = "p"; keep = "qk"; drop = "qd"; col = "i" };
            Both_quants_here ("qk", "qd") ]
          [ Remove_pred "p";
            Redirect_refs { drop = "qd"; keep = "qk" };
            Drop_reflexive_eqs;
            Remove_quant "qd" ] );
      (* redundant join without the F-quantifier witness *)
      ( "redirect without both-quants-here", O_quant_type,
        base
          [ Box_kind K_select;
            Each_eq_col_pred
              { pred = "p"; keep = "qk"; drop = "qd"; col = "i" };
            Same_input ("qk", "qd") ]
          [ Remove_pred "p";
            Redirect_refs { drop = "qd"; keep = "qk" };
            Drop_reflexive_eqs;
            Remove_quant "qd" ] );
      (* unjustified removal: IS NULL is not provably TRUE *)
      ( "unjustified pred drop", O_always_true,
        base
          [ Each_pred "p"; Pred_matches ("p", E_is_null) ]
          [ Remove_pred "p" ] );
      ( "remove-matching IS NULL", O_always_true,
        base
          [ Each_pred "p"; Pred_matches ("p", E_is_null) ]
          [ Remove_preds_matching E_is_null ] );
      ( "remove-matching NULL literal", O_always_true,
        base
          [ Each_pred "p"; Pred_matches ("p", E_null_lit) ]
          [ Remove_preds_matching E_null_lit ] );
      (* termination: replica re-derivation ping-pong (the PR 5 bug) *)
      ( "replica without anti-ping-pong", O_termination,
        base
          [ Box_kind K_select;
            Each_eq_pair { left = "a"; right = "c" };
            Each_restriction { col = "x"; op = "o"; lit = "v" };
            Replica
              { left = "a"; right = "c"; col = "x"; op = "o"; lit = "v";
                out = "e" };
            Not_exists_here "e" ]
          [ Add_pred_here "e" ] );
      (* termination: set-op replication without the mark pair *)
      ( "setop replicate without mark", O_termination,
        base
          [ Box_kind K_select;
            Each_pred "p";
            Movable "p";
            Sole_quant_ref { pred = "p"; quant = "q" };
            Quant_type_f "q";
            Input_box { quant = "q"; box = "l" };
            Kind_is ("l", K_set_op);
            Single_user "l";
            Not_recursive "l" ]
          [ Replicate_into_arms { pred = "p"; quant = "q"; box = "l" } ] );
      (* termination: removal shape never matched by the pattern *)
      ( "remove-matching unwitnessed", O_termination,
        base [ Box_kind K_select ] [ Remove_preds_matching E_true ] );
      (* implication: adding a pred that is no replica of hypotheses *)
      ( "unimplied added pred", O_implied,
        base
          (push_pattern ~target_kind:[ Plain_select "l" ] ())
          [ Add_pred_here "e" ] );
      ( "no actions", O_termination, base [ Each_pred "p" ] [] );
    ]
  in
  List.iter
    (fun (name, obl, r) ->
      match status_of r with
      | Verify.Rejected { obligation; _ } ->
        Alcotest.(check string)
          name
          (Verify.obligation_to_string obl)
          (Verify.obligation_to_string obligation)
      | st ->
        Alcotest.failf "%s: expected Rejected(%s), got %s" name
          (Verify.obligation_to_string obl)
          (Verify.status_to_string st))
    cases

let test_guardable_fixtures () =
  let open Dsl in
  (* shared target: auto-guarded, not rejected *)
  Alcotest.check status_testable "missing single-user is guarded"
    (Verify.Conditional [ Verify.O_share ])
    (status_of
       (base
          (push_pattern ~single:false ~target_kind:[ Plain_select "l" ] ())
          push_actions));
  (* unconstrained predicate below NULL padding: runtime strictness guard *)
  (match
     status_of
       (base
          (push_pattern ~target_kind:[ Kind_is ("l", K_ext) ] ())
          push_actions)
   with
  | Verify.Conditional obls ->
    Alcotest.(check bool) "strict obligation" true (List.mem Verify.O_strict obls)
  | st ->
    Alcotest.failf "expected Conditional(strict), got %s"
      (Verify.status_to_string st));
  (* a provably strict shape discharges the same obligation statically *)
  Alcotest.check status_testable "strict comparison below NULL padding"
    Verify.Verified
    (status_of
       (base
          (push_pattern
             ~shape:[ Pred_matches ("p", E_cmp) ]
             ~target_kind:[ Kind_is ("l", K_ext) ] ())
          push_actions));
  (* an author-written guard discharges the obligation: no auto-guard *)
  Alcotest.check status_testable "explicit guard credits the author"
    Verify.Verified
    (status_of
       (base
          (push_pattern ~single:false
             ~target_kind:[ Plain_select "l"; Guard_single_user "l" ]
             ())
          push_actions))

(* --- golden renderings: the rewritten QGM and the per-rule firings of
       each query, recorded from the hand-written predicate and
       redundant-join rules the DSL ports replaced --- *)

let golden =
  [
    (* figure 2: subquery-to-join + merge *)
    ( "SELECT partno, price, order_qty FROM quotations Q1 WHERE Q1.partno IN \
      (SELECT partno FROM inventory Q3 WHERE Q3.onhand_qty < Q1.order_qty \
      AND Q3.type = 'CPU')",
      {|
Box 1 [B1] SELECT (top)
  head: partno=Q1.c0, price=Q1.c1, order_qty=Q1.c2
  quant Q1:F over Box 2 [quotations]
  quant Q3:F over Box 4 [inventory]
  pred: (Q1.c0 = Q3.c0)
  pred: (Q3.c1 < Q1.c2)
  pred: (Q3.c2 = 'CPU')
Box 2 [quotations] TABLE quotations
  head: partno, price, order_qty
Box 4 [inventory] TABLE inventory
  head: partno, onhand_qty, type
|},
      [ ("merge_select", 1); ("subquery_to_join", 1) ] );
    (* push into a merged view / plain select *)
    ( "SELECT v.partno FROM (SELECT partno, price FROM quotations) v WHERE \
      v.price > 10",
      {|
Box 1 [B1] SELECT (top)
  head: partno=quotations.c0
  quant quotations:F over Box 3 [quotations]
  pred: (quotations.c1 > 10)
Box 3 [quotations] TABLE quotations
  head: partno, price, order_qty
|},
      [ ("merge_select", 1) ] );
    (* push through GROUP BY on a pass-through key *)
    ( "SELECT g.partno, g.n FROM (SELECT partno, count(*) AS n FROM \
      quotations GROUP BY partno) g WHERE g.partno = 3",
      {|
Box 1 [B1] SELECT (top)
  head: partno=Qt.c0, n=Qt.c1
  quant Qt:F over Box 4 [GB]
Box 4 [GB] GROUP BY
  head: g1=Qg.c0, agg1=count(*)
  group: Qg.c0
  quant Qg:F over Box 2 [B2]
Box 2 [B2] SELECT
  head: g1=quotations.c0
  quant quotations:F over Box 3 [quotations]
  pred: (quotations.c0 = 3)
Box 3 [quotations] TABLE quotations
  head: partno, price, order_qty
|},
      [ ("merge_select", 1);
        ("push_into_select", 1);
        ("push_through_group_by", 1) ] );
    (* push through a set operation, replicating *)
    ( "SELECT u.partno FROM (SELECT partno FROM quotations UNION ALL SELECT \
      partno FROM parts) u WHERE u.partno < 5",
      {|
Box 1 [B1] SELECT (top)
  head: partno=u.c0
  quant u:F over Box 6 [B6]
  pred: (u.c0 < 5)
Box 6 [B6] UNION ALL
  head: partno
  quant Q3:F over Box 7 [B2']
  quant Q4:F over Box 8 [B4']
Box 7 [B2'] SELECT
  head: partno=quotations.c0
  quant quotations:F over Box 3 [quotations]
  pred: (quotations.c0 < 5)
Box 3 [quotations] TABLE quotations
  head: partno, price, order_qty
Box 8 [B4'] SELECT
  head: partno=parts.c0
  quant parts:F over Box 5 [parts]
  pred: (parts.c0 < 5)
Box 5 [parts] TABLE parts
  head: partno, descr
|},
      [ ("merge_select", 2); ("push_through_set_op", 1) ] );
    (* replicate a restriction across an equality *)
    ( "SELECT q.partno FROM quotations q, parts p WHERE q.partno = p.partno \
      AND q.partno > 2",
      {|
Box 1 [B1] SELECT (top)
  head: partno=q.c0
  quant q:F over Box 2 [quotations]
  quant p:F over Box 3 [parts]
  pred: (q.c0 = p.c0)
  pred: (q.c0 > 2)
  pred: (p.c0 > 2)
Box 2 [quotations] TABLE quotations
  head: partno, price, order_qty
Box 3 [parts] TABLE parts
  head: partno, descr
|},
      [ ("replicate_restriction", 1) ] );
    (* redundant self-join on a unique NOT NULL key *)
    ( "SELECT a.partno, b.onhand_qty FROM inventory a, inventory b WHERE \
      a.partno = b.partno AND a.type = 'CPU'",
      {|
Box 1 [B1] SELECT (top)
  head: partno=a.c0, onhand_qty=a.c1
  quant a:F over Box 2 [inventory]
  pred: (a.c2 = 'CPU')
Box 2 [inventory] TABLE inventory
  head: partno, onhand_qty, type
|},
      [ ("eliminate_redundant_join", 1) ] );
    (* redundant-join guard must block: parts.partno is not unique *)
    ( "SELECT a.partno, b.descr FROM parts a, parts b WHERE a.partno = \
      b.partno",
      {|
Box 1 [B1] SELECT (top)
  head: partno=a.c0, descr=b.c1
  quant a:F over Box 2 [parts]
  quant b:F over Box 2 [parts]
  pred: (a.c0 = b.c0)
Box 2 [parts] TABLE parts
  head: partno, descr
|},
      [] );
    (* [1 = 1] is not the TRUE literal, so drop_true_predicate stays
       off *)
    ( "SELECT partno FROM quotations WHERE 1 = 1 AND price > 0",
      {|
Box 1 [B1] SELECT (top)
  head: partno=quotations.c0
  quant quotations:F over Box 2 [quotations]
  pred: (1 = 1)
  pred: (quotations.c1 > 0)
Box 2 [quotations] TABLE quotations
  head: partno, price, order_qty
|},
      [] );
    (* HAVING + grouped subquery *)
    ( "SELECT t.partno FROM (SELECT partno FROM inventory GROUP BY partno \
      HAVING count(*) > 0) t WHERE t.partno = 7",
      {|
Box 1 [B1] SELECT (top)
  head: partno=Qt.c0
  quant Qt:F over Box 4 [GB]
  pred: (Qt.c1 > 0)
Box 4 [GB] GROUP BY
  head: g1=Qg.c0, agg1=count(*)
  group: Qg.c0
  quant Qg:F over Box 2 [B2]
Box 2 [B2] SELECT
  head: g1=inventory.c0
  quant inventory:F over Box 3 [inventory]
  pred: (inventory.c0 = 7)
Box 3 [inventory] TABLE inventory
  head: partno, onhand_qty, type
|},
      [ ("merge_select", 1);
        ("push_into_select", 1);
        ("push_through_group_by", 1) ] );
  ]

let test_golden_renderings () =
  let cat, cfg = setup () in
  let rules = Rule.all (Base_rules.default_set ~catalog:cat) in
  List.iter
    (fun (query, rendering, firings) ->
      let g = Builder.build_text cfg query in
      let stats = Engine.run ~check_each:true ~rules g in
      Alcotest.(check string)
        ("rewritten QGM: " ^ query)
        rendering
        ("\n" ^ Print.to_string g);
      Alcotest.(check (list (pair string int)))
        ("firing counts: " ^ query)
        firings
        (List.sort compare stats.Engine.firings);
      Alcotest.(check (list string)) ("consistent: " ^ query) [] (Check.check g))
    golden

let test_dsl_rules_fire () =
  (* the ported rules actually fire through the DSL matcher *)
  let cat, cfg = setup () in
  let rules = Rule.all (Base_rules.default_set ~catalog:cat) in
  let fired query name =
    let g = Builder.build_text cfg query in
    let stats = Engine.run ~check_each:true ~rules g in
    List.mem_assoc name stats.Engine.firings
  in
  Alcotest.(check bool) "push_through_group_by" true
    (fired
       "SELECT t, total FROM (SELECT type AS t, sum(onhand_qty) AS total \
        FROM inventory GROUP BY type) v WHERE t = 'CPU'"
       "push_through_group_by");
  Alcotest.(check bool) "push_through_set_op" true
    (fired
       "SELECT * FROM ((SELECT partno FROM quotations) UNION ALL (SELECT \
        partno FROM inventory)) u WHERE partno > 2"
       "push_through_set_op");
  Alcotest.(check bool) "replicate_restriction" true
    (fired
       "SELECT q.partno FROM quotations q, parts p WHERE q.partno = \
        p.partno AND q.partno > 2"
       "replicate_restriction");
  Alcotest.(check bool) "eliminate_redundant_join" true
    (fired
       "SELECT a.partno, b.onhand_qty FROM inventory a, inventory b WHERE \
        a.partno = b.partno AND a.type = 'CPU'"
       "eliminate_redundant_join");
  Alcotest.(check bool) "redundant-join guard blocks non-unique key" false
    (fired
       "SELECT a.partno, b.descr FROM parts a, parts b WHERE a.partno = \
        b.partno"
       "eliminate_redundant_join")

(* --- the Corona surface: registration, EXPLAIN RULES, dead-rule --- *)

let test_corona_registration () =
  let db = Starburst.create () in
  (* a Rejected rule is refused with a structured semantic error naming
     the failed obligation, and never enters the rule set *)
  let bad =
    {
      Dsl.name = "bad_drop";
      rule_class = "predicate";
      priority = 1;
      pattern = [ Dsl.Each_pred "p" ];
      actions = [ Dsl.Remove_pred "p" ];
    }
  in
  (match Starburst.register_dsl_rule db bad with
  | _ -> Alcotest.fail "rejected rule must not register"
  | exception Starburst.Error e ->
    Alcotest.(check bool)
      "classified semantic" true
      (e.Sb_resil.Err.err_stage = Sb_resil.Err.Semantic);
    Alcotest.(check bool)
      "names the obligation" true
      (contains ~sub:"always-true" e.Sb_resil.Err.err_msg));
  Alcotest.(check bool)
    "rejected rule absent from the set" false
    (List.exists
       (fun (r : Rule.t) -> r.Rule.rule_name = "bad_drop")
       (Rule.all db.Starburst.rules));
  (* a sound rule registers, Verified, with DSL origin *)
  let ok = { Builtin.drop_true_predicate with Dsl.name = "my_drop_true" } in
  Alcotest.check status_testable "verified on registration" Verify.Verified
    (Starburst.register_dsl_rule db ok);
  let reg =
    List.find
      (fun (r : Rule.t) -> r.Rule.rule_name = "my_drop_true")
      (Rule.all db.Starburst.rules)
  in
  Alcotest.(check bool) "dsl origin" true (reg.Rule.rule_origin = Rule.Dsl)

let test_corona_explain_rules () =
  let db = Starburst.create () in
  ignore
    (Starburst.run db
       "CREATE TABLE inventory (partno INT NOT NULL UNIQUE, onhand_qty INT, \
        type STRING)");
  ignore
    (Starburst.run db
       "SELECT a.partno FROM inventory a, inventory b WHERE a.partno = \
        b.partno");
  (* EXPLAIN RULES is a complete statement and round-trips *)
  Alcotest.(check string)
    "pretty round-trip" "EXPLAIN RULES"
    (Sb_hydrogen.Pretty.statement_to_string
       (Sb_hydrogen.Parser.statement "EXPLAIN RULES"));
  let report =
    match Starburst.run db "EXPLAIN RULES" with
    | Starburst.Message m -> m
    | _ -> Alcotest.fail "EXPLAIN RULES must return a report"
  in
  Alcotest.(check bool)
    "lists the conditional builtin" true
    (contains ~sub:"eliminate_redundant_join" report);
  Alcotest.(check bool)
    "shows its discharge state" true
    (contains ~sub:"Conditional(key,strict)" report);
  Alcotest.(check bool) "shows DSL origin" true (contains ~sub:"dsl" report);
  (* cumulative fire/attempt accounting backs the report *)
  let fires, attempts =
    List.assoc "eliminate_redundant_join" (Starburst.rule_stats db)
  in
  Alcotest.(check bool) "the join elimination fired" true (fires >= 1);
  Alcotest.(check bool) "attempts >= fires" true (attempts >= fires)

let test_dead_rule_lint () =
  let module Lint = Sb_verify.Lint in
  let diags =
    Lint.lint_rules
      [
        ("never_fires", (0, Lint.dead_rule_threshold));
        ("healthy", (3, 60));
        ("cold", (0, Lint.dead_rule_threshold - 1));
      ]
  in
  (match diags with
  | [ d ] ->
    Alcotest.(check string) "code" "dead-rule" d.Lint.d_code;
    Alcotest.(check bool)
      "locates the rule" true
      (d.Lint.d_loc = Lint.Rule "never_fires")
  | ds -> Alcotest.failf "expected exactly one diag, got %d" (List.length ds));
  (* and the report surfaces it *)
  let db = Starburst.create () in
  let rules = db.Starburst.rules in
  Sb_rewrite.Rule.add rules
    (Sb_rewrite.Rule.make ~name:"my_dead_rule" ~rule_class:"merge"
       ~condition:(fun _ -> false) ~action:ignore ());
  Sb_rewrite.Rule.record rules ~firings:[] ~attempts:[ ("my_dead_rule", 100) ];
  let report = Starburst.rules_report db in
  Alcotest.(check bool) "report flags it" true (contains ~sub:"dead-rule" report)

let suite =
  ( "ruledsl",
    [
      case "builtin statuses" test_builtin_statuses;
      case "auto-inserted guards" test_builtin_guards_inserted;
      case "unsound fixtures rejected" test_unsound_fixtures;
      case "guardable fixtures conditional" test_guardable_fixtures;
      case "golden rewrite renderings" test_golden_renderings;
      case "DSL rules fire" test_dsl_rules_fire;
      case "registration through Corona" test_corona_registration;
      case "EXPLAIN RULES report" test_corona_explain_rules;
      case "dead-rule lint" test_dead_rule_lint;
    ] )
