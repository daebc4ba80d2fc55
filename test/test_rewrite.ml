(** Tests for the query-rewrite rule system: the engine (strategies,
    budget, search orders, consistency), each base rule class, and rule
    interactions — including the Figure 2 transformation. *)

open Sb_storage
module Qgm = Sb_qgm.Qgm
module Builder = Sb_qgm.Builder
module Check = Sb_qgm.Check
module Rule = Sb_rewrite.Rule
module Engine = Sb_rewrite.Engine
module Base_rules = Sb_ruledsl.Base_rules
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
  mk "edges" [| Schema.column "src" Datatype.Int; Schema.column "dst" Datatype.Int |];
  let cfg = Builder.make_config ~catalog:cat ~functions:(Sb_hydrogen.Functions.create ()) in
  (cat, cfg)

let rewrite ?strategy ?search ?budget cat g =
  Engine.run ?strategy ?search ?budget ~check_each:true
    ~rules:(Rule.all (Base_rules.default_set ~catalog:cat))
    g

let fired stats name = List.mem_assoc name stats.Engine.firings

(* --- Figure 2 --- *)

let figure2_query =
  "SELECT partno, price, order_qty FROM quotations Q1 WHERE Q1.partno IN \
   (SELECT partno FROM inventory Q3 WHERE Q3.onhand_qty < Q1.order_qty AND \
   Q3.type = 'CPU')"

let test_figure2 () =
  let cat, cfg = setup () in
  let g = Builder.build_text cfg figure2_query in
  Alcotest.(check int) "boxes before" 4 (List.length (Qgm.reachable_boxes g));
  let stats = rewrite cat g in
  Alcotest.(check bool) "rule 1 fired" true (fired stats "subquery_to_join");
  Alcotest.(check bool) "rule 2 fired" true (fired stats "merge_select");
  (* Figure 2(b): one SELECT box over the two base tables *)
  let boxes = Qgm.reachable_boxes g in
  Alcotest.(check int) "boxes after" 3 (List.length boxes);
  let top = Qgm.top_box g in
  Alcotest.(check int) "three conjuncts" 3 (List.length top.Qgm.b_preds);
  Alcotest.(check bool) "E became F" true
    (List.for_all (fun q -> q.Qgm.q_type = Qgm.F) top.Qgm.b_quants);
  Alcotest.(check (list string)) "consistent" [] (Check.check g)

let test_rule1_needs_uniqueness () =
  let cat, cfg = setup () in
  (* quotations.partno is NOT unique: converting the subquery would
     change duplicates, so Rule 1 must not fire *)
  let g =
    Builder.build_text cfg
      "SELECT partno FROM inventory WHERE partno IN (SELECT partno FROM quotations)"
  in
  let stats = rewrite cat g in
  Alcotest.(check bool) "rule 1 did not fire" false (fired stats "subquery_to_join");
  (* but the general CHOOSE-producing rule did *)
  Alcotest.(check bool) "choose rule fired" true (fired stats "subquery_to_join_choose");
  Alcotest.(check bool) "choose box created" true
    (List.exists
       (fun (b : Qgm.box) -> b.Qgm.b_kind = Qgm.Choose)
       (Qgm.reachable_boxes g))

let test_view_merging () =
  let cat, cfg = setup () in
  Catalog.create_view cat ~name:"cpus"
    ~text:"SELECT partno AS pn, onhand_qty AS qty FROM inventory WHERE type = 'CPU'" ();
  let g = Builder.build_text cfg "SELECT pn FROM cpus WHERE qty > 5" in
  let stats = rewrite cat g in
  Alcotest.(check bool) "merged" true (fired stats "merge_select");
  (* view disappeared: top box ranges directly over the base table *)
  let top = Qgm.top_box g in
  (match top.Qgm.b_quants with
  | [ q ] ->
    Alcotest.(check bool) "direct base access" true
      ((Qgm.box g q.Qgm.q_input).Qgm.b_kind = Qgm.Base_table "inventory")
  | _ -> Alcotest.fail "expected a single quantifier");
  Alcotest.(check int) "both predicates" 2 (List.length top.Qgm.b_preds)

let test_predicate_pushdown () =
  let cat, cfg = setup () in
  let g =
    Builder.build_text cfg
      "SELECT pn FROM (SELECT partno AS pn, price AS pr FROM quotations) v \
       WHERE pn > 2 ORDER BY pn"
  in
  (* ORDER BY on the top box prevents merging the derived table only if
     rules require it; pushdown should still fire or merge subsumes it *)
  let stats = rewrite cat g in
  Alcotest.(check bool) "pushdown or merge" true
    (fired stats "push_into_select" || fired stats "merge_select");
  Alcotest.(check (list string)) "consistent" [] (Check.check g)

let test_pushdown_through_group_by () =
  let cat, cfg = setup () in
  let g =
    Builder.build_text cfg
      "SELECT t, total FROM (SELECT type AS t, sum(onhand_qty) AS total FROM \
       inventory GROUP BY type) v WHERE t = 'CPU'"
  in
  let stats = rewrite cat g in
  Alcotest.(check bool) "pushed through group" true (fired stats "push_through_group_by");
  (* predicate ended up below the GROUP BY box *)
  let gb =
    List.find
      (fun (b : Qgm.box) -> match b.Qgm.b_kind with Qgm.Group_by _ -> true | _ -> false)
      (Qgm.reachable_boxes g)
  in
  Alcotest.(check bool) "group box or below holds pred" true
    (gb.Qgm.b_preds <> []
    || List.exists
         (fun q -> (Qgm.box g q.Qgm.q_input).Qgm.b_preds <> [])
         gb.Qgm.b_quants)

let test_pushdown_through_set_op () =
  let cat, cfg = setup () in
  let g =
    Builder.build_text cfg
      "SELECT * FROM ((SELECT partno FROM quotations) UNION ALL (SELECT \
       partno FROM inventory)) u WHERE partno > 2"
  in
  let stats = rewrite cat g in
  Alcotest.(check bool) "replicated into arms" true (fired stats "push_through_set_op");
  Alcotest.(check (list string)) "consistent" [] (Check.check g)

let test_projection_pruning () =
  let cat, cfg = setup () in
  let g =
    Builder.build_text cfg
      "SELECT pn FROM (SELECT partno AS pn, price AS pr, order_qty AS oq FROM \
       quotations) v"
  in
  let stats = rewrite cat g in
  (* either pruning fired before the merge, or the merge removed the
     derived table altogether *)
  Alcotest.(check bool) "pruned or merged" true
    (fired stats "prune_projection" || fired stats "merge_select");
  Alcotest.(check (list string)) "consistent" [] (Check.check g)

let test_redundant_join_elimination () =
  let cat, cfg = setup () in
  let g =
    Builder.build_text cfg
      "SELECT a.onhand_qty FROM inventory a, inventory b WHERE a.partno = \
       b.partno AND b.type = 'CPU'"
  in
  let stats = rewrite cat g in
  Alcotest.(check bool) "eliminated" true (fired stats "eliminate_redundant_join");
  let top = Qgm.top_box g in
  Alcotest.(check int) "one iterator left" 1 (List.length top.Qgm.b_quants);
  Alcotest.(check (list string)) "consistent" [] (Check.check g)

let test_replication () =
  let cat, cfg = setup () in
  let g =
    Builder.build_text cfg
      "SELECT q.partno FROM quotations q, inventory i WHERE q.partno = \
       i.partno AND q.partno = 3"
  in
  let stats = rewrite cat g in
  Alcotest.(check bool) "replicated" true (fired stats "replicate_restriction");
  Alcotest.(check (list string)) "consistent" [] (Check.check g)

let test_magic () =
  let cat, cfg = setup () in
  let g =
    Builder.build_text cfg
      "WITH RECURSIVE paths (src, dst) AS (SELECT src, dst FROM edges UNION \
       SELECT p.src, e.dst FROM paths p, edges e WHERE p.dst = e.src) SELECT \
       * FROM paths WHERE src = 1"
  in
  let stats = rewrite cat g in
  Alcotest.(check bool) "magic fired" true (fired stats "magic_selection_pushdown");
  Alcotest.(check (list string)) "consistent" [] (Check.check g)

let test_magic_not_on_unpropagated () =
  let cat, cfg = setup () in
  (* dst is NOT propagated unchanged by the recursive arm, so the magic
     rule must not fire on it *)
  let g =
    Builder.build_text cfg
      "WITH RECURSIVE paths (src, dst) AS (SELECT src, dst FROM edges UNION \
       SELECT p.src, e.dst FROM paths p, edges e WHERE p.dst = e.src) SELECT \
       * FROM paths WHERE dst = 3"
  in
  let stats = rewrite cat g in
  Alcotest.(check bool) "magic did not fire" false (fired stats "magic_selection_pushdown")

(* --- engine mechanics --- *)

let test_budget () =
  let cat, cfg = setup () in
  let g = Builder.build_text cfg figure2_query in
  let stats = rewrite ~budget:1 cat g in
  Alcotest.(check int) "stopped at one firing" 1 stats.Engine.rules_fired;
  Alcotest.(check bool) "budget exhausted" true stats.Engine.budget_exhausted;
  (* the QGM left behind is consistent (the paper's guarantee) *)
  Alcotest.(check (list string)) "consistent at budget stop" [] (Check.check g);
  (* budget 0 fires nothing *)
  let g2 = Builder.build_text cfg figure2_query in
  let stats2 = rewrite ~budget:0 cat g2 in
  Alcotest.(check int) "zero budget" 0 stats2.Engine.rules_fired

let strategies_agree text =
  let results =
    List.map
      (fun strategy ->
        let cat, cfg = setup () in
        let g = Builder.build_text cfg text in
        let _ = rewrite ~strategy cat g in
        Alcotest.(check (list string)) "consistent" [] (Check.check g);
        List.length (Qgm.reachable_boxes g))
      [
        Engine.Sequential;
        Engine.Priority;
        Engine.Statistical { weights = [ ("merge_select", 5.0) ]; seed = 7 };
      ]
  in
  match results with
  | a :: rest -> List.iter (fun b -> Alcotest.(check int) "same fixpoint" a b) rest
  | [] -> ()

let test_strategies () = strategies_agree figure2_query

let test_searches () =
  List.iter
    (fun search ->
      let cat, cfg = setup () in
      let g = Builder.build_text cfg figure2_query in
      let _ = rewrite ~search cat g in
      Alcotest.(check int) "fixpoint boxes" 3 (List.length (Qgm.reachable_boxes g)))
    [ Engine.Depth_first; Engine.Breadth_first ]

let test_rule_classes () =
  let cat, _ = setup () in
  let set = Base_rules.default_set ~catalog:cat in
  let classes = Rule.classes set in
  List.iter
    (fun cl ->
      Alcotest.(check bool) ("class " ^ cl) true (List.mem cl classes))
    [ "merge"; "predicate"; "projection"; "subquery"; "redundant"; "magic" ];
  (* class filtering works *)
  let merge_only = Rule.in_classes set [ "merge" ] in
  Alcotest.(check bool) "nonempty" true (merge_only <> []);
  Alcotest.(check bool) "only merge" true
    (List.for_all (fun r -> r.Rule.rule_class = "merge") merge_only)

let test_custom_rule () =
  let cat, cfg = setup () in
  let fired_flag = ref false in
  let rule =
    Rule.make ~name:"dbc_noop" ~rule_class:"custom"
      ~condition:(fun ctx -> ctx.Rule.box.Qgm.b_kind = Qgm.Select && not !fired_flag)
      ~action:(fun _ -> fired_flag := true)
      ()
  in
  let set = Base_rules.default_set ~catalog:cat in
  Rule.add set rule;
  let g = Builder.build_text cfg "SELECT partno FROM quotations" in
  let stats = Engine.run ~rules:(Rule.all set) g in
  Alcotest.(check bool) "custom rule ran" true (List.mem_assoc "dbc_noop" stats.Engine.firings)

let suite =
  ( "rewrite",
    [
      case "figure 2 transformation" test_figure2;
      case "rule 1 requires uniqueness" test_rule1_needs_uniqueness;
      case "view merging" test_view_merging;
      case "predicate push-down" test_predicate_pushdown;
      case "push through GROUP BY" test_pushdown_through_group_by;
      case "push through set op" test_pushdown_through_set_op;
      case "projection pruning" test_projection_pruning;
      case "redundant join elimination" test_redundant_join_elimination;
      case "predicate replication" test_replication;
      case "magic selection push" test_magic;
      case "magic guards propagation" test_magic_not_on_unpropagated;
      case "budget stops consistently" test_budget;
      case "control strategies agree" test_strategies;
      case "search strategies" test_searches;
      case "rule classes" test_rule_classes;
      case "DBC custom rule" test_custom_rule;
    ] )
