(** Tests for the static-analysis layer ([lib/verify]): the plan
    validator against a table of deliberately corrupted plans, the
    extended QGM checks against corrupted graphs, the rewrite-rule
    soundness harness (instrumentation and differential execution), and
    the linter. *)

open Sb_storage
module Ast = Sb_hydrogen.Ast
module Qgm = Sb_qgm.Qgm
module Check = Sb_qgm.Check
module Rule = Sb_rewrite.Rule
module Engine = Sb_rewrite.Engine
module Plan = Sb_optimizer.Plan
module Plan_check = Sb_verify.Plan_check
module Rule_audit = Sb_verify.Rule_audit
module Lint = Sb_verify.Lint
open Test_util

(* ------------------------------------------------------------------ *)
(* Plan_check                                                          *)
(* ------------------------------------------------------------------ *)

let props ?(slots = 1) ?(order = []) ?(site = "local") ?(cost = 1.0)
    ?(card = 1.0) () =
  {
    Plan.p_quants = [];
    p_slots = Array.make slots (-1, 0);
    p_order = order;
    p_site = site;
    p_distinct = false;
    p_cost = cost;
    p_card = card;
  }

let scan ?(table = "quotations") ?(cols = [ 0 ]) ?(preds = []) ?props:pr () =
  {
    Plan.op = Plan.Scan { sc_table = table; sc_cols = cols; sc_preds = preds };
    inputs = [];
    props = (match pr with Some p -> p | None -> props ~slots:(List.length cols) ());
  }

let with_props (p : Plan.plan) f = { p with Plan.props = f p.Plan.props }

let mk_join ?(j_method = Plan.Nested_loop) ?(order = []) outer inner =
  {
    Plan.op =
      Plan.Join
        {
          j_method;
          j_kind = Plan.J_regular;
          j_equi = [ (0, 0) ];
          j_pred = None;
          j_corr = [];
          j_bound = false;
          j_kind_pred = None;
        };
    inputs = [ outer; inner ];
    props =
      {
        (props ~slots:2 ()) with
        Plan.p_order = order;
        p_site = outer.Plan.props.Plan.p_site;
      };
  }

let codes vs = List.map (fun v -> v.Plan_check.v_code) vs

let expect_code name code plan =
  let vs = Plan_check.check plan in
  if not (List.mem code (codes vs)) then
    Alcotest.failf "%s: expected violation [%s], got [%s]" name code
      (String.concat "; " (List.map Plan_check.violation_to_string vs))

(** The table of deliberately corrupted plans, each asserting exactly
    the expected violation code. *)
let test_corrupted_plans () =
  let ok = scan () in
  let cases =
    [
      ("negative cost", "cost", with_props ok (fun p -> { p with Plan.p_cost = -1.0 }));
      ("nan cardinality", "card", with_props ok (fun p -> { p with Plan.p_card = Float.nan }));
      ( "claimed order slot out of range",
        "order-slot",
        with_props ok (fun p -> { p with Plan.p_order = [ (99, Ast.Asc) ] }) );
      ( "filter slot out of range",
        "slot-ref",
        { Plan.op = Plan.Filter [ Plan.RCol 99 ]; inputs = [ ok ]; props = props () } );
      ( "correlation parameter at top level",
        "param",
        { Plan.op = Plan.Filter [ Plan.RParam 0 ]; inputs = [ ok ]; props = props () } );
      ( "project arity vs claimed width",
        "width",
        { Plan.op = Plan.Project [ Plan.RCol 0 ]; inputs = [ ok ]; props = props ~slots:2 () } );
      ( "merge join without sorted inputs",
        "merge-order",
        mk_join ~j_method:Plan.Sort_merge (scan ()) (scan ()) );
      ( "hash join claiming an order",
        "order-claim",
        mk_join ~j_method:Plan.Hash_join ~order:[ (0, Ast.Asc) ] (scan ()) (scan ()) );
      ( "join inputs at different sites",
        "site",
        mk_join (scan ()) (scan ~props:(props ~site:"tokyo" ()) ()) );
      ( "SHIP claiming the wrong site",
        "site",
        { Plan.op = Plan.Ship "tokyo"; inputs = [ ok ]; props = props ~site:"local" () } );
      ( "sort claiming an order it does not establish",
        "order-claim",
        { Plan.op = Plan.Sort [ (0, Ast.Asc) ]; inputs = [ ok ]; props = props () } );
      ( "set-op over mismatched widths",
        "setop-width",
        {
          Plan.op = Plan.Union_all;
          inputs = [ scan (); scan ~cols:[ 0; 1 ] () ];
          props = props ();
        } );
      ( "sort with no input",
        "inputs",
        { Plan.op = Plan.Sort [ (0, Ast.Asc) ]; inputs = []; props = props () } );
      ( "recursion delta outside a fixpoint",
        "rec-delta",
        { Plan.op = Plan.Rec_delta { rd_width = 1 }; inputs = []; props = props () } );
      ( "streamed group over unsorted input",
        "merge-order",
        {
          Plan.op = Plan.Group { g_keys = [ 0 ]; g_aggs = []; g_sorted = true };
          inputs = [ ok ];
          props = props ();
        } );
    ]
  in
  Alcotest.(check (list string)) "pristine scan is valid" [] (codes (Plan_check.check ok));
  List.iter (fun (name, code, plan) -> expect_code name code plan) cases

let test_plan_check_catalog () =
  let db = sample_db () in
  let catalog = db.Starburst.Corona.catalog in
  let bad_table = scan ~table:"nowhere" () in
  Alcotest.(check bool) "unknown table flagged" true
    (List.mem "table" (codes (Plan_check.check ~catalog bad_table)));
  let bad_col = scan ~cols:[ 99 ] () in
  Alcotest.(check bool) "bad base column flagged" true
    (List.mem "column" (codes (Plan_check.check ~catalog bad_col)));
  (* scan predicates are evaluated over the full base row: quotations
     has arity 4, so base column 3 is legal in a predicate even though
     only column 0 is kept *)
  let pred_ok =
    scan ~preds:[ Plan.RBin (Ast.Gt, Plan.RCol 3, Plan.RLit (Value.Int 0)) ] ()
  in
  Alcotest.(check (list string)) "base-row predicate ok" []
    (codes (Plan_check.check ~catalog pred_ok));
  let pred_bad =
    scan ~preds:[ Plan.RBin (Ast.Gt, Plan.RCol 9, Plan.RLit (Value.Int 0)) ] ()
  in
  Alcotest.(check bool) "predicate past base arity flagged" true
    (List.mem "slot-ref" (codes (Plan_check.check ~catalog pred_bad)))

(** Every plan the optimizer actually produces passes the validator —
    the positive control for the whole fixture table. *)
let test_real_plans_are_valid () =
  let db = sample_db () in
  let catalog = db.Starburst.Corona.catalog in
  List.iter
    (fun text ->
      let plan = Starburst.compile_text db text in
      match Plan_check.check ~catalog plan with
      | [] -> ()
      | vs ->
        Alcotest.failf "plan for %S: %s" text
          (String.concat "; " (List.map Plan_check.violation_to_string vs)))
    [
      "SELECT partno FROM quotations WHERE price < 20";
      "SELECT q.partno, i.type FROM quotations q, inventory i WHERE q.partno = i.partno";
      "SELECT partno FROM quotations WHERE partno IN (SELECT partno FROM \
       inventory WHERE type = 'CPU') ORDER BY partno";
      "SELECT supplier, count(*), min(price) FROM quotations GROUP BY supplier";
      "SELECT partno FROM inventory UNION SELECT partno FROM quotations";
      "SELECT DISTINCT supplier FROM quotations ORDER BY supplier DESC LIMIT 2";
    ]

(* ------------------------------------------------------------------ *)
(* Qgm.Check extensions                                                *)
(* ------------------------------------------------------------------ *)

let build_g db text = Starburst.build_qgm db (Sb_hydrogen.Parser.query_text text)

let expect_violation name sub g =
  let vs = Check.check g in
  if not (List.exists (contains ~sub) vs) then
    Alcotest.failf "%s: expected a violation mentioning %S, got [%s]" name sub
      (String.concat "; " vs)

let test_corrupted_qgm () =
  let db = sample_db () in
  (* dangling quantifier *)
  let g = build_g db "SELECT partno FROM quotations" in
  (List.hd (Qgm.top_box g).Qgm.b_head).Qgm.hc_expr <- Some (Qgm.Col (999, 0));
  expect_violation "dangling quantifier" "missing quantifier" g;
  (* column out of range *)
  let g = build_g db "SELECT partno FROM quotations" in
  let top = Qgm.top_box g in
  (List.hd top.Qgm.b_head).Qgm.hc_expr <-
    Some (Qgm.Col ((List.hd top.Qgm.b_quants).Qgm.q_id, 99));
  expect_violation "column out of range" "out of range" g;
  (* duplicate quantifier id within a box *)
  let g = build_g db "SELECT partno FROM quotations" in
  let top = Qgm.top_box g in
  top.Qgm.b_quants <- top.Qgm.b_quants @ [ List.hd top.Qgm.b_quants ];
  expect_violation "duplicate quantifier id" "duplicate quantifier id" g;
  (* qualifier edge into an unrelated box: the top box referencing a
     quantifier that lives inside the subquery box *)
  let g =
    build_g db
      "SELECT partno FROM quotations WHERE partno IN (SELECT partno FROM inventory)"
  in
  let top = Qgm.top_box g in
  let sub_box =
    List.find
      (fun (b : Qgm.box) ->
        b.Qgm.b_id <> top.Qgm.b_id && b.Qgm.b_kind = Qgm.Select)
      (Qgm.reachable_boxes g)
  in
  let inner_quant = List.hd sub_box.Qgm.b_quants in
  top.Qgm.b_preds <-
    top.Qgm.b_preds
    @ [ Qgm.pred
          (Qgm.Bin (Ast.Gt, Qgm.Col (inner_quant.Qgm.q_id, 0), Qgm.Lit (Value.Int 0)))
      ];
  expect_violation "unrelated quantifier reference" "unrelated box" g;
  (* empty head in a setformer box *)
  let g = build_g db "SELECT partno FROM quotations" in
  (Qgm.top_box g).Qgm.b_head <- [];
  expect_violation "empty head" "empty head in a setformer box" g

let test_violations_name_the_box () =
  let db = sample_db () in
  let g = build_g db "SELECT partno FROM quotations" in
  let top = Qgm.top_box g in
  (List.hd top.Qgm.b_head).Qgm.hc_expr <- Some (Qgm.Col (999, 0));
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Fmt.str "violation names its box: %s" v)
        true
        (contains ~sub:(Fmt.str "box %d" top.Qgm.b_id) v))
    (Check.check g);
  (* dot rendering carries the numeric box id *)
  let g = build_g db "SELECT partno FROM quotations" in
  Alcotest.(check bool) "dot labels carry box ids" true
    (contains
       ~sub:(Fmt.str "{%d: " (Qgm.top_box g).Qgm.b_id)
       (Sb_qgm.Print.to_dot g))

(* ------------------------------------------------------------------ *)
(* Rule_audit                                                          *)
(* ------------------------------------------------------------------ *)

let test_compare_results () =
  let a = [ row [ i 1; s "x" ]; row [ i 2; s "y" ] ] in
  let shuffled = [ row [ i 2; s "y" ]; row [ i 1; s "x" ] ] in
  Alcotest.(check bool) "equal bags, any order" true
    (Rule_audit.compare_results a shuffled = Ok ());
  (match Rule_audit.compare_results a [ row [ i 1; s "x" ] ] with
  | Error msg ->
    Alcotest.(check bool) "reports the lost row" true (contains ~sub:"lost" msg)
  | Ok () -> Alcotest.fail "missing row not detected");
  (match Rule_audit.compare_results ~ordered:true a shuffled with
  | Error msg ->
    Alcotest.(check bool) "ordered compare reports position" true
      (contains ~sub:"row 0" msg)
  | Ok () -> Alcotest.fail "ordered divergence not detected");
  match Rule_audit.compare_results a (a @ [ row [ i 3; s "z" ] ]) with
  | Error msg ->
    Alcotest.(check bool) "reports the gained row" true (contains ~sub:"gained" msg)
  | Ok () -> Alcotest.fail "extra row not detected"

(** A rule whose action breaks QGM consistency is caught mid-rewrite and
    attributed by name. *)
let test_instrument_catches_bad_rule () =
  let db = sample_db () in
  let g = build_g db "SELECT partno FROM quotations" in
  let corrupted (b : Qgm.box) =
    match b.Qgm.b_head with
    | { Qgm.hc_expr = Some (Qgm.Col (999, _)); _ } :: _ -> true
    | _ -> false
  in
  let bad =
    Rule.make ~name:"graph_smasher" ~rule_class:"test"
      ~condition:(fun ctx ->
        ctx.Rule.box.Qgm.b_id = ctx.Rule.graph.Qgm.top
        && not (corrupted ctx.Rule.box))
      ~action:(fun ctx ->
        (List.hd ctx.Rule.box.Qgm.b_head).Qgm.hc_expr <- Some (Qgm.Col (999, 0)))
      ()
  in
  match Engine.run ~rules:(Rule_audit.instrument [ bad ]) g with
  | _ -> Alcotest.fail "inconsistent firing not detected"
  | exception Rule_audit.Unsound msg ->
    Alcotest.(check bool) "names the rule" true (contains ~sub:"graph_smasher" msg);
    Alcotest.(check bool) "after the firing" true (contains ~sub:"after" msg)

(* keeps QGM consistent but changes semantics *)
let predicate_dropper () =
  Rule.make ~name:"predicate_dropper" ~rule_class:"test"
    ~condition:(fun ctx ->
      ctx.Rule.box.Qgm.b_kind = Qgm.Select && ctx.Rule.box.Qgm.b_preds <> [])
    ~action:(fun ctx -> ctx.Rule.box.Qgm.b_preds <- [])
    ()

(** A rule that keeps QGM consistent but changes semantics is caught by
    the differential oracle under paranoid mode. *)
let test_differential_catches_unsound_rule () =
  let db = sample_db () in
  Rule.add db.Starburst.Corona.rules (predicate_dropper ());
  db.Starburst.Corona.paranoid <- true;
  (match q db "SELECT partno FROM quotations WHERE price < 20" with
  | _ -> Alcotest.fail "semantic divergence not detected"
  | exception Rule_audit.Unsound msg ->
    Alcotest.(check bool) "divergence reported" true (contains ~sub:"diverge" msg));
  db.Starburst.Corona.paranoid <- false

(** Paranoid mode is transparent for sound rewrites: same rows, rule
    audit silent, differential green. *)
let test_paranoid_transparent () =
  let db = sample_db () in
  let text =
    "SELECT q.partno FROM quotations q WHERE q.partno IN (SELECT partno FROM \
     inventory WHERE type = 'CPU') ORDER BY q.partno"
  in
  let plain = q db text in
  db.Starburst.Corona.paranoid <- true;
  let audited = q db text in
  db.Starburst.Corona.paranoid <- false;
  check_rows "same rows under paranoid mode" plain audited

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint_codes db text =
  List.map (fun d -> d.Lint.d_code) (Lint.lint_qgm (build_g db text))

let test_lint_statement () =
  let db = sample_db () in
  Alcotest.(check bool) "always-false flagged" true
    (List.mem "always-false"
       (lint_codes db "SELECT partno FROM quotations WHERE 1 = 2"));
  Alcotest.(check bool) "shadowed column flagged" true
    (List.mem "shadowed-column"
       (lint_codes db "SELECT partno, partno FROM quotations"));
  Alcotest.(check bool) "unused setformer flagged" true
    (List.mem "unused-quant"
       (lint_codes db "SELECT q.partno FROM quotations q, inventory i"));
  Alcotest.(check bool) "unordered LIMIT flagged" true
    (List.mem "unordered-limit"
       (lint_codes db "SELECT partno FROM quotations LIMIT 2"));
  (* a clean query lints clean *)
  Alcotest.(check (list string)) "clean query" []
    (lint_codes db
       "SELECT q.partno FROM quotations q WHERE q.price < 20 ORDER BY q.partno");
  (* diagnostics carry their box *)
  match Lint.lint_qgm (build_g db "SELECT partno FROM quotations WHERE 1 = 2") with
  | d :: _ ->
    Alcotest.(check bool) "locates a box" true
      (match d.Lint.d_loc with Lint.Box _ -> true | Lint.Table _ | Lint.Rule _ -> false)
  | [] -> Alcotest.fail "no diagnostics"

let test_lint_catalog () =
  let db = Starburst.create () in
  ignore (Starburst.run db "CREATE TABLE t (a INT)");
  ignore (Starburst.run db "INSERT INTO t VALUES (1), (2), (3)");
  let diags = Lint.lint_catalog db.Starburst.Corona.catalog in
  Alcotest.(check bool) "missing stats flagged" true
    (List.exists (fun d -> d.Lint.d_code = "no-stats") diags);
  ignore (Starburst.run db "ANALYZE");
  Alcotest.(check (list string)) "analyzed catalog is clean" []
    (List.map (fun d -> d.Lint.d_code)
       (Lint.lint_catalog db.Starburst.Corona.catalog))

let test_const_truth () =
  let t = Lint.const_truth in
  Alcotest.(check (option bool)) "1 = 2" (Some false)
    (t (Qgm.Bin (Ast.Eq, Qgm.Lit (Value.Int 1), Qgm.Lit (Value.Int 2))));
  Alcotest.(check (option bool)) "1 <= 2" (Some true)
    (t (Qgm.Bin (Ast.Le, Qgm.Lit (Value.Int 1), Qgm.Lit (Value.Int 2))));
  Alcotest.(check (option bool)) "false AND unknown" (Some false)
    (t (Qgm.Bin (Ast.And, Qgm.Lit (Value.Bool false), Qgm.Col (1, 0))));
  Alcotest.(check (option bool)) "column is opaque" None (t (Qgm.Col (1, 0)))

(* ------------------------------------------------------------------ *)
(* EXPLAIN VERIFY / parser                                             *)
(* ------------------------------------------------------------------ *)

let test_explain_verify () =
  let db = sample_db () in
  match
    Starburst.run db
      "EXPLAIN VERIFY SELECT partno FROM quotations WHERE partno IN (SELECT \
       partno FROM inventory WHERE type = 'CPU')"
  with
  | Starburst.Corona.Message s ->
    List.iter
      (fun sub ->
        Alcotest.(check bool) (Fmt.str "report mentions %S" sub) true
          (contains ~sub s))
      [ "== VERIFY =="; "qgm (built)"; "rule audit"; "plan (optimized)"; "differential" ];
    Alcotest.(check bool) "no divergence" false (contains ~sub:"DIVERGED" s);
    Alcotest.(check bool) "no unsoundness" false (contains ~sub:"UNSOUND" s)
  | _ -> Alcotest.fail "expected a Message result"

let test_parser_roundtrip () =
  match Sb_hydrogen.Parser.statement "EXPLAIN VERIFY SELECT src FROM edges" with
  | Ast.Stmt_explain (Ast.Explain_verify, _) as stmt ->
    Alcotest.(check bool) "pretty-prints back" true
      (contains ~sub:"EXPLAIN VERIFY" (Sb_hydrogen.Pretty.statement_to_string stmt))
  | _ -> Alcotest.fail "EXPLAIN VERIFY did not parse"

(** The oracle also guards the plan-cached path every server SELECT
    takes, on a cache miss and on a hit. *)
let test_cached_query_paranoid () =
  let db = sample_db () in
  Rule.add db.Starburst.Corona.rules (predicate_dropper ());
  db.Starburst.Corona.paranoid <- true;
  let text = "SELECT partno FROM quotations WHERE price < 20" in
  List.iter
    (fun what ->
      match Starburst.cached_query db text with
      | _ -> Alcotest.failf "%s: semantic divergence not detected" what
      | exception Rule_audit.Unsound msg ->
        Alcotest.(check bool) (what ^ ": divergence reported") true
          (contains ~sub:"changed query results" msg))
    [ "cache miss"; "cache hit" ];
  db.Starburst.Corona.paranoid <- false

let suite =
  ( "verify",
    [
      case "corrupted plan table" test_corrupted_plans;
      case "plan checks against the catalog" test_plan_check_catalog;
      case "real plans are valid" test_real_plans_are_valid;
      case "corrupted QGM table" test_corrupted_qgm;
      case "violations name the box" test_violations_name_the_box;
      case "differential result comparison" test_compare_results;
      case "audit catches an inconsistent rule" test_instrument_catches_bad_rule;
      case "differential catches an unsound rule" test_differential_catches_unsound_rule;
      case "paranoid mode is transparent" test_paranoid_transparent;
      case "statement lints" test_lint_statement;
      case "catalog lints" test_lint_catalog;
      case "constant folding" test_const_truth;
      case "EXPLAIN VERIFY report" test_explain_verify;
      case "EXPLAIN VERIFY parses" test_parser_roundtrip;
      case "paranoid mode checks cached queries" test_cached_query_paranoid;
    ] )
