(** Tests for the semantic-analysis layer ([lib/analysis]): the
    predicate prover against a fixture table of implication and
    satisfiability judgments (interval arithmetic, equality chains,
    three-valued NULL logic, undecidable cases), property inference over
    QGM (keys, nullability, row bounds, provable emptiness), totality on
    corrupted graphs, monotonicity of inferred facts across rewrite
    firings, the prover-backed lints, and inference-tightened optimizer
    estimates. *)

open Sb_storage
module Ast = Sb_hydrogen.Ast
module Qgm = Sb_qgm.Qgm
module Props = Sb_analysis.Props
module Prover = Sb_analysis.Prover
module Infer = Sb_analysis.Infer
module Lint = Sb_verify.Lint
module Rule = Sb_rewrite.Rule
module Engine = Sb_rewrite.Engine
module Rule_audit = Sb_verify.Rule_audit
module Generator = Sb_optimizer.Generator
module Plan = Sb_optimizer.Plan
open Test_util

(* --- expression shorthand for prover fixtures --- *)

let x = Qgm.Col (1, 0)
let y = Qgm.Col (2, 0)
let z = Qgm.Col (3, 0)
let n v = Qgm.Lit (Value.Int v)
let str v = Qgm.Lit (Value.String v)
let vnull = Qgm.Lit Value.Null
let eq a b = Qgm.Bin (Ast.Eq, a, b)
let neq a b = Qgm.Bin (Ast.Neq, a, b)
let lt a b = Qgm.Bin (Ast.Lt, a, b)
let le a b = Qgm.Bin (Ast.Le, a, b)
let gt a b = Qgm.Bin (Ast.Gt, a, b)
let ge a b = Qgm.Bin (Ast.Ge, a, b)
let add a b = Qgm.Bin (Ast.Add, a, b)
let not_ a = Qgm.Un (Ast.Not, a)
let isnull a = Qgm.Is_null a
let notnull a = not_ (isnull a)

let sat_t : Prover.sat Alcotest.testable =
  Alcotest.testable
    (fun ppf s -> Fmt.string ppf (Prover.sat_to_string s))
    ( = )

let verdict_t : Prover.verdict Alcotest.testable =
  Alcotest.testable
    (fun ppf v -> Fmt.string ppf (Prover.verdict_to_string v))
    ( = )

(* ------------------------------------------------------------------ *)
(* Prover: satisfiability judgments                                    *)
(* ------------------------------------------------------------------ *)

let test_satisfiability () =
  let open Prover in
  let table =
    [
      (* equality-class congruence against constants *)
      ("x=1", [ eq x (n 1) ], Satisfiable);
      ("x=1, x=2", [ eq x (n 1); eq x (n 2) ], Unsatisfiable);
      ("x=y, y=3, x>5", [ eq x y; eq y (n 3); gt x (n 5) ], Unsatisfiable);
      ("x=y, y=z, x<>z", [ eq x y; eq y z; neq x z ], Unsatisfiable);
      (* interval arithmetic (strict integer bounds tighten) *)
      ("x<5, x>10", [ lt x (n 5); gt x (n 10) ], Unsatisfiable);
      ("x>3, x<5", [ gt x (n 3); lt x (n 5) ], Satisfiable);
      ("x<=5, x>=5", [ le x (n 5); ge x (n 5) ], Satisfiable);
      ("1<=x<=3, x=2", [ ge x (n 1); le x (n 3); eq x (n 2) ], Satisfiable);
      ("1<=x<=3, x=4", [ ge x (n 1); le x (n 3); eq x (n 4) ], Unsatisfiable);
      ( "x>0, y>0, x+y<0",
        [ gt x (n 0); gt y (n 0); lt (add x y) (n 0) ],
        Unsatisfiable );
      (* negation: round two sees the bound learned in round one *)
      ("not(x>5), x>7", [ not_ (gt x (n 5)); gt x (n 7) ], Unsatisfiable);
      (* strings: strict bounds are kept closed (sound over-approx.)
         but point evaluation still refutes *)
      ("x='abc', x='abd'", [ eq x (str "abc"); eq x (str "abd") ], Unsatisfiable);
      ("x<'b', x='c'", [ lt x (str "b"); eq x (str "c") ], Unsatisfiable);
      ("x<'b', x='b'", [ lt x (str "b"); eq x (str "b") ], Unsatisfiable);
      (* three-valued NULL logic *)
      ("x is null, x is not null", [ isnull x; notnull x ], Unsatisfiable);
      ("x=1, x is null", [ eq x (n 1); isnull x ], Unsatisfiable);
      ("x=NULL", [ eq x vnull ], Unsatisfiable);
      (* x=x passing implies x NOT NULL; rows with x = 1 satisfy it *)
      ("x=x", [ eq x x ], Satisfiable);
      ("x not null, x=x", [ notnull x; eq x x ], Satisfiable);
      (* honestly undecidable -> unknown *)
      ("x>y", [ gt x y ], Sat_unknown);
      (* disequality tracking: x<>1 forced TRUE once x is in no class
         with the constant 1, so the refined env exhibits a witness *)
      ("x<>1", [ neq x (n 1) ], Satisfiable);
    ]
  in
  List.iter
    (fun (name, conjs, expected) ->
      Alcotest.check sat_t name expected (Prover.satisfiable conjs))
    table

(* ------------------------------------------------------------------ *)
(* Prover: implication judgments                                       *)
(* ------------------------------------------------------------------ *)

let test_implication () =
  let open Prover in
  let table =
    [
      ("x>5 => x>3", [ gt x (n 5) ], gt x (n 3), Proved);
      ("x>5 => x>=6", [ gt x (n 5) ], ge x (n 6), Proved);
      ("x=1 => x<=1", [ eq x (n 1) ], le x (n 1), Proved);
      ("x<5 => x<10", [ lt x (n 5) ], lt x (n 10), Proved);
      ("x<5 => x<3", [ lt x (n 5) ], lt x (n 3), Unknown);
      ("x=1 => x=2", [ eq x (n 1) ], eq x (n 2), Disproved);
      (* congruence chains *)
      ("x=y, y=3 => x=3", [ eq x y; eq y (n 3) ], eq x (n 3), Proved);
      ("x=y, y=z => x=z", [ eq x y; eq y z ], eq x z, Proved);
      ("x=y, y=3 => x>9", [ eq x y; eq y (n 3) ], gt x (n 9), Disproved);
      (* comparisons imply NOT NULL *)
      ("x>5 => x not null", [ gt x (n 5) ], notnull x, Proved);
      ("x is null => x=1", [ isnull x ], eq x (n 1), Disproved);
      (* unsatisfiable hypotheses prove anything (vacuous) *)
      ("x=1, x=2 => x=7", [ eq x (n 1); eq x (n 2) ], eq x (n 7), Proved);
      (* no hypotheses: constant folding *)
      ("[] => 1<2", [], lt (n 1) (n 2), Proved);
      (* flipped comparisons are outside the fragment -> Unknown *)
      ("x>=y => y<=x", [ ge x y ], le y x, Unknown);
    ]
  in
  List.iter
    (fun (name, hyps, concl, expected) ->
      Alcotest.check verdict_t name expected (Prover.implies hyps concl))
    table;
  (* box properties plumb through prop_of: a declared-range column *)
  let prop_of q i =
    if q = 1 && i = 0 then
      {
        Props.cp_nullable = false;
        cp_interval = Some { Props.lo = Some (Value.Int 0); hi = Some (Value.Int 10) };
      }
    else Props.top_col
  in
  Alcotest.check verdict_t "col in [0,10] => col >= 0" Prover.Proved
    (Prover.implies ~prop_of [] (ge x (n 0)));
  Alcotest.check verdict_t "col in [0,10] => col < 5 unknown" Prover.Unknown
    (Prover.implies ~prop_of [] (lt x (n 5)))

(* ------------------------------------------------------------------ *)
(* Prover: three-valued constant truth (the old Lint bug)              *)
(* ------------------------------------------------------------------ *)

let test_const_truth_3vl () =
  let t = Prover.const_truth in
  (* x = NULL never passes a WHERE: the two-valued folder let it escape *)
  Alcotest.(check (option bool)) "x = NULL" (Some false) (t (eq x vnull));
  Alcotest.(check (option bool)) "NULL = NULL" (Some false) (t (eq vnull vnull));
  (* NOT NULL is NULL, not TRUE: the old folder said Some true *)
  Alcotest.(check (option bool)) "NOT NULL" (Some false) (t (not_ vnull));
  Alcotest.(check (option bool)) "NULL IS NULL" (Some true) (t (isnull vnull));
  Alcotest.(check (option bool)) "1 = 1" (Some true) (t (eq (n 1) (n 1)));
  Alcotest.(check (option bool)) "1 = 2" (Some false) (t (eq (n 1) (n 2)));
  Alcotest.(check (option bool)) "opaque column" None (t (gt x (n 0)));
  (* OR with one true arm is true even if the other is NULL *)
  Alcotest.(check (option bool)) "TRUE OR NULL" (Some true)
    (t (Qgm.Bin (Ast.Or, Qgm.Lit (Value.Bool true), vnull)));
  (* AND with a NULL arm can never be TRUE *)
  Alcotest.(check (option bool)) "NULL AND TRUE" (Some false)
    (t (Qgm.Bin (Ast.And, vnull, Qgm.Lit (Value.Bool true))))

(* ------------------------------------------------------------------ *)
(* Inference over QGM                                                  *)
(* ------------------------------------------------------------------ *)

let build_g db text = Starburst.build_qgm db (Sb_hydrogen.Parser.query_text text)

let analyze ?(trust_stats = false) db text =
  let g = build_g db text in
  (g, Infer.analyze ~trust_stats ~catalog:db.Starburst.Corona.catalog g)

let top_props (g, inf) = Infer.box_props inf g.Qgm.top

let test_infer_keys_and_nulls () =
  let db = sample_db () in
  (* catalog UNIQUE surfaces as a key through a pass-through select *)
  let gp = analyze db "SELECT i.partno, i.onhand_qty FROM inventory i" in
  let p = top_props gp in
  Alcotest.(check bool) "unique column covers a key" true
    (Props.covers_key p [ 0 ]);
  Alcotest.(check bool) "non-key columns do not" false (Props.covers_key p [ 1 ]);
  Alcotest.(check bool) "declared NOT NULL survives" false
    p.Props.bp_cols.(0).Props.cp_nullable;
  Alcotest.(check bool) "nullable column stays nullable" true
    p.Props.bp_cols.(1).Props.cp_nullable;
  (* a key pinned by a constant proves a single row *)
  let p = top_props (analyze db "SELECT i.onhand_qty FROM inventory i WHERE i.partno = 2") in
  Alcotest.(check bool) "key = constant is single-row" true (Props.single_row p);
  (* DISTINCT makes the whole head a key *)
  let p = top_props (analyze db "SELECT DISTINCT q.supplier FROM quotations q") in
  Alcotest.(check bool) "DISTINCT head is a key" true (Props.covers_key p [ 0 ]);
  (* GROUP BY heads are a key *)
  let p =
    top_props
      (analyze db "SELECT q.supplier, count(*) FROM quotations q GROUP BY q.supplier")
  in
  Alcotest.(check bool) "grouping head is a key" true (Props.covers_key p [ 0 ]);
  Alcotest.(check bool) "aggregate column is not" false (Props.covers_key p [ 1 ])

let test_infer_emptiness_and_bounds () =
  let db = sample_db () in
  (* a contradictory WHERE proves the box empty *)
  let p =
    top_props
      (analyze db
         "SELECT q.partno FROM quotations q WHERE q.partno > 5 AND q.partno < 3")
  in
  Alcotest.(check bool) "contradiction proves empty" true p.Props.bp_empty;
  Alcotest.(check (option int)) "empty box bounds at zero" (Some 0)
    p.Props.bp_max_rows;
  (* a satisfiable WHERE does not *)
  let p =
    top_props (analyze db "SELECT q.partno FROM quotations q WHERE q.partno > 2")
  in
  Alcotest.(check bool) "satisfiable is not empty" false p.Props.bp_empty;
  (* trusted statistics bound GROUP BY output by the key range width:
     partno ranges over [1,4] after ANALYZE *)
  let p =
    top_props
      (analyze ~trust_stats:true db
         "SELECT q.partno, count(*) FROM quotations q GROUP BY q.partno")
  in
  (match p.Props.bp_max_rows with
  | Some b -> Alcotest.(check bool) (Fmt.str "group bound %d <= 4" b) true (b <= 4)
  | None -> Alcotest.fail "expected a row bound on the GROUP BY");
  (* without trusting statistics the interval is unknown, but the
     grouping input's cardinality cannot be proved either *)
  let p =
    top_props (analyze db "SELECT q.partno, count(*) FROM quotations q GROUP BY q.partno")
  in
  Alcotest.(check bool) "untrusted group key still a key" true
    (Props.covers_key p [ 0 ]);
  (* a grand aggregate is exactly one row, even over an empty input *)
  let p = top_props (analyze db "SELECT count(*) FROM quotations q") in
  Alcotest.(check bool) "grand aggregate is single-row" true (Props.single_row p)

(** Inference must be total on broken graphs — the corrupted-QGM
    fixtures from the verifier suite (dangling quantifiers, columns out
    of range) analyze to sound over-approximations, never exceptions. *)
let test_infer_total_on_corrupted () =
  let db = sample_db () in
  let catalog = db.Starburst.Corona.catalog in
  let fresh () = build_g db "SELECT partno FROM quotations" in
  let cases =
    [
      ( "dangling quantifier",
        fun g ->
          (List.hd (Qgm.top_box g).Qgm.b_head).Qgm.hc_expr
          <- Some (Qgm.Col (999, 0)) );
      ( "column out of range",
        fun g ->
          let top = Qgm.top_box g in
          (List.hd top.Qgm.b_head).Qgm.hc_expr
          <- Some (Qgm.Col ((List.hd top.Qgm.b_quants).Qgm.q_id, 99)) );
      ( "duplicate quantifier",
        fun g ->
          let top = Qgm.top_box g in
          top.Qgm.b_quants <- top.Qgm.b_quants @ [ List.hd top.Qgm.b_quants ] );
    ]
  in
  List.iter
    (fun (name, corrupt) ->
      let g = fresh () in
      corrupt g;
      match Infer.analyze ~catalog g with
      | inf ->
        let p = Infer.box_props inf g.Qgm.top in
        Alcotest.(check bool)
          (name ^ ": over-approximation, not a proof of emptiness")
          false p.Props.bp_empty
      | exception e ->
        Alcotest.failf "%s: inference raised %s" name (Printexc.to_string e))
    cases

(* ------------------------------------------------------------------ *)
(* Monotonicity across rewrite firings                                 *)
(* ------------------------------------------------------------------ *)

(** The inference audit compares inferred top-box facts before and after
    every firing: the stock rule set must not lose any on these
    queries.  A deliberately fact-destroying rule must be caught. *)
let test_monotone_across_rewrites () =
  let db = sample_db () in
  let catalog = db.Starburst.Corona.catalog in
  let audit_rewrite extra_rules text =
    let g = build_g db text in
    let lost = ref [] in
    let rules =
      Rule_audit.instrument_inference ~catalog
        ~on_regression:(fun m -> lost := m :: !lost)
        (Rule.all db.Starburst.Corona.rules @ extra_rules)
    in
    ignore (Engine.run ~rules g);
    !lost
  in
  List.iter
    (fun text ->
      Alcotest.(check (list string))
        (Fmt.str "no facts lost rewriting %S" text)
        [] (audit_rewrite [] text))
    [
      "SELECT q.partno FROM quotations q WHERE q.partno IN (SELECT partno \
       FROM inventory)";
      "SELECT DISTINCT i.partno FROM inventory i WHERE i.partno > 1";
      "SELECT q.partno, q.price FROM quotations q, inventory i WHERE \
       q.partno = i.partno AND i.type = 'CPU'";
    ];
  (* a rule that strips DISTINCT (losing the whole-head key) is caught *)
  let fact_smasher =
    Rule.make ~priority:1 ~name:"fact_smasher" ~rule_class:"test"
      ~condition:(fun ctx -> ctx.Rule.box.Qgm.b_distinct)
      ~action:(fun ctx -> ctx.Rule.box.Qgm.b_distinct <- false)
      ()
  in
  let lost =
    audit_rewrite [ fact_smasher ] "SELECT DISTINCT q.supplier FROM quotations q"
  in
  Alcotest.(check bool) "regression reported" true (lost <> []);
  Alcotest.(check bool) "attributed to the rule" true
    (List.exists
       (fun m ->
         let len = String.length "fact_smasher" in
         String.length m >= len && String.sub m 0 len = "fact_smasher")
       lost)

(* ------------------------------------------------------------------ *)
(* Prover-backed lints                                                 *)
(* ------------------------------------------------------------------ *)

let lint_codes db text =
  List.map
    (fun d -> d.Lint.d_code)
    (Lint.lint_qgm ~catalog:db.Starburst.Corona.catalog (build_g db text))

let test_lint_contradictory_pred () =
  let db = sample_db () in
  Alcotest.(check bool) "interval contradiction flagged" true
    (List.mem "contradictory-pred"
       (lint_codes db
          "SELECT q.partno FROM quotations q WHERE q.partno > 5 AND q.partno < 3"));
  Alcotest.(check bool) "equality contradiction flagged" true
    (List.mem "contradictory-pred"
       (lint_codes db
          "SELECT q.partno FROM quotations q WHERE q.partno = 1 AND q.partno = 2"));
  (* satisfiable conjunctions stay quiet *)
  Alcotest.(check bool) "satisfiable WHERE is clean" false
    (List.mem "contradictory-pred"
       (lint_codes db
          "SELECT q.partno FROM quotations q WHERE q.partno > 1 AND q.partno < 4"))

let test_lint_implied_pred () =
  let db = sample_db () in
  Alcotest.(check bool) "x>5 makes x>3 redundant" true
    (List.mem "implied-pred"
       (lint_codes db
          "SELECT q.partno FROM quotations q WHERE q.partno > 5 AND q.partno > 3"));
  Alcotest.(check bool) "equality chain makes a copy redundant" true
    (List.mem "implied-pred"
       (lint_codes db
          "SELECT q.partno FROM quotations q, inventory i WHERE q.partno = \
           i.partno AND q.partno = 2 AND i.partno = 2"));
  Alcotest.(check bool) "independent conjuncts are clean" false
    (List.mem "implied-pred"
       (lint_codes db
          "SELECT q.partno FROM quotations q WHERE q.partno > 1 AND q.price > 5.0"))

let test_lint_null_join_key () =
  let db = sample_db () in
  (* emp.dept and edges.src are both nullable *)
  Alcotest.(check bool) "nullable = nullable join flagged" true
    (List.mem "null-join-key"
       (lint_codes db "SELECT e.eid FROM emp e, edges g WHERE e.dept = g.src"));
  (* an IS NOT NULL guard silences it *)
  Alcotest.(check bool) "guarded join is clean" false
    (List.mem "null-join-key"
       (lint_codes db
          "SELECT e.eid FROM emp e, edges g WHERE e.dept = g.src AND e.dept \
           IS NOT NULL AND g.src IS NOT NULL"));
  (* NOT NULL columns never fire it *)
  Alcotest.(check bool) "NOT NULL join is clean" false
    (List.mem "null-join-key"
       (lint_codes db
          "SELECT q.partno FROM quotations q, inventory i WHERE q.partno = \
           i.partno"))

(** The redundant conjunct showcased in [examples/quickstart.ml]'s
    Analysis section must keep firing the lint. *)
let test_lint_examples_query () =
  let db = sample_db () in
  Alcotest.(check bool) "examples/ query fires implied-pred" true
    (List.mem "implied-pred"
       (lint_codes db
          "SELECT partno, price FROM quotations WHERE partno = 1 AND partno >= 1"))

(* ------------------------------------------------------------------ *)
(* Optimizer integration: inference-tightened estimates                *)
(* ------------------------------------------------------------------ *)

let test_optimizer_tighter_estimates () =
  let db = sample_db () in
  (* two UNIQUE-keyed 30-row tables created after the sample ANALYZE, so
     the estimator sees no statistics and must fall back on default
     selectivities — the semantic analysis still proves the pinned keys
     make each side (and hence the join) a single row *)
  let run s = ignore (Starburst.run db s) in
  run "CREATE TABLE big_q (partno INT NOT NULL UNIQUE, price FLOAT)";
  run "CREATE TABLE big_i (partno INT NOT NULL UNIQUE, onhand INT)";
  run
    ("INSERT INTO big_q VALUES "
    ^ String.concat ","
        (List.init 30 (fun i -> Fmt.str "(%d, %d.0)" (i + 1) (i * 10))));
  run
    ("INSERT INTO big_i VALUES "
    ^ String.concat ","
        (List.init 30 (fun i -> Fmt.str "(%d, %d)" (i + 1) (i * 10))));
  let opt = db.Starburst.Corona.optimizer in
  let text =
    "SELECT q.price, i.onhand FROM big_q q, big_i i WHERE q.partno = \
     i.partno AND i.partno >= 7 AND i.partno <= 7"
  in
  let card use =
    opt.Generator.use_analysis <- use;
    let plan = Generator.optimize opt (build_g db text) in
    plan.Plan.props.Plan.p_card
  in
  let without = card false in
  let with_inference = card true in
  opt.Generator.use_analysis <- true;
  Alcotest.(check bool)
    (Fmt.str "inference tightens the estimate (%.1f < %.1f)" with_inference
       without)
    true
    (with_inference < without);
  (* the derived key feeding the estimate is visible in the analysis *)
  (match opt.Generator.analysis with
  | Some inf ->
    let g = build_g db text in
    ignore g;
    Alcotest.(check bool) "inference ran" true (Infer.fact_count inf > 0)
  | None -> Alcotest.fail "optimizer retained no analysis");
  (* EXPLAIN ANALYSIS surfaces the inferred key and the tightened plan *)
  match Starburst.run db ("EXPLAIN ANALYSIS " ^ text) with
  | Starburst.Corona.Message s ->
    Alcotest.(check bool) "analysis section present" true
      (contains ~sub:"== ANALYSIS" s);
    Alcotest.(check bool) "an inferred key is shown" true (contains ~sub:"keys: (" s);
    Alcotest.(check bool) "plan section present" true
      (contains ~sub:"inference-tightened" s)
  | _ -> Alcotest.fail "EXPLAIN ANALYSIS did not return a message"

let test_explain_analysis_parses () =
  match Sb_hydrogen.Parser.statement "EXPLAIN ANALYSIS SELECT src FROM edges" with
  | Ast.Stmt_explain (Ast.Explain_analysis, _) as stmt ->
    let s = Sb_hydrogen.Pretty.statement_to_string stmt in
    Alcotest.(check bool) "pretty-prints back" true
      (contains ~sub:"EXPLAIN ANALYSIS" s)
  | _ -> Alcotest.fail "EXPLAIN ANALYSIS did not parse"

(** A rewrite that fails after mutating the graph degrades to the
    canonical QGM; EXPLAIN ANALYSIS must analyse and plan that graph, not
    the half-rewritten one. *)
let test_analysis_after_failed_rewrite () =
  let db = sample_db () in
  let text = "EXPLAIN ANALYSIS SELECT partno FROM quotations WHERE price < 20" in
  let plan_section () =
    match Starburst.run db text with
    | Starburst.Corona.Message s ->
      let marker = "== PLAN" in
      let rec find i =
        if i + String.length marker > String.length s then
          Alcotest.fail "no plan section"
        else if String.sub s i (String.length marker) = marker then i
        else find (i + 1)
      in
      let start = find 0 in
      String.sub s start (String.length s - start)
    | _ -> Alcotest.fail "EXPLAIN ANALYSIS did not return a message"
  in
  ignore (Starburst.run db "SET rewrite = off");
  let unrewritten = plan_section () in
  ignore (Starburst.run db "SET rewrite = on");
  Rule.add db.Starburst.Corona.rules
    (Rule.make ~name:"half_done" ~rule_class:"test"
       ~condition:(fun ctx ->
         ctx.Rule.box.Qgm.b_id = ctx.Rule.graph.Qgm.top
         && ctx.Rule.box.Qgm.b_preds <> [])
       ~action:(fun ctx ->
         ctx.Rule.box.Qgm.b_preds <- [];
         failwith "half_done gave up")
       ());
  Alcotest.(check string) "plan of the canonical QGM" unrewritten
    (plan_section ());
  Alcotest.(check bool) "the rewrite degraded" true
    (Starburst.last_degraded db <> None)

let suite =
  ( "analysis",
    [
      case "prover satisfiability table" test_satisfiability;
      case "prover implication table" test_implication;
      case "three-valued constant truth" test_const_truth_3vl;
      case "inferred keys and nullability" test_infer_keys_and_nulls;
      case "inferred emptiness and row bounds" test_infer_emptiness_and_bounds;
      case "inference total on corrupted QGM" test_infer_total_on_corrupted;
      case "facts monotone across rewrites" test_monotone_across_rewrites;
      case "lint: contradictory-pred" test_lint_contradictory_pred;
      case "lint: implied-pred" test_lint_implied_pred;
      case "lint: null-join-key" test_lint_null_join_key;
      case "lint: examples query" test_lint_examples_query;
      case "optimizer uses inference" test_optimizer_tighter_estimates;
      case "EXPLAIN ANALYSIS parses" test_explain_analysis_parses;
      case "EXPLAIN ANALYSIS after a failed rewrite"
        test_analysis_after_failed_rewrite;
    ] )
