(** lib/fuzz tests: the checked-in repro corpus stays green, the harness
    is byte-for-byte deterministic, a deliberately broken rewrite rule
    is caught by the differential oracle and shrunk to a tiny repro, a
    NULL-semantics fixture table agrees between the un-rewritten
    pipeline, fully optimized plans and the QGM reference evaluator, and
    the reference evaluator agrees with the engine on one query per QGM
    shape it interprets. *)

open Test_util
module Sprng = Sb_fuzz.Sprng
module Gen = Sb_fuzz.Gen
module Oracle = Sb_fuzz.Oracle
module Harness = Sb_fuzz.Harness
module Repro = Sb_fuzz.Repro
module Rule = Sb_rewrite.Rule
module Qgm = Sb_qgm.Qgm
module Rule_audit = Sb_verify.Rule_audit

(* --- checked-in repro corpus --------------------------------------- *)

(* Every file under fuzz_corpus/ is a shrunk repro of a discrepancy the
   fuzzer once found (and that has since been fixed): replaying them is
   the permanent regression suite for those bugs. *)
let test_corpus () =
  let dir = "fuzz_corpus" in
  let results = Harness.replay_dir dir in
  Alcotest.(check bool)
    "corpus is not empty" true
    (List.length results >= 5);
  List.iter
    (fun (path, verdict) ->
      match verdict with
      | Oracle.Pass -> ()
      | Oracle.Rejected msg -> Alcotest.failf "%s: rejected (%s)" path msg
      | Oracle.Unsupported msg -> Alcotest.failf "%s: unsupported (%s)" path msg
      | Oracle.Fail { config; detail } ->
        Alcotest.failf "%s: regressed [%s] %s" path config detail)
    results

(* --- determinism ---------------------------------------------------- *)

let test_determinism () =
  let run () =
    let st = Harness.run ~seed:17 ~n:25 () in
    Harness.report st
  in
  let a = run () and b = run () in
  Alcotest.(check string) "two runs, identical reports" a b

(* the same root seed must also generate the same workload text *)
let test_generator_determinism () =
  let workload seed =
    let root = Sprng.create seed in
    let cat_rng = Sprng.split root in
    let q_rng = Sprng.split root in
    let cat = Gen.gen_catalog cat_rng in
    String.concat "\n" (Gen.ddl_of_catalog cat)
    ^ "\n"
    ^ Gen.query_text (Gen.gen_query q_rng cat)
  in
  Alcotest.(check string) "same seed, same workload" (workload 5) (workload 5);
  Alcotest.(check bool)
    "different seed, different workload" true
    (workload 5 <> workload 6)

(* --- a deliberately broken rule is caught and shrunk ---------------- *)

(* An unsound rule in the style of the guard bugs the fuzzer has caught
   in the wild: it silently drops one WHERE conjunct.  Injected into
   every non-reference configuration, the differential oracle must flag
   it, and the shrinker must cut the repro down to at most 3
   quantifiers. *)
let broken_rule =
  Rule.make ~priority:99 ~name:"test_broken_drop_pred" ~rule_class:"test"
    ~condition:(fun ctx ->
      ctx.Rule.box.Qgm.b_kind = Qgm.Select && ctx.Rule.box.Qgm.b_preds <> [])
    ~action:(fun ctx ->
      match ctx.Rule.box.Qgm.b_preds with
      | _ :: rest -> ctx.Rule.box.Qgm.b_preds <- rest
      | [] -> ())
    ()

let test_broken_rule_caught () =
  let inject db = Starburst.Extension.register_rewrite_rule db broken_rule in
  let st = Harness.run ~inject ~seed:11 ~n:20 () in
  Alcotest.(check bool)
    "at least one discrepancy" true
    (st.Harness.st_failures <> []);
  let counts =
    List.map
      (fun (r : Repro.t) ->
        Gen.quantifier_count (Sb_hydrogen.Parser.query_text r.Repro.r_query))
      st.Harness.st_failures
  in
  let smallest = List.fold_left min max_int counts in
  if smallest > 3 then
    Alcotest.failf "no repro shrank to <= 3 quantifiers (smallest: %d)"
      smallest

(* --- NULL semantics at the QES boundary ----------------------------- *)

(* Each fixture runs once through the un-rewritten reference pipeline
   (rewrite off) and once through the full pipeline (rewrite +
   cost-based optimization); the result bags must agree.  The fixtures
   concentrate on three-valued logic: comparisons with NULL, IS [NOT]
   NULL, NOT IN over a NULL-containing list, outer-join padding,
   count-star vs count(col), GROUP BY and DISTINCT treating NULLs as
   one group, and CASE with a NULL arm. *)
let null_ddl =
  "CREATE TABLE nt (k INT NOT NULL, a INT, b STRING);\n\
   INSERT INTO nt VALUES (1, 10, 'x'), (2, NULL, 'y'), (3, 10, NULL), (4, \
   NULL, NULL), (5, 20, 'x');\n\
   CREATE TABLE nu (k INT NOT NULL, a INT);\n\
   INSERT INTO nu VALUES (1, 10), (2, NULL), (3, 30);\n\
   ANALYZE"

let null_fixtures =
  [
    "SELECT t.k FROM nt t WHERE t.a = 10";
    "SELECT t.k FROM nt t WHERE NOT (t.a = 10)";
    "SELECT t.k FROM nt t WHERE t.a IS NULL";
    "SELECT t.k FROM nt t WHERE t.a IS NOT NULL";
    "SELECT t.k FROM nt t WHERE t.a = NULL";
    "SELECT t.k FROM nt t WHERE t.a IN (10, NULL)";
    "SELECT t.k FROM nt t WHERE NOT (t.k IN (SELECT u.a FROM nu u))";
    "SELECT t.k FROM nt t WHERE t.a < 15 OR t.b = 'y'";
    "SELECT count(*) FROM nt t";
    "SELECT count(t.a) FROM nt t";
    "SELECT t.a, count(*) FROM nt t GROUP BY t.a";
    "SELECT DISTINCT t.a FROM nt t";
    "SELECT t.k, u.a FROM nt t LEFT OUTER JOIN nu u ON (t.a = u.a)";
    "SELECT t.k FROM nt t LEFT OUTER JOIN nu u ON (t.a = u.a) WHERE u.a IS \
     NULL";
    "SELECT t.k, CASE WHEN t.a = 10 THEN 'ten' ELSE t.b END FROM nt t";
    "SELECT t.k FROM nt t WHERE CASE WHEN t.a IS NULL THEN FALSE ELSE t.a = \
     10 END";
    "SELECT t.k FROM nt t WHERE t.a = (SELECT max(u.a) FROM nu u WHERE u.k = \
     2)";
    "SELECT t.k FROM nt t WHERE t.a >= ALL (SELECT u.a FROM nu u WHERE u.k > \
     5)";
  ]

let null_db ~rewrite =
  let db = Starburst.create () in
  Sb_extensions.Outer_join.install db;
  ignore (Starburst.run_script db null_ddl);
  db.Starburst.rewrite_enabled <- rewrite;
  db

let agree text a b =
  match Rule_audit.compare_results ~ordered:false a b with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s\n  %s" text msg

let test_null_semantics () =
  let reference = null_db ~rewrite:false in
  let optimized = null_db ~rewrite:true in
  List.iter
    (fun text ->
      let a = q reference text and b = q optimized text in
      agree text a b;
      agree text (reference_rows reference text) b)
    null_fixtures;
  (* a few hand-computed anchors so both pipelines can't agree on a
     shared wrong answer *)
  Alcotest.(check int)
    "3VL: a = 10 keeps only known-true rows" 2
    (List.length (q optimized "SELECT t.k FROM nt t WHERE t.a = 10"));
  Alcotest.(check int)
    "3VL: NOT (a = 10) drops NULLs too" 1
    (List.length (q optimized "SELECT t.k FROM nt t WHERE NOT (t.a = 10)"));
  Alcotest.(check int)
    "a = NULL is never true" 0
    (List.length (q optimized "SELECT t.k FROM nt t WHERE t.a = NULL"));
  Alcotest.(check int)
    "NOT IN with a NULL in the subquery filters everything" 0
    (List.length
       (q optimized
          "SELECT t.k FROM nt t WHERE NOT (t.k IN (SELECT u.a FROM nu u))"));
  check_bag "count(*) counts NULL rows, count(a) does not"
    [ row [ i 5 ] ]
    (q optimized "SELECT count(*) FROM nt t");
  check_bag "count(a) skips NULLs"
    [ row [ i 3 ] ]
    (q optimized "SELECT count(t.a) FROM nt t");
  Alcotest.(check int)
    "GROUP BY folds NULLs into one group" 3
    (List.length (q optimized "SELECT t.a, count(*) FROM nt t GROUP BY t.a"));
  Alcotest.(check int)
    ">= ALL over an empty set is TRUE for every row" 5
    (List.length
       (q optimized
          "SELECT t.k FROM nt t WHERE t.a >= ALL (SELECT u.a FROM nu u WHERE \
           u.k > 5)"))

(* --- the reference evaluator -------------------------------------- *)

(* One query per QGM shape the reference interprets, over the standard
   test schema: the reference and the engine (fully rewritten and
   optimized) agree as bags, and a few anchors pin literal answers. *)
let reference_fixtures =
  [
    "SELECT q.partno, i.type FROM quotations q, inventory i WHERE q.partno = \
     i.partno AND q.price > 10.0";
    "SELECT d.dname, e.eid FROM dept d LEFT OUTER JOIN emp e ON d.id = e.dept";
    "SELECT d.dname, e.eid FROM emp e RIGHT OUTER JOIN dept d ON d.id = e.dept \
     AND e.salary > 99.0";
    "SELECT d.dname FROM dept d WHERE EXISTS (SELECT e.eid FROM emp e WHERE \
     e.dept = d.id AND e.salary > 100.0)";
    "SELECT d.dname FROM dept d WHERE NOT (d.id IN (SELECT e.dept FROM emp e))";
    "SELECT e.eid FROM emp e WHERE e.salary >= ALL (SELECT x.salary FROM emp x \
     WHERE x.dept = e.dept)";
    "SELECT e.eid, (SELECT d.dname FROM dept d WHERE d.id = e.dept) FROM emp e";
    "SELECT id FROM dept d WHERE d.id = MAJORITY (SELECT dept FROM emp)";
    "SELECT e.dept, count(*), sum(e.salary), min(e.eid) FROM emp e GROUP BY \
     e.dept HAVING count(*) > 1";
    "SELECT count(DISTINCT q.supplier), max(q.price) FROM quotations q";
    "SELECT count(*) FROM emp e WHERE e.salary > 1000.0";
    "SELECT DISTINCT q.supplier FROM quotations q";
    "SELECT q.partno FROM quotations q UNION SELECT i.partno FROM inventory i";
    "SELECT q.partno FROM quotations q INTERSECT ALL SELECT i.partno FROM \
     inventory i";
    "SELECT q.partno FROM quotations q EXCEPT ALL SELECT i.partno FROM \
     inventory i WHERE i.partno > 2";
    "SELECT * FROM (VALUES (1, 'a'), (2, 'b')) AS v(n, s) WHERE v.n > 1";
    "WITH RECURSIVE r(a, b) AS (SELECT src, dst FROM edges UNION SELECT r.a, \
     e.dst FROM r, edges e WHERE r.b = e.src) SELECT a, b FROM r";
    "SELECT e.eid, e.salary * 2, e.salary / 0, -e.eid, e.eid % 3 FROM emp e \
     WHERE e.eid BETWEEN 11 AND 13 OR e.eid IN (14, 99)";
    "SELECT d.dname || '!' FROM dept d WHERE d.dname LIKE '%a%' AND NOT (d.region \
     LIKE 'e_st')";
    "SELECT x.partno FROM (SELECT q.partno, q.price FROM quotations q WHERE \
     q.order_qty > 10) AS x WHERE x.price < 20.0";
  ]

let test_reference_evaluator () =
  let db = sample_db ~extensions:true () in
  List.iter
    (fun text -> agree text (reference_rows db text) (q db text))
    reference_fixtures;
  check_bag "ORDER BY and LIMIT"
    [ row [ i 14 ]; row [ i 11 ] ]
    (reference_rows db "SELECT e.eid FROM emp e ORDER BY e.salary DESC LIMIT 2");
  check_bag "left outer join pads the unmatched dept"
    [ row [ s "empty"; nul ] ]
    (reference_rows db
       "SELECT d.dname, e.eid FROM dept d LEFT OUTER JOIN emp e ON d.id = \
        e.dept WHERE e.eid IS NULL");
  check_bag "transitive closure of edges" [ row [ i 7 ] ]
    (reference_rows db
       "WITH RECURSIVE r(a, b) AS (SELECT src, dst FROM edges UNION SELECT r.a, \
        e.dst FROM r, edges e WHERE r.b = e.src) SELECT count(*) FROM r");
  (* failures are classified as the engine classifies them *)
  (match Sb_fuzz.Reference.run db "SELECT nope FROM emp" with
  | Sb_fuzz.Reference.Failed e ->
    Alcotest.(check string) "unknown column" "semantic"
      (Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage)
  | _ -> Alcotest.fail "expected a semantic error");
  match Sb_fuzz.Reference.run db "SELECT (SELECT e.eid FROM emp e) FROM dept" with
  | Sb_fuzz.Reference.Failed e ->
    Alcotest.(check string) "scalar subquery of several rows" "exec"
      (Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage)
  | _ -> Alcotest.fail "expected an exec error"

let suite =
  ( "fuzz",
    [
      case "repro corpus replays clean" test_corpus;
      case "harness is deterministic" test_determinism;
      case "generator is deterministic" test_generator_determinism;
      case "broken rule caught and shrunk" test_broken_rule_caught;
      case "NULL semantics: reference vs optimized" test_null_semantics;
      case "reference evaluator agrees with the engine" test_reference_evaluator;
    ] )
