(** Second-wave integration tests: deep nesting, correlation across
    multiple levels, edge cases of every subsystem, and regression tests
    for bugs found during development (quantified-join equi extraction,
    parameter-space renumbering, OR routing of scalar subqueries). *)

open Test_util

let t () = sample_db ()

(* --- deep nesting and correlation --- *)

let test_two_level_correlation () =
  let db = t () in
  (* inner-inner references the outermost quantifier *)
  check_bag "two levels"
    [ row [ s "eng" ]; row [ s "sales" ]; row [ s "legal" ] ]
    (q db
       "SELECT dname FROM dept d WHERE EXISTS (SELECT * FROM emp e WHERE \
        e.dept = d.id AND EXISTS (SELECT * FROM emp e2 WHERE e2.dept = d.id \
        AND e2.salary >= e.salary))")

let test_subquery_in_subquery () =
  let db = t () in
  check_bag "nested IN"
    [ row [ i 1 ]; row [ i 1 ]; row [ i 2 ]; row [ i 4 ] ]
    (q db
       "SELECT partno FROM quotations WHERE partno IN (SELECT partno FROM \
        inventory WHERE type IN (SELECT type FROM inventory WHERE onhand_qty \
        = 20))")

let test_correlated_scalar_in_having () =
  let db = t () in
  check_bag "scalar in having"
    [ row [ i 1; i 3 ] ]
    (q db
       "SELECT dept, count(*) FROM emp GROUP BY dept HAVING count(*) > \
        (SELECT count(*) FROM dept WHERE region = 'east')")

let test_agg_of_expression () =
  let db = t () in
  check_bag "sum of product"
    [ row [ f 1150.0 ] ]
    (q db "SELECT sum(price * order_qty) FROM quotations WHERE supplier = 'acme'")

let test_group_by_two_keys () =
  let db = t () in
  check_bag "two keys"
    [ row [ i 1; s "acme"; i 1 ]; row [ i 2; s "acme"; i 1 ];
      row [ i 3; s "globex"; i 1 ]; row [ i 1; s "globex"; i 1 ];
      row [ i 4; s "initech"; i 1 ] ]
    (q db "SELECT partno, supplier, count(*) FROM quotations GROUP BY partno, supplier")

let test_having_without_selecting_agg () =
  let db = t () in
  check_bag "having-only aggregate"
    [ row [ s "acme" ]; row [ s "globex" ] ]
    (q db "SELECT supplier FROM quotations GROUP BY supplier HAVING sum(order_qty) > 50")

(* --- views --- *)

let test_view_over_view () =
  let db = t () in
  ignore (Starburst.run db "CREATE VIEW v1 AS SELECT partno, price FROM quotations WHERE price < 50");
  ignore (Starburst.run db "CREATE VIEW v2 AS SELECT partno FROM v1 WHERE price > 10");
  check_bag "stacked views"
    [ row [ i 1 ]; row [ i 2 ]; row [ i 1 ] ]
    (q db "SELECT partno FROM v2");
  (* both view layers merge away *)
  let g = Starburst.build_qgm db (Sb_hydrogen.Parser.query_text "SELECT partno FROM v2") in
  ignore (Starburst.rewrite db g);
  Alcotest.(check int) "merged to 2 boxes" 2
    (List.length (Sb_qgm.Qgm.reachable_boxes g))

let test_view_with_set_op () =
  let db = t () in
  ignore
    (Starburst.run db
       "CREATE VIEW all_parts AS (SELECT partno FROM quotations) UNION \
        (SELECT partno FROM inventory)");
  check_bag "set-op view" [ row [ i 4 ] ] (q db "SELECT count(*) FROM all_parts")

let test_view_in_subquery () =
  let db = t () in
  ignore (Starburst.run db "CREATE VIEW cpus AS SELECT partno FROM inventory WHERE type = 'CPU'");
  check_bag "view inside subquery"
    [ row [ i 3 ] ]
    (q db "SELECT partno FROM inventory WHERE partno NOT IN (SELECT partno FROM cpus)")

(* --- set operations --- *)

let test_set_ops_nested () =
  let db = t () in
  check_bag "except of union"
    [ row [ i 3 ] ]
    (q db
       "SELECT * FROM (((SELECT partno FROM quotations) UNION (SELECT partno \
        FROM inventory)) EXCEPT (SELECT partno FROM inventory WHERE type = \
        'CPU')) u");
  check_bag "union of intersect"
    [ row [ i 1 ]; row [ i 2 ]; row [ i 3 ]; row [ i 4 ] ]
    (q db
       "((SELECT partno FROM quotations) INTERSECT (SELECT partno FROM \
        inventory)) UNION (SELECT partno FROM inventory)")

(* --- LIMIT/ORDER edge cases --- *)

let test_limit_edges () =
  let db = t () in
  check_bag "limit zero" [] (q db "SELECT partno FROM quotations LIMIT 0");
  check_bag "limit beyond" [ row [ i 5 ] ]
    (q db "SELECT count(*) FROM (SELECT partno FROM quotations LIMIT 100) v");
  check_rows "limit in derived table"
    [ row [ f 99.0 ] ]
    (q db
       "SELECT price FROM (SELECT price FROM quotations ORDER BY price DESC \
        LIMIT 2) v ORDER BY price DESC LIMIT 1")

let test_order_by_multiple_keys () =
  let db = t () in
  check_rows "two keys, mixed directions"
    [ row [ s "acme"; f 20.0 ]; row [ s "acme"; f 10.5 ];
      row [ s "globex"; f 11.0 ]; row [ s "globex"; f 7.25 ];
      row [ s "initech"; f 99.0 ] ]
    (q db "SELECT supplier, price FROM quotations ORDER BY supplier, price DESC")

(* --- DML edge cases --- *)

let test_update_swap () =
  let db = t () in
  ignore (Starburst.run db "CREATE TABLE sw (a INT, b INT)");
  ignore (Starburst.run db "INSERT INTO sw VALUES (1, 2)");
  (* both assignments read the pre-update row *)
  ignore (Starburst.run db "UPDATE sw SET a = b, b = a");
  check_bag "swapped" [ row [ i 2; i 1 ] ] (q db "SELECT a, b FROM sw")

let test_delete_all () =
  let db = t () in
  (match Starburst.run db "DELETE FROM edges" with
  | Starburst.Affected 4 -> ()
  | _ -> Alcotest.fail "expected 4");
  check_bag "empty" [ row [ i 0 ] ] (q db "SELECT count(*) FROM edges")

let test_insert_type_checks () =
  let db = t () in
  expect_error db "INSERT INTO inventory VALUES ('not-an-int', 1, 'CPU')";
  expect_error db "INSERT INTO inventory (partno) VALUES (1, 2)"

(* --- recursion edge cases --- *)

let test_recursion_empty_seed () =
  let db = t () in
  check_bag "empty seed terminates" [ row [ i 0 ] ]
    (q db
       "WITH RECURSIVE p (src, dst) AS (SELECT src, dst FROM edges WHERE src \
        = 999 UNION SELECT p.src, e.dst FROM p, edges e WHERE p.dst = e.src) \
        SELECT count(*) FROM p")

let test_recursion_self_loop () =
  let db = t () in
  ignore (Starburst.run db "INSERT INTO edges VALUES (7, 7)");
  check_bag "self loop terminates" [ row [ i 7; i 7 ] ]
    (q db
       "WITH RECURSIVE p (src, dst) AS (SELECT src, dst FROM edges WHERE src \
        = 7 UNION SELECT p.src, e.dst FROM p, edges e WHERE p.dst = e.src) \
        SELECT * FROM p")

let test_two_with_defs () =
  let db = t () in
  check_bag "two non-recursive defs"
    [ row [ i 1 ] ]
    (q db
       "WITH a AS (SELECT partno FROM quotations WHERE price > 15), b AS \
        (SELECT partno FROM inventory WHERE onhand_qty > 100) SELECT count(*) \
        FROM a, b WHERE a.partno = b.partno")

let test_recursion_used_by_two_quants () =
  let db = t () in
  check_bag "closure self-join"
    [ row [ i 3 ] ]
    (q db
       "WITH RECURSIVE p (src, dst) AS (SELECT src, dst FROM edges UNION \
        SELECT p.src, e.dst FROM p, edges e WHERE p.dst = e.src) SELECT \
        count(*) FROM p x, p y WHERE x.src = 1 AND y.src = 1 AND x.dst = y.dst")

(* --- regression tests for bugs found during development --- *)

(* equi extraction once corrupted quantified kinds: the comparison was
   hoisted out of the per-row predicate, making ALL/MAJORITY vacuous *)
let test_regression_all_with_equality () =
  let db = t () in
  (* partno 4's set is {2} and its onhand_qty is 1, so it must NOT
     qualify; every other part has an empty set (vacuously ALL) *)
  check_bag "eq under ALL"
    [ row [ i 1 ]; row [ i 2 ]; row [ i 3 ] ]
    (q db
       "SELECT partno FROM inventory i WHERE i.onhand_qty = ALL (SELECT \
        order_qty FROM quotations q WHERE q.partno = 4 AND q.partno = \
        i.partno)");
  (* outer rows with empty sets qualify too *)
  check_bag "ALL over empty for others"
    [ row [ i 1 ]; row [ i 2 ]; row [ i 3 ]; row [ i 4 ] ]
    (q db
       "SELECT partno FROM inventory i WHERE 0 = ALL (SELECT order_qty FROM \
        quotations q WHERE q.partno = i.partno AND q.order_qty < 0)")

(* parameter renumbering: an inline derived table with correlation used
   to evaluate against the wrong parameter slot *)
let test_regression_param_spaces () =
  let db = t () in
  check_bag "nested correlated derived"
    [ row [ s "eng" ]; row [ s "legal" ] ]
    (q db
       "SELECT dname FROM dept d WHERE EXISTS (SELECT * FROM (SELECT dept, \
        salary FROM emp) v WHERE v.dept = d.id AND v.salary > 110)")

(* scalar subqueries under OR must route through the OR operator *)
let test_regression_or_scalar () =
  let db = t () in
  ignore
    (q db
       "SELECT partno FROM quotations q WHERE q.price > 50 OR q.partno = \
        (SELECT partno FROM inventory WHERE onhand_qty = 10)");
  let c = Starburst.counters db in
  Alcotest.(check bool) "or operator engaged" true
    (c.Sb_qes.Exec.c_or_branch_evals > 0)

(* exists head truncation: EXISTS over a wide subquery keeps one column *)
let test_regression_exists_wide () =
  let db = t () in
  ignore (Starburst.run db "SET rewrite = off");
  check_bag "wide exists (no rewrite)"
    [ row [ i 4 ] ]
    (q db
       "SELECT count(*) FROM quotations q WHERE EXISTS (SELECT * FROM \
        inventory i WHERE i.partno = q.partno AND i.type = 'CPU')")

(* identity WITH placeholders must not confuse the bypass rule when the
   recursion cycle runs through them *)
let test_regression_with_bypass () =
  let db = t () in
  check_bag "non-recursive WITH used twice, bypassed"
    [ row [ i 4 ] ]
    (q db
       "WITH v AS (SELECT partno FROM inventory) SELECT count(*) FROM v a \
        WHERE a.partno IN (SELECT partno FROM v)")

(* ext setformer conservatism: base merge must not merge boxes holding
   PF quantifiers *)
let test_regression_pf_not_merged () =
  let db = sample_db ~extensions:true () in
  let g =
    Starburst.build_qgm db
      (Sb_hydrogen.Parser.query_text
         "SELECT d.dname FROM dept d LEFT OUTER JOIN emp e ON d.id = e.dept")
  in
  ignore (Starburst.rewrite db g);
  (* the OJ box must survive rewrite (nothing fired that would break it) *)
  Alcotest.(check bool) "PF box intact" true
    (List.exists
       (fun (b : Sb_qgm.Qgm.box) ->
         List.exists (fun q -> q.Sb_qgm.Qgm.q_type = Sb_qgm.Qgm.Ext "PF") b.Sb_qgm.Qgm.b_quants)
       (Sb_qgm.Qgm.reachable_boxes g))

let test_empty_table_everything () =
  let db = t () in
  ignore (Starburst.run db "CREATE TABLE void (a INT, b STRING)");
  check_bag "scan" [] (q db "SELECT * FROM void");
  check_bag "agg" [ row [ i 0; nul ] ] (q db "SELECT count(*), sum(a) FROM void");
  check_bag "group" [] (q db "SELECT b, count(*) FROM void GROUP BY b");
  check_bag "join" [] (q db "SELECT * FROM void v, inventory i WHERE v.a = i.partno");
  check_bag "in" [] (q db "SELECT partno FROM inventory WHERE partno IN (SELECT a FROM void)");
  check_bag "all-true" [ row [ i 4 ] ]
    (q db "SELECT count(*) FROM inventory WHERE partno > ALL (SELECT a FROM void)")

let test_duplicate_rows_semantics () =
  let db = t () in
  ignore (Starburst.run db "CREATE TABLE dup (x INT)");
  ignore (Starburst.run db "INSERT INTO dup VALUES (1), (1), (2)");
  check_bag "bag projection" [ row [ i 1 ]; row [ i 1 ]; row [ i 2 ] ]
    (q db "SELECT x FROM dup");
  check_bag "join multiplies"
    [ row [ i 4 ] ]
    (q db "SELECT count(*) FROM dup a, dup b WHERE a.x = b.x AND a.x = 1");
  check_bag "union all keeps" [ row [ i 6 ] ]
    (q db "SELECT count(*) FROM ((SELECT x FROM dup) UNION ALL (SELECT x FROM dup)) u");
  check_bag "union dedups" [ row [ i 2 ] ]
    (q db "SELECT count(*) FROM ((SELECT x FROM dup) UNION (SELECT x FROM dup)) u")

let suite =
  ( "integration2",
    [
      case "two-level correlation" test_two_level_correlation;
      case "subquery in subquery" test_subquery_in_subquery;
      case "correlated scalar in HAVING" test_correlated_scalar_in_having;
      case "aggregate of expression" test_agg_of_expression;
      case "group by two keys" test_group_by_two_keys;
      case "HAVING-only aggregate" test_having_without_selecting_agg;
      case "view over view" test_view_over_view;
      case "view with set operation" test_view_with_set_op;
      case "view in subquery" test_view_in_subquery;
      case "nested set operations" test_set_ops_nested;
      case "limit edges" test_limit_edges;
      case "order by multiple keys" test_order_by_multiple_keys;
      case "update swap" test_update_swap;
      case "delete all" test_delete_all;
      case "insert type checks" test_insert_type_checks;
      case "recursion with empty seed" test_recursion_empty_seed;
      case "recursion with self loop" test_recursion_self_loop;
      case "two WITH definitions" test_two_with_defs;
      case "recursive table used twice" test_recursion_used_by_two_quants;
      case "regression: ALL with equality" test_regression_all_with_equality;
      case "regression: parameter spaces" test_regression_param_spaces;
      case "regression: OR with scalar subquery" test_regression_or_scalar;
      case "regression: wide EXISTS" test_regression_exists_wide;
      case "regression: WITH bypass" test_regression_with_bypass;
      case "regression: PF boxes survive base rules" test_regression_pf_not_merged;
      case "empty tables everywhere" test_empty_table_everything;
      case "duplicate (bag) semantics" test_duplicate_rows_semantics;
    ] )

(* --- CREATE TABLE AS --- *)

let test_create_table_as () =
  let db = t () in
  (match
     Starburst.run db
       "CREATE TABLE cpu_quotes AS SELECT q.partno, q.price FROM quotations \
        q, inventory i WHERE q.partno = i.partno AND i.type = 'CPU'"
   with
  | Starburst.Message _ -> ()
  | _ -> Alcotest.fail "expected message");
  check_bag "materialized rows"
    [ row [ i 1; f 10.5 ]; row [ i 2; f 20.0 ]; row [ i 4; f 99.0 ]; row [ i 1; f 11.0 ] ]
    (q db "SELECT partno, price FROM cpu_quotes");
  (* the new table is an ordinary table: indexable, updatable *)
  ignore (Starburst.run db "CREATE INDEX cq_p ON cpu_quotes (partno)");
  ignore (Starburst.run db "DELETE FROM cpu_quotes WHERE price > 50");
  check_bag "after delete" [ row [ i 3 ] ] (q db "SELECT count(*) FROM cpu_quotes");
  (* duplicate name still rejected *)
  expect_error db "CREATE TABLE cpu_quotes AS SELECT partno FROM inventory";
  (* round-trips through the pretty printer *)
  let stmt =
    Sb_hydrogen.Parser.statement "CREATE TABLE x AS SELECT a FROM t WHERE a > 1"
  in
  let printed = Sb_hydrogen.Pretty.statement_to_string stmt in
  Alcotest.(check bool) "round trip" true
    (Sb_hydrogen.Parser.statement printed = stmt)

let test_explain_dot () =
  let db = t () in
  match Starburst.run db "EXPLAIN DOT SELECT partno FROM quotations WHERE partno IN (SELECT partno FROM inventory)" with
  | Starburst.Message m ->
    Alcotest.(check bool) "digraph" true (String.length m > 20 && String.sub m 0 7 = "digraph")
  | _ -> Alcotest.fail "expected message"

(* a qualifier in UPDATE/DELETE must name the table or its alias, as
   it must in a SELECT *)
let test_dml_unknown_qualifier () =
  let db = t () in
  let count () = q db "SELECT count(*) FROM quotations" in
  let before = count () in
  expect_error db "DELETE FROM quotations WHERE zz.partno = 1";
  expect_error db "UPDATE quotations SET price = 0.0 WHERE zz.partno = 1";
  expect_error db "DELETE FROM quotations q WHERE quotes.partno = 1";
  check_bag "no row deleted" before (count ());
  check_bag "no row updated" [ row [ i 0 ] ]
    (q db "SELECT count(*) FROM quotations WHERE price = 0.0");
  (* the table name and the alias both qualify *)
  ignore (Starburst.run db "DELETE FROM quotations q WHERE q.partno = 4");
  ignore (Starburst.run db "DELETE FROM quotations WHERE quotations.partno = 3");
  check_bag "qualified deletes ran" [ row [ i 3 ] ] (count ())

let suite =
  ( fst suite,
    snd suite
    @ [ case "CREATE TABLE AS" test_create_table_as;
        case "EXPLAIN DOT" test_explain_dot;
        case "DML rejects an unknown qualifier" test_dml_unknown_qualifier ] )
