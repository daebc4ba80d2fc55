(** Tests for the bundled DBC extensions, exercised strictly through the
    public extension API — the paper's extensibility claims made
    executable. *)

open Sb_storage
open Test_util
module Qgm = Sb_qgm.Qgm
module Plan = Sb_optimizer.Plan

let rec collect_ops (p : Plan.plan) =
  p.Plan.op :: List.concat_map collect_ops p.Plan.inputs

let has_op pred plan = List.exists pred (collect_ops plan)

(* --- outer join --- *)

let test_outer_join_requires_install () =
  let db = sample_db () in
  expect_error db "SELECT d.dname FROM dept d LEFT OUTER JOIN emp e ON d.id = e.dept"

let test_outer_join_pf_quantifier () =
  let db = sample_db ~extensions:true () in
  let g =
    Starburst.build_qgm db
      (Sb_hydrogen.Parser.query_text
         "SELECT d.dname FROM dept d LEFT OUTER JOIN emp e ON d.id = e.dept")
  in
  let pf_count =
    List.fold_left
      (fun acc (b : Qgm.box) ->
        acc
        + List.length (List.filter (fun q -> q.Qgm.q_type = Qgm.Ext "PF") b.Qgm.b_quants))
      0 (Qgm.reachable_boxes g)
  in
  Alcotest.(check int) "one PF quantifier" 1 pf_count

let test_outer_join_plan_kind () =
  let db = sample_db ~extensions:true () in
  let p =
    Starburst.compile_text db
      "SELECT d.dname, e.salary FROM dept d LEFT OUTER JOIN emp e ON d.id = e.dept"
  in
  Alcotest.(check bool) "left_outer join kind" true
    (has_op
       (function Plan.Join { j_kind = Plan.J_ext "left_outer"; _ } -> true | _ -> false)
       p)

let test_outer_join_reduction_rule () =
  let db = sample_db ~extensions:true () in
  let g =
    Starburst.build_qgm db
      (Sb_hydrogen.Parser.query_text
         "SELECT d.dname FROM dept d LEFT OUTER JOIN emp e ON d.id = e.dept \
          WHERE e.salary > 100")
  in
  ignore (Starburst.rewrite db g);
  (* all PF quantifiers reduced to F *)
  let pf_left =
    List.exists
      (fun (b : Qgm.box) ->
        List.exists (fun q -> q.Qgm.q_type = Qgm.Ext "PF") b.Qgm.b_quants)
      (Qgm.reachable_boxes g)
  in
  Alcotest.(check bool) "reduced to inner join" false pf_left;
  (* and the reduction agrees with the unrewritten result *)
  let text =
    "SELECT d.dname FROM dept d LEFT OUTER JOIN emp e ON d.id = e.dept WHERE \
     e.salary > 100"
  in
  let db2 = sample_db ~extensions:true () in
  ignore (Starburst.run db2 "SET rewrite = off");
  check_bag "same rows" (q db2 text) (q (sample_db ~extensions:true ()) text)

let test_outer_join_pushdown_rule () =
  let db = sample_db ~extensions:true () in
  let text =
    "SELECT d.dname, e.salary FROM dept d LEFT OUTER JOIN emp e ON d.id = \
     e.dept WHERE d.region = 'west'"
  in
  let g = Starburst.build_qgm db (Sb_hydrogen.Parser.query_text text) in
  let stats = Starburst.rewrite db g in
  Alcotest.(check bool) "push-through rule fired" true
    (List.mem_assoc "oj_push_through_pf" stats.Sb_rewrite.Engine.firings);
  (* semantics preserved *)
  let db2 = sample_db ~extensions:true () in
  ignore (Starburst.run db2 "SET rewrite = off");
  check_bag "same rows" (q db2 text) (q db text)

let test_right_outer_normalization () =
  let db = sample_db ~extensions:true () in
  check_bag "right outer = left flipped"
    (q db "SELECT d.dname, e.eid FROM dept d LEFT OUTER JOIN emp e ON d.id = e.dept")
    (q db "SELECT d.dname, e.eid FROM emp e RIGHT OUTER JOIN dept d ON d.id = e.dept")

(* A side of an outer join that is itself a join is one setformer: the
   inner join's ON condition filters that side instead of joining the
   outer join's conditions, and a nested outer join's columns keep
   their names. *)
let test_outer_join_over_joins () =
  let db = sample_db ~extensions:true () in
  (* dept 4 has no employees; region 'west' is depts 1 and 3 *)
  check_bag "inner join on the preserved side"
    [ row [ s "eng"; f 100.0 ]; row [ s "eng"; f 120.0 ]; row [ s "eng"; f 95.0 ];
      row [ s "legal"; f 150.0 ]; row [ s "sales"; f 90.0 ]; row [ s "empty"; nul ] ]
    (q db
       "SELECT d.dname, e.salary FROM dept d JOIN inventory i ON d.id = i.partno \
        LEFT OUTER JOIN emp e ON d.id = e.dept");
  check_bag "inner join on the null-producing side"
    [ row [ s "eng"; i 1 ]; row [ s "eng"; i 1 ]; row [ s "eng"; i 1 ];
      row [ s "sales"; i 2 ]; row [ s "legal"; i 3 ]; row [ s "empty"; nul ] ]
    (q db
       "SELECT d.dname, i.partno FROM dept d LEFT OUTER JOIN (emp e JOIN inventory \
        i ON e.dept = i.partno) ON d.id = e.dept");
  check_bag "nested outer joins keep column names"
    [ row [ s "eng"; i 10; nul ]; row [ s "eng"; i 11; nul ]; row [ s "eng"; i 13; nul ];
      row [ s "sales"; i 12; nul ]; row [ s "legal"; i 14; nul ]; row [ s "empty"; nul; nul ] ]
    (q db
       "SELECT d.dname, e.eid, x.dname FROM dept d LEFT OUTER JOIN emp e ON d.id = \
        e.dept LEFT OUTER JOIN dept x ON e.eid = x.id")

(* --- spatial --- *)

let spatial_db () =
  let db = sample_db ~extensions:true () in
  ignore (Starburst.run db "CREATE TABLE places (name STRING, loc BOX)");
  ignore
    (Starburst.run db
       "INSERT INTO places VALUES ('a', make_box(0,0,2,2)), ('b', \
        make_box(10,10,12,12)), ('c', make_box(1,1,3,3)), ('d', make_box(50,50,51,51))");
  ignore (Starburst.run db "ANALYZE");
  db

let test_spatial_functions () =
  let db = spatial_db () in
  check_bag "overlaps" [ row [ s "a" ]; row [ s "c" ] ]
    (q db "SELECT name FROM places WHERE overlaps(loc, make_box(1.5, 1.5, 1.6, 1.6))");
  check_bag "contains" [ row [ s "b" ] ]
    (q db "SELECT name FROM places WHERE contains(make_box(9,9,13,13), loc)");
  check_bag "area" [ row [ f 4.0 ] ]
    (q db "SELECT area(loc) FROM places WHERE name = 'a'");
  (* BOX values group and compare *)
  check_bag "count distinct boxes" [ row [ i 4 ] ]
    (q db "SELECT count(DISTINCT loc) FROM places")

let test_rtree_index_used_and_correct () =
  let db = spatial_db () in
  (* larger data so the R-tree wins on cost *)
  let values =
    List.init 500 (fun k ->
        Printf.sprintf "('x%d', make_box(%d, %d, %d, %d))" k (k mod 50 * 5)
          (k / 50 * 5)
          ((k mod 50 * 5) + 2)
          ((k / 50 * 5) + 2))
    |> String.concat ","
  in
  ignore (Starburst.run db ("INSERT INTO places VALUES " ^ values));
  ignore (Starburst.run db "ANALYZE");
  let query = "SELECT name FROM places WHERE overlaps(loc, make_box(3, 3, 8, 8))" in
  let before = q db query in
  ignore (Starburst.run db "CREATE INDEX places_loc ON places (loc) USING rtree");
  ignore (Starburst.run db "ANALYZE");
  let p = Starburst.compile_text db query in
  Alcotest.(check bool) "rtree probe chosen" true
    (has_op
       (function
         | Plan.Idx_access { ix_probe = Plan.Pr_custom ("overlaps", _); _ } -> true
         | _ -> false)
       p);
  check_bag "index agrees with scan" before (q db query)

let test_box_literal_validation () =
  let db = spatial_db () in
  (* ext type parse via make_box only; direct string payloads go through
     Datatype validation when inserted as Ext — invalid payload from
     make_box with NULL yields NULL, filtered by NOT NULL check *)
  check_bag "null box" [ row [ nul ] ] (q db "SELECT make_box(NULL, 1, 2, 3) FROM places WHERE name = 'a'")

(* MIN, MAX, GREATEST and LEAST order extension values by the type's
   [ext_compare], as ORDER BY does.  The payloads' string order would
   make (9,0,10,1) the maximum and (10,0,11,1) the minimum. *)
let test_extremes_use_ext_compare () =
  let db = sample_db ~extensions:true () in
  List.iter
    (fun stmt -> ignore (Starburst.run db stmt))
    [ "CREATE TABLE fps (g INT, fp BOX)";
      "INSERT INTO fps VALUES (1, make_box(9,0,10,1)), (1, make_box(10,0,11,1)), \
       (1, make_box(2,0,3,1))" ];
  let least, greatest =
    match q db "SELECT make_box(2,0,3,1), make_box(10,0,11,1) FROM fps LIMIT 1" with
    | [ [| lo; hi |] ] -> (lo, hi)
    | _ -> Alcotest.fail "expected one row of two boxes"
  in
  (* the engine, and the reference evaluator over the same query *)
  List.iter
    (fun (engine, run) ->
      let ordered = run "SELECT fp FROM fps ORDER BY fp" in
      check_rows (engine ^ ": ORDER BY puts (2,0,3,1) first")
        [ row [ least ] ] [ List.hd ordered ];
      check_rows (engine ^ ": ORDER BY puts (10,0,11,1) last")
        [ row [ greatest ] ] [ List.nth ordered 2 ];
      check_rows (engine ^ ": min and max") [ row [ least; greatest ] ]
        (run "SELECT min(fp), max(fp) FROM fps");
      check_rows (engine ^ ": grouped min and max") [ row [ i 1; least; greatest ] ]
        (run "SELECT g, min(fp), max(fp) FROM fps GROUP BY g");
      check_rows (engine ^ ": greatest and least") [ row [ greatest; least ] ]
        (run
           "SELECT DISTINCT greatest(make_box(9,0,10,1), make_box(10,0,11,1)), \
            least(make_box(9,0,10,1), make_box(10,0,11,1), make_box(2,0,3,1)) \
            FROM fps"))
    [ ("engine", q db); ("reference", reference_rows db) ]

(* Hashing agrees with the type's [ext_compare]: BOX compares parsed
   floats, so (-0,0,1,1) equals (0,0,1,1) although the payloads differ.
   Hash join, DISTINCT, GROUP BY and NULLIF must then treat the two as
   one key, as the comparison-based join does. *)
let test_ext_hash_agrees_with_compare () =
  let db = sample_db ~extensions:true () in
  List.iter
    (fun stmt -> ignore (Starburst.run db stmt))
    [ "CREATE TABLE p (name STRING, loc BOX)";
      "INSERT INTO p VALUES ('neg', make_box(-0.0,0,1,1)), \
       ('pos', make_box(0,0,1,1))" ];
  List.iter
    (fun (engine, run) ->
      check_rows (engine ^ ": equi-join on BOX") [ row [ i 4 ] ]
        (run "SELECT count(*) FROM p a, p b WHERE a.loc = b.loc");
      check_rows (engine ^ ": range join on BOX") [ row [ i 4 ] ]
        (run
           "SELECT count(*) FROM p a, p b WHERE a.loc <= b.loc AND a.loc >= b.loc");
      Alcotest.(check int) (engine ^ ": DISTINCT BOX") 1
        (List.length (run "SELECT DISTINCT loc FROM p"));
      check_rows (engine ^ ": GROUP BY BOX") [ row [ i 2 ] ]
        (run "SELECT count(*) FROM p GROUP BY loc");
      check_rows (engine ^ ": NULLIF of equal BOXes") [ row [ nul ]; row [ nul ] ]
        (run "SELECT nullif(make_box(-0.0,0,1,1), make_box(0,0,1,1)) FROM p"))
    [ ("engine", q db); ("reference", reference_rows db) ]

(* The evaluate-on-demand cache keys a subquery's results by the exact
   representation of its correlation values, since the subquery can
   tell apart values that compare equal: Int 1 from Float 1.0 (1 / 2 is
   0, 1.0 / 2 is 0.5), Float -0.0 from 0.0 (power(x, -1) is -inf
   against inf), and BOX (-0,0,1,1) from (0,0,1,1) when it returns the
   value. *)
let test_demand_cache_keeps_representation () =
  let db = sample_db ~extensions:true () in
  List.iter
    (fun stmt -> ignore (Starburst.run db stmt))
    [ "CREATE TABLE p (name STRING, loc BOX)";
      "INSERT INTO p VALUES ('neg', make_box(-0.0,0,1,1)), \
       ('pos', make_box(0,0,1,1))";
      "CREATE TABLE k (n INT)";
      "INSERT INTO k VALUES (0), (1), (2)";
      "CREATE TABLE z (name STRING, x FLOAT)";
      "INSERT INTO z VALUES ('pos', 0.0), ('neg', -0.0)" ];
  let on_demand text =
    has_op
      (function
        | Plan.Project es ->
          List.exists
            (function Plan.RScalar_sub { ssub_params = _ :: _; _ } -> true | _ -> false)
            es
        | _ -> false)
      (Starburst.compile_text db text)
  in
  let box x0 = Sb_extensions.Spatial.box_value ~x0 ~y0:0. ~x1:1. ~y1:1. in
  List.iter
    (fun (text, expected) ->
      Alcotest.(check bool) (text ^ ": evaluates on demand") true (on_demand text);
      check_bag (text ^ ": engine") expected (q db text);
      check_bag (text ^ ": reference") expected (reference_rows db text))
    [ ( "SELECT u.x, (SELECT count(*) FROM k WHERE k.n < u.x / 2) \
         FROM (SELECT 1 AS x FROM k WHERE n = 0 \
               UNION ALL SELECT 1.0 AS x FROM k WHERE n = 0) u",
        [ row [ i 1; i 0 ]; row [ f 1.0; i 1 ] ] );
      ( "SELECT a.name, (SELECT count(*) FROM k WHERE power(a.x, -1) < 0) FROM z a",
        [ row [ s "pos"; i 0 ]; row [ s "neg"; i 3 ] ] );
      ( "SELECT a.name, (SELECT a.loc FROM p b WHERE b.name = 'pos') FROM p a",
        [ row [ s "neg"; box (-0.0) ]; row [ s "pos"; box 0. ] ] ) ]

(* --- sampling --- *)

let test_sample () =
  let db = sample_db ~extensions:true () in
  check_bag "sample size" [ row [ i 3 ] ]
    (q db "SELECT count(*) FROM sample(quotations, 3) s");
  check_bag "sample larger than table" [ row [ i 5 ] ]
    (q db "SELECT count(*) FROM sample(quotations, 100) s");
  check_bag "sample zero" [ row [ i 0 ] ]
    (q db "SELECT count(*) FROM sample(quotations, 0) s");
  (* sampled rows are real rows *)
  let rows = q db "SELECT partno FROM sample(quotations, 2) s" in
  List.iter
    (fun r ->
      let v = Value.as_int r.(0) in
      Alcotest.(check bool) "member" true (List.mem v [ 1; 2; 3; 4 ]))
    rows;
  (* table functions compose with WHERE and joins *)
  check_bag "composed" [ row [ i 1 ] ]
    (q db
       "SELECT count(*) FROM sample(quotations, 5) s, inventory i WHERE \
        s.partno = i.partno AND i.type = 'DISK'")

(* --- majority --- *)

let test_majority_semantics () =
  let db = sample_db ~extensions:true () in
  (* depts of emp = [1;1;2;1;3]: 1 is the strict majority *)
  check_bag "strict majority" [ row [ i 1 ] ]
    (q db "SELECT id FROM dept d WHERE d.id = MAJORITY (SELECT dept FROM emp)");
  (* empty set: false for every candidate *)
  check_bag "empty set" []
    (q db "SELECT id FROM dept d WHERE d.id = MAJORITY (SELECT dept FROM emp WHERE salary > 999)")

(* --- stddev etc. --- *)

let test_stats_aggregates () =
  let db = sample_db ~extensions:true () in
  let rows =
    q db "SELECT stddev(salary), variance(salary), median(salary) FROM emp WHERE dept = 1"
  in
  (match rows with
  | [ r ] ->
    let sd = Value.as_float r.(0) and var = Value.as_float r.(1) and med = Value.as_float r.(2) in
    Alcotest.(check bool) "variance = sd^2" true (Float.abs (var -. (sd *. sd)) < 1e-9);
    (* salaries 100, 120, 95 -> median 100 *)
    Alcotest.(check (float 1e-9)) "median" 100.0 med
  | _ -> Alcotest.fail "one row expected");
  (* stddev of a single value is NULL *)
  check_bag "stddev singleton" [ row [ nul ] ]
    (q db "SELECT stddev(salary) FROM emp WHERE dept = 2")

(* --- fixed storage manager as an extension-selected engine --- *)

let test_fixed_storage_via_sql () =
  let db = sample_db () in
  ignore (Starburst.run db "CREATE TABLE fixed_t (a INT, b FLOAT) USING fixed");
  ignore (Starburst.run db "INSERT INTO fixed_t VALUES (1, 1.5), (2, 2.5)");
  check_bag "fixed rows" [ row [ i 1; f 1.5 ]; row [ i 2; f 2.5 ] ]
    (q db "SELECT * FROM fixed_t");
  (* fixed manager refuses variable-length schemas *)
  expect_error db "CREATE TABLE bad_t (a STRING) USING fixed"

let suite =
  ( "extensions",
    [
      case "outer join requires install" test_outer_join_requires_install;
      case "outer join PF quantifier" test_outer_join_pf_quantifier;
      case "outer join plan kind" test_outer_join_plan_kind;
      case "outer join reduction rule" test_outer_join_reduction_rule;
      case "outer join predicate push-through" test_outer_join_pushdown_rule;
      case "right outer normalization" test_right_outer_normalization;
      case "outer join over joins" test_outer_join_over_joins;
      case "spatial functions" test_spatial_functions;
      case "rtree index used and correct" test_rtree_index_used_and_correct;
      case "box null handling" test_box_literal_validation;
      case "min/max use the type's ext_compare" test_extremes_use_ext_compare;
      case "BOX hash agrees with ext_compare" test_ext_hash_agrees_with_compare;
      case "demand cache keeps representation" test_demand_cache_keeps_representation;
      case "sampling table function" test_sample;
      case "majority semantics" test_majority_semantics;
      case "statistics aggregates" test_stats_aggregates;
      case "fixed storage via SQL" test_fixed_storage_via_sql;
    ] )
