(** Tests for the second wave of features: prepared statements and the
    plan cache, hidden ORDER BY columns, the Bloom-join extension, the
    in-place page access paths, and the extended scalar-function
    library. *)

open Sb_storage
module Plan = Sb_optimizer.Plan
module Exec = Sb_qes.Exec
open Test_util

(* --- prepared statements --- *)

let test_prepare_execute () =
  let db = sample_db () in
  let p = Starburst.prepare db "SELECT partno FROM quotations WHERE price < :lim" in
  Alcotest.(check (list string)) "columns" [ "partno" ] p.Starburst.prep_columns;
  Starburst.bind_host db "lim" (f 15.0);
  check_bag "first binding" [ row [ i 1 ]; row [ i 1 ]; row [ i 3 ] ]
    (Starburst.execute_prepared db p);
  (* same plan, new binding *)
  Starburst.bind_host db "lim" (f 8.0);
  check_bag "second binding" [ row [ i 3 ] ] (Starburst.execute_prepared db p)

let test_plan_cache () =
  let db = sample_db () in
  let text = "SELECT count(*) FROM quotations" in
  let stats () = Starburst.Plan_cache.stats db.Starburst.Corona.plan_cache in
  let resident () = (stats ()).Starburst.Plan_cache.resident in
  let hits () = (stats ()).Starburst.Plan_cache.hits in
  (* a plan is admitted on its key's second sight *)
  ignore (Starburst.cached_query db text);
  check_bag "first" [ row [ i 5 ] ] (snd (Starburst.cached_query db text));
  let hits0 = (stats ()).Starburst.Plan_cache.hits in
  check_bag "cached" [ row [ i 5 ] ] (snd (Starburst.cached_query db text));
  Alcotest.(check bool) "cache populated" true (resident () > 0);
  Alcotest.(check int) "second run hits" (hits0 + 1)
    (stats ()).Starburst.Plan_cache.hits;
  (* DDL invalidates (epoch bump; the stale entry is dropped lazily) *)
  ignore (Starburst.run db "CREATE TABLE zz (a INT)");
  let inv0 = (stats ()).Starburst.Plan_cache.invalidations in
  let hits1 = hits () in
  check_bag "repopulate" [ row [ i 5 ] ] (snd (Starburst.cached_query db text));
  Alcotest.(check int) "DDL invalidated the entry" (inv0 + 1)
    (stats ()).Starburst.Plan_cache.invalidations;
  Alcotest.(check int) "the run after DDL recompiles" hits1 (hits ());
  (* data changes are visible without invalidation (plans re-read) *)
  ignore (Starburst.run db "INSERT INTO quotations VALUES (9, 1.0, 1, 'x')");
  check_bag "sees new data" [ row [ i 6 ] ] (snd (Starburst.cached_query db text));
  Alcotest.(check int) "the recompiled plan was cached at once: the next run hits"
    (hits1 + 1) (hits ())

(* --- hidden ORDER BY columns --- *)

let test_order_by_hidden_column () =
  let db = sample_db () in
  (* ORDER BY a column that is not projected *)
  check_rows "hidden key"
    [ row [ i 3 ]; row [ i 1 ]; row [ i 1 ]; row [ i 2 ]; row [ i 4 ] ]
    (q db "SELECT partno FROM quotations ORDER BY price");
  check_rows "hidden expression"
    [ row [ s "initech" ]; row [ s "acme" ] ]
    (q db "SELECT supplier FROM quotations WHERE order_qty < 10 ORDER BY price * order_qty DESC");
  (* DISTINCT + hidden order key is rejected (ambiguous semantics) *)
  expect_error db "SELECT DISTINCT supplier FROM quotations ORDER BY price"

(* --- bloom join --- *)

(* 200 local rows over 20 keys, each matching one remote row: the
   200-row answer outgrows the 20 remote rows the filter keeps, so the
   Bloom plan ships less than the local rows plus the answer *)
let bloom_db () =
  let db = Starburst.create () in
  ignore (Starburst.run db "CREATE TABLE small_t (k INT NOT NULL, tag STRING)");
  ignore (Starburst.run db "CREATE TABLE big_t (k INT NOT NULL, pay INT)");
  ignore
    (Starburst.run db
       ("INSERT INTO small_t VALUES "
       ^ String.concat "," (List.init 200 (fun x -> Printf.sprintf "(%d, 't%d')" (x mod 20 * 50) x))));
  ignore
    (Starburst.run db
       ("INSERT INTO big_t VALUES "
       ^ String.concat "," (List.init 2000 (fun x -> Printf.sprintf "(%d, %d)" x (x * 2)))));
  ignore (Starburst.run db "ANALYZE");
  Starburst.Extension.set_site_map db (fun t -> if t = "big_t" then "east" else "local");
  db

let test_bloom_join_correct () =
  let db = bloom_db () in
  let text = "SELECT s.tag, b.pay FROM small_t s, big_t b WHERE s.k = b.k" in
  let base = q db text in
  Sb_extensions.Bloom_join.install db;
  let bloomed = q db text in
  check_bag "bloom agrees with base plan" base bloomed;
  let rec ops (p : Plan.plan) = p.Plan.op :: List.concat_map ops p.Plan.inputs in
  let plan = Starburst.compile_text db text in
  Alcotest.(check bool) "bloom chosen when remote" true
    (List.exists (function Plan.Bloom_filter _ -> true | _ -> false) (ops plan));
  (* local tables never trigger it *)
  Starburst.Extension.set_site_map db (fun _ -> "local");
  let plan2 = Starburst.compile_text db text in
  Alcotest.(check bool) "not chosen locally" false
    (List.exists (function Plan.Bloom_filter _ -> true | _ -> false) (ops plan2))

let test_bloom_ships_less () =
  let db = bloom_db () in
  let text = "SELECT count(*) FROM small_t s, big_t b WHERE s.k = b.k" in
  ignore (q db text);
  let shipped_base = (Starburst.counters db).Exec.c_shipped in
  Sb_extensions.Bloom_join.install db;
  ignore (q db text);
  let shipped_bloom = (Starburst.counters db).Exec.c_shipped in
  Alcotest.(check bool) "fewer shipped" true (shipped_bloom < shipped_base)

(* --- page sub-record access --- *)

let test_page_sub_access () =
  let p = Page.create 0 in
  let slot = Page.insert p "abcdefgh" in
  Alcotest.(check (option string)) "read sub" (Some "cde") (Page.read_sub p slot ~pos:2 ~len:3);
  Alcotest.(check bool) "write sub" true (Page.write_sub p slot ~pos:2 "XY");
  Alcotest.(check (option string)) "after write" (Some "abXYefgh") (Page.get p slot);
  Alcotest.(check (option string)) "oob read" None (Page.read_sub p slot ~pos:6 ~len:5);
  Alcotest.(check bool) "oob write" false (Page.write_sub p slot ~pos:7 "long");
  Page.delete p slot;
  Alcotest.(check (option string)) "dead read" None (Page.read_sub p slot ~pos:0 ~len:1)

(* --- extended scalar functions --- *)

let test_scalar_library () =
  let db = sample_db () in
  let one text expected =
    check_bag text [ row [ expected ] ]
      (q db (Printf.sprintf "SELECT %s FROM inventory WHERE partno = 1" text))
  in
  one "round(2.6)" (i 3);
  one "floor(2.6)" (i 2);
  one "ceil(2.2)" (i 3);
  one "sign(0 - 5)" (i (-1));
  one "sign(0)" (i 0);
  one "trim('  x  ')" (s "x");
  one "replace('banana', 'an', 'A')" (s "bAAa");
  one "greatest(1, 9, 3)" (i 9);
  one "least(5, 2, 8)" (i 2);
  one "greatest(NULL, 4)" (i 4);
  one "nullif(3, 3)" nul;
  one "nullif(3, 4)" (i 3);
  one "sqrt(16)" (f 4.0);
  one "power(2, 10)" (f 1024.0)

(* --- prepared + counters interplay: plan reuse skips compilation --- *)

let test_prepared_skips_compile () =
  let db = sample_db () in
  let p = Starburst.prepare db "SELECT partno FROM quotations WHERE partno = 2" in
  (* compile once, run many: this mostly asserts nothing crashes and the
     results stay stable across data changes *)
  check_bag "run1" [ row [ i 2 ] ] (Starburst.execute_prepared db p);
  ignore (Starburst.run db "INSERT INTO quotations VALUES (2, 3.0, 9, 'x')");
  check_bag "run2 sees inserts" [ row [ i 2 ]; row [ i 2 ] ]
    (Starburst.execute_prepared db p)

let suite =
  ( "features",
    [
      case "prepare/execute with host variables" test_prepare_execute;
      case "plan cache and DDL invalidation" test_plan_cache;
      case "ORDER BY hidden columns" test_order_by_hidden_column;
      case "bloom join correctness" test_bloom_join_correct;
      case "bloom join ships less" test_bloom_ships_less;
      case "page sub-record access" test_page_sub_access;
      case "scalar function library" test_scalar_library;
      case "prepared plans survive data changes" test_prepared_skips_compile;
    ] )

(* --- lateral (correlated) derived tables and ablated rule sets --- *)

let test_lateral_derived_table () =
  let db = sample_db () in
  (* the derived table references a sibling: a lateral apply *)
  check_bag "lateral"
    [ row [ i 1; i 20 ]; row [ i 2; i 500 ]; row [ i 3; i 10 ]; row [ i 4; i 1 ] ]
    (q db
       "SELECT i.partno, x.oq FROM inventory i, (SELECT onhand_qty AS oq FROM \
        inventory b WHERE b.partno = i.partno) x");
  (* lateral against an aggregate *)
  check_bag "lateral agg"
    [ row [ i 1; i 2 ]; row [ i 2; i 1 ]; row [ i 3; i 1 ]; row [ i 4; i 1 ] ]
    (q db
       "SELECT i.partno, x.n FROM inventory i, (SELECT count(*) AS n FROM \
        quotations q WHERE q.partno = i.partno) x")

let test_rule_class_ablation_correct () =
  (* disabling any one rule class must not change results, only cost *)
  let text =
    "SELECT partno, price FROM quotations Q1 WHERE Q1.partno IN (SELECT \
     partno FROM inventory Q3 WHERE Q3.onhand_qty < Q1.order_qty)"
  in
  let baseline = q (sample_db ()) text in
  List.iter
    (fun cl ->
      let db = sample_db () in
      let all = Sb_rewrite.Rule.all db.Starburst.Corona.rules in
      db.Starburst.Corona.rules.Sb_rewrite.Rule.rules <-
        List.filter (fun r -> r.Sb_rewrite.Rule.rule_class <> cl) all;
      check_bag ("class " ^ cl ^ " disabled") baseline (q db text))
    [ "merge"; "predicate"; "projection"; "subquery"; "redundant"; "magic" ]

let suite =
  ( fst suite,
    snd suite
    @ [
        case "lateral derived tables" test_lateral_derived_table;
        case "rule-class ablation preserves results" test_rule_class_ablation_correct;
      ] )

(* --- integrity constraints as attachments --- *)

let test_unique_enforced () =
  let db = Starburst.create () in
  ignore (Starburst.run db "CREATE TABLE uq (k INT UNIQUE, v STRING)");
  ignore (Starburst.run db "INSERT INTO uq VALUES (1, 'a'), (2, 'b')");
  expect_error db "INSERT INTO uq VALUES (1, 'dup')";
  (* the failing batch did not partially apply before the violation *)
  check_bag "count after rejection" [ row [ i 2 ] ] (q db "SELECT count(*) FROM uq");
  (* nulls never conflict *)
  ignore (Starburst.run db "INSERT INTO uq VALUES (NULL, 'x'), (NULL, 'y')");
  check_bag "nulls allowed" [ row [ i 4 ] ] (q db "SELECT count(*) FROM uq");
  (* updates: moving onto a taken key fails, keeping one's own key is fine *)
  expect_error db "UPDATE uq SET k = 2 WHERE k = 1";
  (match Starburst.run db "UPDATE uq SET v = 'a2' WHERE k = 1" with
  | Starburst.Affected 1 -> ()
  | _ -> Alcotest.fail "self-keyed update should pass");
  check_bag "value updated" [ row [ s "a2" ] ] (q db "SELECT v FROM uq WHERE k = 1")

let test_check_constraint_extension () =
  let db = Starburst.create () in
  ignore (Starburst.run db "CREATE TABLE acc (id INT, balance FLOAT)");
  ignore (Starburst.run db "INSERT INTO acc VALUES (1, 10.0)");
  Sb_extensions.Check_constraint.attach db ~table:"acc" ~name:"non_negative"
    (fun tuple ->
      match tuple.(1) with
      | Value.Float b -> b >= 0.0
      | Value.Null -> true
      | _ -> false);
  ignore (Starburst.run db "INSERT INTO acc VALUES (2, 5.0)");
  expect_error db "INSERT INTO acc VALUES (3, 0.0 - 1.0)";
  expect_error db "UPDATE acc SET balance = balance - 100 WHERE id = 1";
  check_bag "intact" [ row [ i 2 ] ] (q db "SELECT count(*) FROM acc");
  (* attaching over violating data is rejected *)
  ignore (Starburst.run db "CREATE TABLE neg (x FLOAT)");
  ignore (Starburst.run db "INSERT INTO neg VALUES (0.0 - 3.0)");
  (match
     Sb_extensions.Check_constraint.attach db ~table:"neg" ~name:"pos"
       (fun t -> Value.as_float t.(0) >= 0.0)
   with
  | () -> Alcotest.fail "expected rejection"
  | exception Starburst.Error _ -> ());
  (* detaching lifts the rule *)
  Sb_extensions.Check_constraint.detach db ~table:"acc" ~name:"non_negative";
  ignore (Starburst.run db "INSERT INTO acc VALUES (9, 0.0 - 2.0)");
  check_bag "after detach" [ row [ i 3 ] ] (q db "SELECT count(*) FROM acc")

let suite =
  ( fst suite,
    snd suite
    @ [
        case "UNIQUE constraints enforced" test_unique_enforced;
        case "DBC check-constraint attachment" test_check_constraint_extension;
      ] )

(* --- plan refinement --- *)

let test_refinement () =
  let db = sample_db () in
  let rec ops (p : Plan.plan) = p.Plan.op :: List.concat_map ops p.Plan.inputs in
  (* a lateral apply produces a Filter over the joined stream; the plan
     as a whole must contain no Filter-over-Scan after refinement *)
  let p = Starburst.compile_text db "SELECT partno FROM quotations WHERE price > 10 AND order_qty < 60" in
  let rec no_filter_over_scan (pl : Plan.plan) =
    (match pl.Plan.op, pl.Plan.inputs with
    | Plan.Filter _, [ { Plan.op = Plan.Scan _; _ } ] -> false
    | _ -> true)
    && List.for_all no_filter_over_scan pl.Plan.inputs
  in
  Alcotest.(check bool) "filters folded into scans" true (no_filter_over_scan p);
  (* no adjacent projections *)
  let rec no_adjacent_projects (pl : Plan.plan) =
    (match pl.Plan.op, pl.Plan.inputs with
    | Plan.Project _, [ { Plan.op = Plan.Project _; _ } ] -> false
    | _ -> true)
    && List.for_all no_adjacent_projects pl.Plan.inputs
  in
  let p2 =
    Starburst.compile_text db
      "SELECT pn + 1 FROM (SELECT partno AS pn FROM quotations ORDER BY price) v"
  in
  Alcotest.(check bool) "projects fused" true (no_adjacent_projects p2);
  ignore ops;
  (* refinement preserves semantics on a broad query *)
  check_bag "refined results"
    [ row [ i 1 ]; row [ i 2 ]; row [ i 3 ]; row [ i 4 ] ]
    (q db "SELECT partno FROM quotations WHERE price > 10 AND order_qty < 60 OR partno = 3")

let suite =
  (fst suite, snd suite @ [ case "plan refinement" test_refinement ])

(* --- index ANDing --- *)

let test_index_anding () =
  let db = Starburst.create () in
  ignore (Starburst.run db "CREATE TABLE wide (a INT NOT NULL, b INT NOT NULL, pay INT)");
  ignore
    (Starburst.run db
       ("INSERT INTO wide VALUES "
       ^ String.concat ","
           (List.init 4000 (fun k ->
                Printf.sprintf "(%d, %d, %d)" (k mod 80) (k / 50) k))));
  let query = "SELECT pay FROM wide WHERE a = 7 AND b = 13" in
  let baseline = q db query in
  (* [b = 13] is k 650-699, and k = 660 is the one with [a = 20]; the
     residual on [pay] keeps it or drops it *)
  let matching =
    List.map
      (fun (text, n) -> (text, n, q db text))
      [
        ("SELECT pay FROM wide WHERE a = 20 AND b = 13", 1);
        ("SELECT pay FROM wide WHERE a = 20 AND b = 13 AND pay < 700", 1);
        ("SELECT pay FROM wide WHERE a = 20 AND b = 13 AND pay > 700", 0);
      ]
  in
  ignore (Starburst.run db "CREATE INDEX wide_a ON wide (a)");
  ignore (Starburst.run db "CREATE INDEX wide_b ON wide (b)");
  ignore (Starburst.run db "ANALYZE");
  let p = Starburst.compile_text db query in
  let rec ops (pl : Plan.plan) = pl.Plan.op :: List.concat_map ops pl.Plan.inputs in
  Alcotest.(check bool) "index ANDing chosen" true
    (List.exists (function Plan.Idx_and _ -> true | _ -> false) (ops p));
  check_bag "same rows as scan" baseline (q db query);
  (* probes are counted per index *)
  let c = Starburst.counters db in
  Alcotest.(check bool) "two probes" true (c.Exec.c_index_probes >= 2);
  List.iter
    (fun (text, n, before) ->
      Alcotest.(check int) ("rows before the indexes: " ^ text) n (List.length before);
      Alcotest.(check bool) ("index ANDing chosen: " ^ text) true
        (List.exists
           (function Plan.Idx_and _ -> true | _ -> false)
           (ops (Starburst.compile_text db text)));
      check_bag ("same rows as scan: " ^ text) before (q db text))
    matching;
  (* with only one index the single-probe plan is used instead *)
  ignore (Starburst.run db "DROP INDEX wide_b ON wide");
  let p2 = Starburst.compile_text db query in
  Alcotest.(check bool) "no ANDing with one index" false
    (List.exists (function Plan.Idx_and _ -> true | _ -> false) (ops p2));
  check_bag "still correct" baseline (q db query)

let suite =
  (fst suite, snd suite @ [ case "index ANDing" test_index_anding ])
