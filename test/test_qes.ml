(** QES-level tests: execution counters, the evaluate-on-demand
    correlation cache, the OR operator's branch accounting, join kinds,
    and the fixpoint driver. *)

open Test_util
module Exec = Sb_qes.Exec

let test_counters_scan () =
  let db = sample_db () in
  ignore (q db "SELECT partno FROM quotations");
  let c = Starburst.counters db in
  Alcotest.(check int) "scanned all rows" 5 c.Exec.c_scanned;
  Alcotest.(check int) "output" 5 c.Exec.c_output

let test_evaluate_on_demand_cache () =
  let db = sample_db () in
  (* a correlated subquery whose correlation value repeats: partno = 1
     appears twice in quotations, so one evaluation must be a cache hit *)
  ignore (Starburst.run db "SET rewrite = off");
  ignore
    (q db
       "SELECT partno FROM quotations q WHERE EXISTS (SELECT * FROM inventory \
        i WHERE i.partno = q.partno)");
  let c = Starburst.counters db in
  Alcotest.(check bool) "cache hits occurred" true (c.Exec.c_sub_cache_hits >= 1);
  Alcotest.(check bool) "fewer evals than outer rows" true (c.Exec.c_sub_evals < 5)

let test_or_operator_counters () =
  let db = sample_db () in
  ignore
    (q db
       "SELECT partno FROM quotations q WHERE q.price > 50 OR q.partno = \
        (SELECT partno FROM inventory WHERE onhand_qty = 10)");
  let c = Starburst.counters db in
  (* 5 outer tuples, first branch tried for each; second branch only for
     the tuples the first rejects *)
  Alcotest.(check bool) "branch evals bounded" true
    (c.Exec.c_or_branch_evals >= 5 && c.Exec.c_or_branch_evals <= 10)

let test_fixpoint_rounds () =
  let db = sample_db () in
  ignore
    (q db
       "WITH RECURSIVE paths (src, dst) AS (SELECT src, dst FROM edges UNION \
        SELECT p.src, e.dst FROM paths p, edges e WHERE p.dst = e.src) SELECT \
        * FROM paths");
  let c = Starburst.counters db in
  (* chain of length 3 plus one isolated edge: closure converges in 3–4 rounds *)
  Alcotest.(check bool) "rounds" true (c.Exec.c_fixpoint_rounds >= 2 && c.Exec.c_fixpoint_rounds <= 5)

let test_index_probe_counter () =
  let db = sample_db () in
  ignore (Starburst.run db "CREATE INDEX inv_part ON inventory (partno)");
  ignore (Starburst.run db "ANALYZE");
  ignore (q db "SELECT onhand_qty FROM inventory WHERE partno = 2");
  let c = Starburst.counters db in
  if c.Exec.c_index_probes > 0 then
    Alcotest.(check bool) "probe cheaper than scan" true (c.Exec.c_scanned <= 2)

let test_set_predicate_kind () =
  let db = sample_db ~extensions:true () in
  (* MAJORITY over emp depts [1;1;2;1;3] *)
  check_bag "majority" [ row [ i 1 ] ]
    (q db "SELECT id FROM dept d WHERE d.id = MAJORITY (SELECT dept FROM emp)");
  check_bag "atleast_third" [ row [ i 1 ] ]
    (q db "SELECT id FROM dept d WHERE d.id = atleast_third (SELECT dept FROM emp)")

let test_left_outer_kind () =
  let db = sample_db ~extensions:true () in
  check_bag "left outer"
    [ row [ s "eng"; f 100.0 ]; row [ s "eng"; f 120.0 ]; row [ s "eng"; f 95.0 ];
      row [ s "sales"; f 90.0 ]; row [ s "legal"; f 150.0 ]; row [ s "empty"; nul ] ]
    (q db "SELECT d.dname, e.salary FROM dept d LEFT OUTER JOIN emp e ON d.id = e.dept");
  (* ON predicates never filter preserved rows *)
  check_bag "on pred keeps preserved"
    [ row [ s "eng"; f 120.0 ]; row [ s "sales"; nul ]; row [ s "legal"; f 150.0 ];
      row [ s "empty"; nul ] ]
    (q db
       "SELECT d.dname, e.salary FROM dept d LEFT OUTER JOIN emp e ON d.id = \
        e.dept AND e.salary > 100");
  (* WHERE predicates on the preserved side do filter *)
  check_bag "where filters"
    [ row [ s "eng" ]; row [ s "legal" ] ]
    (q db
       "SELECT DISTINCT d.dname FROM dept d LEFT OUTER JOIN emp e ON d.id = \
        e.dept WHERE d.region = 'west'")

let test_temp_rescan () =
  let db = sample_db () in
  (* an uncorrelated NL-join inner is TEMP'ed: the inner must be
     evaluated once, not once per outer row *)
  ignore (Starburst.run db "SET rewrite = off");
  ignore
    (q db
       "SELECT q.partno FROM quotations q WHERE q.order_qty > ALL (SELECT \
        order_qty FROM quotations WHERE supplier = 'initech')");
  let c = Starburst.counters db in
  (* one materialization for the TEMP, one for the join's demand cache;
     crucially NOT one per outer tuple *)
  Alcotest.(check bool) "inner evaluated once" true (c.Exec.c_sub_evals <= 2);
  Alcotest.(check bool) "subsequent outers hit the cache" true
    (c.Exec.c_sub_cache_hits >= 3)

let test_like_matching () =
  let db = sample_db () in
  let like pat = Printf.sprintf "SELECT count(*) FROM quotations WHERE supplier LIKE '%s'" pat in
  check_bag "percent both" [ row [ i 2 ] ] (q db (like "%cm%"));
  check_bag "anchor" [ row [ i 0 ] ] (q db (like "cme"));
  check_bag "underscore" [ row [ i 2 ] ] (q db (like "_lobe_"));
  check_bag "all" [ row [ i 5 ] ] (q db (like "%"))

let test_division_by_zero_is_null () =
  let db = sample_db () in
  check_bag "div0" [ row [ nul ] ] (q db "SELECT 1 / (partno - partno) FROM quotations WHERE partno = 2 AND supplier = 'acme'")

(* --- nested-loop joins through the one join body --- *)

(* 1100 rows, k = 0..1099 unique, v = k / 2: every row has one partner *)
let pairs_db () =
  let db = Starburst.create () in
  let run s = ignore (Starburst.run db s) in
  run "CREATE TABLE pr (k INT NOT NULL, v INT)";
  for c = 0 to 3 do
    run
      ("INSERT INTO pr VALUES "
      ^ String.concat ", "
          (List.init 275 (fun j ->
               let k = (c * 275) + j in
               Printf.sprintf "(%d, %d)" k (k / 2))))
  done;
  run "ANALYZE";
  db

(* the kind, boundness and residual predicate of the plan's first
   nested-loop join *)
let rec nl_join (p : Sb_optimizer.Plan.plan) =
  match p.op with
  | Sb_optimizer.Plan.Join { j_method = Sb_optimizer.Plan.Nested_loop; j_kind; j_bound; j_pred; _ } ->
    Some (j_kind, j_bound, j_pred <> None)
  | _ -> List.find_map nl_join p.inputs

let test_nl_exists_spans_batches () =
  let db = pairs_db () in
  let text =
    "SELECT k FROM pr a WHERE EXISTS (SELECT * FROM pr b WHERE b.v = a.v AND b.k <> a.k)"
  in
  (match nl_join (Starburst.compile_text db text) with
  | Some (Sb_optimizer.Plan.J_exists, true, _) -> ()
  | _ -> Alcotest.fail "expected a correlated nested-loop EXISTS join");
  let rows = q db text in
  Alcotest.(check int) "every row has a partner" 1100 (List.length rows);
  check_bag "agrees with the reference" (reference_rows db text) rows

let test_nl_residual_predicate () =
  let db = pairs_db () in
  let text = "SELECT a.k, b.k FROM pr a, pr b WHERE a.k < b.k AND a.k < 40 AND b.k < 60" in
  (match nl_join (Starburst.compile_text db text) with
  | Some (Sb_optimizer.Plan.J_regular, _, true) -> ()
  | _ -> Alcotest.fail "expected a nested-loop join with a residual predicate");
  let rows = q db text in
  (* a = 0..39 pairs with b = a+1..59 *)
  Alcotest.(check int) "pairs" 1580 (List.length rows);
  check_bag "agrees with the reference" (reference_rows db text) rows

(* A cartesian nested-loop join fans every outer row out to 1100 rows.
   The join stops probing once an output batch is full, so the
   per-batch row charge trips the ceiling a few probes in, not after a
   whole outer batch (1024 probes, 1.1M rows) is already buffered.  With an unbound inner
   every probe is one evaluate-on-demand lookup (an evaluation or a
   cache hit), which counts the probes. *)
let test_nl_fanout_hits_ceiling () =
  let db = pairs_db () in
  let text = "SELECT a.k, b.k FROM pr a, pr b" in
  (match nl_join (Starburst.compile_text db text) with
  | Some (Sb_optimizer.Plan.J_regular, false, false) -> ()
  | _ -> Alcotest.fail "expected an unbound cartesian nested-loop join");
  ignore (Starburst.run db "SET limit_intermediate_rows = 5000");
  (match Starburst.run db text with
  | _ -> Alcotest.fail "expected a resource error"
  | exception Starburst.Error e ->
    Alcotest.(check string) "stage" "resource"
      (Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage));
  let c = Starburst.counters db in
  let probes = c.Exec.c_sub_evals + c.Exec.c_sub_cache_hits in
  (* 5000 rows of ceiling over a fan-out of 1100, plus the probe that
     fills the tripping batch *)
  Alcotest.(check bool)
    (Printf.sprintf "at most one row's fan-out past the ceiling (%d probes)" probes)
    true
    (probes >= 1 && probes <= (5000 / 1100) + 1)


(* --- unboxed INT columns: heap and fixed tables against the reference --- *)

(* Two tables of one schema and rows, [h] on the heap manager and [x]
   USING fixed, big enough (1500 rows) that their INT columns are
   decoded unboxed; a is NULL on every fifth row, b holds max_int and
   -max_int.  A small dimension [d] joins on a, and so does [e], keyed
   by a FLOAT column. *)
let typed_db () =
  let db = Starburst.create () in
  let run s = ignore (Starburst.run db s) in
  run "CREATE TABLE h (k INT NOT NULL, a INT, b INT)";
  run "CREATE TABLE x (k INT NOT NULL, a INT, b INT) USING fixed";
  run "CREATE TABLE d (a INT, w INT)";
  run "CREATE TABLE e (a FLOAT, w INT)";
  let rows =
    List.init 1500 (fun k ->
        let a = if k mod 5 = 0 then "NULL" else string_of_int (k mod 23) in
        let b =
          if k = 7 then string_of_int max_int
          else if k = 8 then string_of_int (-max_int)
          else string_of_int ((k * 37) mod 2000)
        in
        Printf.sprintf "(%d, %s, %s)" k a b)
  in
  let rec chunks = function
    | [] -> ()
    | l ->
      let now = List.filteri (fun j _ -> j < 300) l
      and rest = List.filteri (fun j _ -> j >= 300) l in
      let vals = String.concat ", " now in
      run ("INSERT INTO h VALUES " ^ vals);
      run ("INSERT INTO x VALUES " ^ vals);
      chunks rest
  in
  chunks rows;
  run "INSERT INTO d VALUES (1, 10), (2, 20), (NULL, 30), (3, 40), (3, 41), (4, NULL)";
  run "INSERT INTO e VALUES (2.0, 50), (2.5, 60), (NULL, 70)";
  run "ANALYZE";
  db

(* some hash join's inner scans [inner] *)
let rec hash_join_over inner (p : Sb_optimizer.Plan.plan) =
  let rec scans (p : Sb_optimizer.Plan.plan) =
    match p.op with
    | Sb_optimizer.Plan.Scan { sc_table; _ } -> sc_table = inner
    | _ -> List.exists scans p.inputs
  in
  match p.op, p.inputs with
  | Sb_optimizer.Plan.Join { j_method = Sb_optimizer.Plan.Hash_join; _ }, [ _; i ] when scans i ->
    true
  | _ -> List.exists (hash_join_over inner) p.inputs

let test_unboxed_columns_match_reference () =
  let db = typed_db () in
  let one text =
    List.iter
      (fun t ->
        let text = Printf.sprintf text t in
        check_bag text (reference_rows db text) (q db text))
      [ "h"; "x" ]
  in
  List.iter one
    [
      "SELECT k, a FROM %s WHERE a = 3";
      "SELECT k FROM %s WHERE a < 2";
      "SELECT k, b FROM %s WHERE b >= 1990";
      "SELECT k FROM %s WHERE a <> 4";
      "SELECT k FROM %s WHERE a < 2.5";
      "SELECT k, b FROM %s WHERE b > 4611686018427387902 OR b < -4611686018427387902";
      "SELECT a, count(*), count(a), sum(b), min(b), max(b), avg(a) FROM %s GROUP BY a";
      "SELECT count(*), count(a), sum(a), min(a), max(a) FROM %s";
      "SELECT DISTINCT a FROM %s";
      "SELECT DISTINCT a, b FROM %s WHERE k < 40";
      "SELECT t.k, d.w FROM %s t, d WHERE t.a = d.a";
      "SELECT d.w, count(*), sum(t.b) FROM %s t, d WHERE t.a = d.a GROUP BY d.w";
    ];
  (* an INT-chunk outer of more than a batch probes a build side keyed
     by FLOAT 2.0, 2.5 and NULL *)
  List.iter
    (fun t ->
      let text = Printf.sprintf "SELECT t.k, e.w FROM %s t, e WHERE t.a = e.a" t in
      Alcotest.(check bool) (text ^ ": hash join builds on e") true
        (hash_join_over "e" (Starburst.compile_text db text));
      check_bag text (reference_rows db text) (q db text))
    [ "h"; "x" ];
  (* heap against fixed: the hash join probes INT chunks of both *)
  let text = "SELECT h.k, x.k FROM h, x WHERE h.a = x.a AND h.k < 30 AND x.k < 60" in
  check_bag text (reference_rows db text) (q db text);
  (* host variables: Int, Float and NULL constants *)
  List.iter
    (fun v ->
      Starburst.bind_host db "v" v;
      one "SELECT k FROM %s WHERE a = :v")
    [ i 3; f 3.0; f 3.5; nul ]

(* the constant of an unboxed comparison is resolved on the first row
   compared: a big table whose rows all fail the other conjunct answers
   without ever reading the unbound host variable *)
let test_unboxed_unbound_host () =
  let db = typed_db () in
  Alcotest.(check int) "no row reaches :missing" 0
    (List.length (q db "SELECT k FROM h WHERE k < 0 AND a = :missing"));
  ignore (Starburst.run db "DELETE FROM x");
  Alcotest.(check int) "emptied fixed table" 0
    (List.length (q db "SELECT k FROM x WHERE a = :missing"));
  match Starburst.run db "SELECT k FROM h WHERE a = :missing" with
  | _ -> Alcotest.fail "expected an unbound host variable error"
  | exception Starburst.Error e ->
    Alcotest.(check string) "stage" "exec" (Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage)

let suite =
  ( "qes",
    [
      case "scan counters" test_counters_scan;
      case "evaluate-on-demand cache" test_evaluate_on_demand_cache;
      case "OR operator branch accounting" test_or_operator_counters;
      case "fixpoint rounds" test_fixpoint_rounds;
      case "index probe counter" test_index_probe_counter;
      case "set-predicate join kind" test_set_predicate_kind;
      case "left-outer join kind" test_left_outer_kind;
      case "uncorrelated inner evaluated once" test_temp_rescan;
      case "LIKE matching" test_like_matching;
      case "division by zero yields NULL" test_division_by_zero_is_null;
      case "nested-loop EXISTS join past one batch" test_nl_exists_spans_batches;
      case "nested-loop join with a residual predicate" test_nl_residual_predicate;
      case "nested-loop fan-out stops at the row ceiling" test_nl_fanout_hits_ceiling;
      case "unboxed INT columns, heap and fixed, match the reference"
        test_unboxed_columns_match_reference;
      case "unboxed comparison with an unbound host variable" test_unboxed_unbound_host;
    ] )
