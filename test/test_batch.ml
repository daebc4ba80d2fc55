(** Batch-engine edge cases: the seams of the vectorized QES.

    Everything here runs the same query (or the same compiled plan)
    under both engines — [SET vectorized] flips between the
    batch-at-a-time implementation and the tuple-at-a-time reference —
    and checks they agree exactly at the places batches can crack:
    empty inputs, batches the filter empties entirely, LIMIT straddling
    the 1024-row batch capacity, NULL join keys under the hash and
    sort-merge methods, duplicate sort keys spanning a batch boundary,
    the governor's row ceiling tripping inside a batch, and a
    structured Exec error thrown mid-batch rolling back the implicit
    transaction.  Two cases pin what recycling and laziness must keep:
    the batch lifetime contract across a join that fans out past one
    output batch, and every SORT prefix with and without LIMIT.  The
    predicates batch scans and filters compile are checked row for row
    against [eval]. *)

open Test_util
module Plan = Sb_optimizer.Plan

let run db s = ignore (Starburst.run db s)
let set_vec db on = run db (if on then "SET vectorized = on" else "SET vectorized = off")

(* 2100 rows (just over two batches): k = 0..2099 unique, v = k / 3
   (duplicate groups of three, one of which spans rows 1023..1025 —
   the batch boundary), tag = 'r<k>' *)
let rows_total = 2100

let batch_db () =
  let db = Starburst.create () in
  run db "CREATE TABLE bt (k INT NOT NULL, v INT, tag STRING)";
  let chunk = 300 in
  for c = 0 to (rows_total / chunk) - 1 do
    let vals =
      List.init chunk (fun j ->
          let i = (c * chunk) + j in
          Printf.sprintf "(%d, %d, 'r%d')" i (i / 3) i)
    in
    run db ("INSERT INTO bt VALUES " ^ String.concat ", " vals)
  done;
  run db "CREATE TABLE nk (k INT, v INT)";
  run db "INSERT INTO nk VALUES (1, 10), (NULL, 20), (2, 30), (NULL, 40), (1, 50)";
  run db "ANALYZE";
  db

(* run [text] under both engines; returns (tuple rows, vectorized rows) *)
let both db text =
  set_vec db false;
  let t = q db text in
  set_vec db true;
  let v = q db text in
  (t, v)

let check_engines_agree msg db text =
  let t, v = both db text in
  check_bag msg t v;
  (t, v)

(* rebuilds a plan with every hash join flipped to the sort-merge
   method: both engines execute Sort_merge through the same keyed-probe
   body, so the flip is semantics-preserving and lets the test drive
   the merge path deterministically (the optimizer would otherwise pick
   the method by cost) *)
let rec to_merge (p : Plan.plan) : Plan.plan =
  let inputs = List.map to_merge p.Plan.inputs in
  let op =
    match p.Plan.op with
    | Plan.Join ({ j_method = Plan.Hash_join; _ } as j) ->
      Plan.Join { j with j_method = Plan.Sort_merge }
    | op -> op
  in
  { p with Plan.op; inputs }

let both_plan db (plan : Plan.plan) =
  set_vec db false;
  let t = Starburst.run_plan db plan in
  set_vec db true;
  let v = Starburst.run_plan db plan in
  (t, v)

(* --- empty inputs and emptied batches --- *)

let test_empty_input () =
  let db = batch_db () in
  let t, v = check_engines_agree "empty scan" db "SELECT k FROM bt WHERE k < 0" in
  Alcotest.(check int) "no rows" 0 (List.length t);
  Alcotest.(check int) "no rows vectorized" 0 (List.length v);
  (* keyless aggregation over an empty input still produces its one row *)
  let t, _ = check_engines_agree "count over empty" db
      "SELECT count(*) FROM bt WHERE k < 0" in
  check_bag "count is 0" [ row [ i 0 ] ] t;
  (* a join whose outer is empty must never evaluate the inner *)
  let t, _ = check_engines_agree "empty outer join" db
      "SELECT a.k FROM bt a, bt b WHERE a.k = b.k AND a.k < 0" in
  Alcotest.(check int) "empty join" 0 (List.length t)

let test_all_filtered_batches () =
  let db = batch_db () in
  (* the first two input batches are filtered away entirely; only the
     tail of the third survives *)
  let t, v = both db "SELECT k FROM bt WHERE k >= 2000" in
  Alcotest.(check int) "tail rows" 100 (List.length t);
  check_rows "same rows, same order" t v

(* --- LIMIT straddling the batch capacity (1024) --- *)

let test_limit_at_batch_boundary () =
  let db = batch_db () in
  List.iter
    (fun n ->
      let text = Printf.sprintf "SELECT k FROM bt LIMIT %d" n in
      let t, v = both db text in
      Alcotest.(check int) (Printf.sprintf "limit %d count" n) n (List.length t);
      check_rows (Printf.sprintf "limit %d rows agree" n) t v)
    [ 1023; 1024; 1025 ]

(* --- NULL join keys: hash and sort-merge methods --- *)

let test_null_join_keys () =
  let db = batch_db () in
  (* k = 1 twice, k = 2 once, two NULLs that must match nothing (not
     even each other): 2*2 + 1 = 5 pairs *)
  let text = "SELECT a.v, b.v FROM nk a, nk b WHERE a.k = b.k" in
  let t, v = check_engines_agree "null keys, hash" db text in
  Alcotest.(check int) "5 pairs" 5 (List.length t);
  Alcotest.(check int) "5 pairs vectorized" 5 (List.length v);
  let merged = to_merge (Starburst.compile_text db text) in
  let tm, vm = both_plan db merged in
  check_bag "null keys, merge: engines agree" tm vm;
  check_bag "merge agrees with hash" t tm

(* --- duplicate sort-merge keys across a batch boundary --- *)

let test_merge_ties_at_batch_boundary () =
  let db = batch_db () in
  (* v groups rows in threes; group 341 spans physical rows
     1023..1025, so its tie group straddles the first batch boundary *)
  let text = "SELECT a.k, b.k FROM bt a, bt b WHERE a.v = b.v" in
  let merged = to_merge (Starburst.compile_text db text) in
  let tm, vm = both_plan db merged in
  Alcotest.(check int) "3 matches per row" (rows_total * 3) (List.length tm);
  check_bag "merge ties agree across engines" tm vm;
  (* and the boundary group itself is intact: rows 1023..1025 pair 9 ways *)
  let t, v =
    check_engines_agree "boundary group" db
      "SELECT a.k, b.k FROM bt a, bt b WHERE a.v = b.v AND a.v = 341"
  in
  Alcotest.(check int) "9 pairs" 9 (List.length t);
  Alcotest.(check int) "9 pairs vectorized" 9 (List.length v)

(* --- governor: row ceiling exhausted inside a batch --- *)

let test_governor_ceiling_mid_batch () =
  let db = batch_db () in
  run db "SET limit_intermediate_rows = 100";
  (* the ceiling (100) is below one batch (1024): the charge for the
     first batch must trip it, under either engine *)
  let expect_resource () =
    match Starburst.run db "SELECT k FROM bt" with
    | _ -> Alcotest.fail "expected a resource error"
    | exception Starburst.Error e ->
      Alcotest.(check string) "stage" "resource"
        (Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage)
  in
  set_vec db true;
  expect_resource ();
  set_vec db false;
  expect_resource ();
  (* lifting the ceiling restores the query *)
  run db "SET limit_intermediate_rows = 0";
  set_vec db true;
  Alcotest.(check int) "recovers" rows_total (List.length (q db "SELECT k FROM bt"))

(* --- structured Exec error mid-batch; implicit-transaction rollback --- *)

let test_exec_error_mid_batch () =
  let db = batch_db () in
  (* the conjunction short-circuits: the LIKE over an INT column only
     runs for the final 9 rows, so 2000+ rows stream through cleanly
     before the error fires inside the third batch *)
  (match Starburst.run db "SELECT k FROM bt WHERE k > 2090 AND v LIKE 'x%'" with
  | _ -> Alcotest.fail "expected an exec error"
  | exception Starburst.Error e ->
    Alcotest.(check string) "stage" "exec"
      (Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage);
    Alcotest.(check bool) "query attached" true (e.Sb_resil.Err.err_query <> None));
  (* the session survives a mid-batch failure *)
  Alcotest.(check int) "session intact" rows_total
    (List.length (q db "SELECT k FROM bt"))

let test_mid_statement_error_rolls_back () =
  let db = batch_db () in
  run db "CREATE TABLE sink (u INT NOT NULL UNIQUE)";
  (* k = 2099 maps onto 0, colliding with the first row: 2099 inserts
     succeed before the violation, and the implicit transaction must
     undo every one of them *)
  (match
     Starburst.run db
       "INSERT INTO sink SELECT CASE WHEN k = 2099 THEN 0 ELSE k END FROM bt"
   with
  | _ -> Alcotest.fail "expected a constraint violation"
  | exception Starburst.Error e ->
    Alcotest.(check string) "stage" "exec"
      (Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage));
  check_bag "rolled back to empty" [ row [ i 0 ] ]
    (q db "SELECT count(*) FROM sink");
  (* and the table is still usable *)
  (match Starburst.run db "INSERT INTO sink SELECT k FROM bt WHERE k < 10" with
  | Starburst.Affected 10 -> ()
  | _ -> Alcotest.fail "insert after rollback");
  check_bag "clean insert lands" [ row [ i 10 ] ]
    (q db "SELECT count(*) FROM sink")

(* --- EXPLAIN ANALYZE actual rows under the batch engine --- *)

let test_explain_analyze_rows_vectorized () =
  let db = batch_db () in
  set_vec db true;
  let text = "SELECT a.k FROM bt a, bt b WHERE a.v = b.v AND a.k < 50" in
  let n = List.length (q db text) in
  Alcotest.(check int) "50 outer rows, 3 matches each" 150 n;
  let report =
    match Starburst.run db ("EXPLAIN ANALYZE " ^ text) with
    | Starburst.Message m -> m
    | _ -> Alcotest.fail "expected explain output"
  in
  let contains sub =
    let rec mem i =
      i + String.length sub <= String.length report
      && (String.sub report i (String.length sub) = sub || mem (i + 1))
    in
    mem 0
  in
  Alcotest.(check bool) "root actual rows exact" true
    (contains (Printf.sprintf "rows=%d" n));
  Alcotest.(check bool) "batch counts reported" true (contains "batches=")

(* --- the batch lifetime contract --- *)

let rec has_hash_join (p : Plan.plan) =
  (match p.Plan.op with
  | Plan.Join { j_method = Plan.Hash_join; _ } -> true
  | _ -> false)
  || List.exists has_hash_join p.Plan.inputs

(* Producers refill one batch per pull, and the hash join takes back the
   batch it lent on the next pull: a consumer that kept a batch, or a
   producer that refilled one too early, would show as a wrong row.
   bt is three scan batches (1024 + 1024 + 52 rows); the self-join on v
   emits 3 rows per probe, so each outer batch overflows into several
   output batches. *)
let test_batch_lifetime () =
  let db = batch_db () in
  let join = "FROM bt a, bt b WHERE a.v = b.v" in
  Alcotest.(check bool) "the fan-out join is a hash join" true
    (has_hash_join (Starburst.compile_text db ("SELECT a.k, b.k " ^ join)));
  List.iter
    (fun (what, text, n) ->
      let t, v = both db text in
      Alcotest.(check int) (what ^ ": row count") n (List.length t);
      check_rows (what ^ ": same rows, same order") t v)
    [
      ("scan", "SELECT k, v, tag FROM bt", rows_total);
      ("computed projection", "SELECT k + 1, v * 2, tag FROM bt", rows_total);
      ("fan-out join", "SELECT a.k, b.k, b.tag " ^ join, 3 * rows_total);
      ("projection over the join", "SELECT (a.k * 10000) + b.k " ^ join, 3 * rows_total);
      ( "GROUP BY over the join",
        "SELECT a.v, count(*), sum(b.k), min(b.tag) " ^ join ^ " GROUP BY a.v",
        rows_total / 3 );
      ("DISTINCT over the join", "SELECT DISTINCT a.v, b.v " ^ join, rows_total / 3);
      ( "SORT over the join",
        "SELECT a.k, b.k " ^ join ^ " ORDER BY b.k DESC",
        3 * rows_total );
      ( "SORT over a computed projection",
        "SELECT k, v * 2 AS w FROM bt ORDER BY w DESC",
        rows_total );
    ]

(* --- lazy SORT: every prefix is the stable sort's --- *)

(* ORDER BY t with t = k mod 7 (ties everywhere) over 0 .. 3000 rows,
   with and without LIMIT: both engines, and a stable sort of the rows
   in arrival order, agree exactly, and c_sorted counts every input
   row *)
let test_sort_prefixes () =
  List.iter
    (fun n ->
      let db = Starburst.create () in
      run db "CREATE TABLE st (k INT NOT NULL, t INT)";
      let chunk = 500 in
      for c = 0 to (n - 1) / chunk do
        let lo = c * chunk in
        let vals =
          List.init (min chunk (n - lo)) (fun j ->
              Printf.sprintf "(%d, %d)" (lo + j) ((lo + j) mod 7))
        in
        if vals <> [] then run db ("INSERT INTO st VALUES " ^ String.concat ", " vals)
      done;
      run db "ANALYZE";
      let arrival = List.init n (fun k -> row [ i k; i (k mod 7) ]) in
      List.iter
        (fun (dir, by) ->
          let sorted = List.stable_sort (fun a b -> by a.(1) b.(1)) arrival in
          List.iter
            (fun limit ->
              let text =
                Printf.sprintf "SELECT k, t FROM st ORDER BY t %s%s" dir
                  (match limit with None -> "" | Some l -> Printf.sprintf " LIMIT %d" l)
              in
              let expect = List.filteri (fun j _ -> j < Option.value ~default:n limit) sorted in
              List.iter
                (fun on ->
                  set_vec db on;
                  let what = Printf.sprintf "%d rows, %s, vectorized %b" n text on in
                  check_rows what expect (q db text);
                  Alcotest.(check int) (what ^ ": c_sorted") n
                    (Starburst.counters db).Sb_qes.Exec.c_sorted)
                [ true; false ])
            [ None; Some 10; Some 1024; Some 1025 ])
        [ ("ASC", Sb_storage.Value.compare ?registry:None);
          ("DESC", fun a b -> Sb_storage.Value.compare b a) ])
    [ 0; 1; 1023; 1024; 1025; 3000 ]

(* --- compiled scan/filter predicates agree with eval --- *)

module Ast = Sb_hydrogen.Ast
module Exec = Sb_qes.Exec

let test_compiled_predicates () =
  let catalog = Sb_storage.Catalog.create () in
  (* an external type whose order is not its payload's string order *)
  Sb_storage.Datatype.register catalog.Sb_storage.Catalog.datatypes
    {
      Sb_storage.Datatype.ext_name = "MOD7";
      ext_parse = (fun p -> Ok p);
      ext_compare = (fun a b -> compare (int_of_string a mod 7) (int_of_string b mod 7));
      ext_print = Fun.id;
    };
  let db = Exec.make_db ~catalog ~functions:(Sb_hydrogen.Functions.create ()) in
  let values =
    [ nul; i 0; i 1; i 2; i (-1); f 0.0; f (-0.0); f 1.0; f 1.5; f nan; f infinity;
      s ""; s "a"; s "b"; b true; Sb_storage.Value.Ext ("MOD7", "8");
      Sb_storage.Value.Ext ("MOD7", "1"); Sb_storage.Value.Ext ("MOD7", "2") ]
  in
  let ops = [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
  let checked = ref 0 in
  List.iter
    (fun op ->
      List.iter
        (fun k ->
          let reference = Plan.RBin (op, Plan.RCol 0, Plan.RLit k) in
          (* the constant as a literal, a host variable and a parameter,
             on the right (the fast path) and on the left (eval) *)
          let forms =
            [ Exec.row_test db [ reference ];
              Exec.row_test ~hosts:[ ("k", k) ] db [ Plan.RBin (op, Plan.RCol 0, Plan.RHost "k") ];
              Exec.row_test ~params:[| k |] db [ Plan.RBin (op, Plan.RCol 0, Plan.RParam 0) ];
              Exec.row_test ~params:[| k |] db [ Plan.RBin (op, Plan.RParam 0, Plan.RCol 0) ] ]
          in
          List.iter
            (fun v ->
              let r = [| v |] in
              let expect = Exec.eval_row db ~row:r reference = Sb_storage.Value.Bool true in
              let expect_flipped =
                Exec.eval_row db ~row:r (Plan.RBin (op, Plan.RLit k, Plan.RCol 0))
                = Sb_storage.Value.Bool true
              in
              List.iteri
                (fun form test ->
                  incr checked;
                  let want = if form = 3 then expect_flipped else expect in
                  if test r <> want then
                    Alcotest.failf "form %d: %s %s %s compiled to %b, eval says %b" form
                      (Sb_storage.Value.to_string v)
                      (match op with
                      | Ast.Eq -> "=" | Ast.Neq -> "<>" | Ast.Lt -> "<" | Ast.Le -> "<="
                      | Ast.Gt -> ">" | _ -> ">=")
                      (Sb_storage.Value.to_string k) (test r) want)
                forms)
            values)
        values)
    ops;
  Alcotest.(check int) "fixture size" (6 * 18 * 18 * 4) !checked;
  (* a conjunction is the AND of its members, NULL failing *)
  let both_bounds =
    Exec.row_test db
      [ Plan.RBin (Ast.Gt, Plan.RCol 0, Plan.RLit (i 1)); Plan.RBin (Ast.Lt, Plan.RCol 1, Plan.RLit (f 2.0)) ]
  in
  Alcotest.(check (list bool)) "conjunction" [ true; false; false; false ]
    (List.map both_bounds [ [| i 2; f 1.0 |]; [| i 1; f 1.0 |]; [| i 2; f 2.0 |]; [| i 2; nul |] ]);
  (* the constant is resolved on the first row tested: compiling over an
     unbound host variable is fine, testing a row is an Exec error *)
  let unbound = Exec.row_test db [ Plan.RBin (Ast.Eq, Plan.RCol 0, Plan.RHost "missing") ] in
  (match unbound [| i 1 |] with
  | _ -> Alcotest.fail "expected an unbound host variable error"
  | exception Sb_resil.Err.Error e ->
    Alcotest.(check string) "stage" "exec" (Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage))

let test_unbound_host_over_empty_table () =
  let db = Starburst.create () in
  run db "CREATE TABLE e (x INT, y STRING)";
  List.iter
    (fun on ->
      set_vec db on;
      Alcotest.(check int) "no rows, no error" 0
        (List.length (q db "SELECT x FROM e WHERE x = :missing")))
    [ true; false ];
  run db "INSERT INTO e VALUES (1, 'a')";
  set_vec db true;
  match Starburst.run db "SELECT x FROM e WHERE x = :missing" with
  | _ -> Alcotest.fail "expected an unbound host variable error"
  | exception Starburst.Error e ->
    Alcotest.(check string) "stage" "exec" (Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage)

let suite =
  ( "batch-engine",
    [
      case "empty inputs" test_empty_input;
      case "batches emptied by the filter" test_all_filtered_batches;
      case "LIMIT at the batch capacity" test_limit_at_batch_boundary;
      case "NULL join keys, hash and merge" test_null_join_keys;
      case "sort-merge ties across a batch boundary" test_merge_ties_at_batch_boundary;
      case "governor ceiling trips mid-batch" test_governor_ceiling_mid_batch;
      case "exec error mid-batch is structured" test_exec_error_mid_batch;
      case "mid-statement error rolls back" test_mid_statement_error_rolls_back;
      case "EXPLAIN ANALYZE rows under batches" test_explain_analyze_rows_vectorized;
      case "batch lifetime: recycled batches" test_batch_lifetime;
      case "lazy SORT prefixes" test_sort_prefixes;
      case "compiled predicates agree with eval" test_compiled_predicates;
      case "unbound host variable over an empty table" test_unbound_host_over_empty_table;
    ] )
