(** Batch-engine edge cases: the seams of the batch-at-a-time QES.

    Everything here runs a query (or a compiled plan) through the
    engine and checks it against {!Sb_fuzz.Reference} — the QGM
    reference evaluator, which shares no QES code — or against literal
    rows, at the places batches can crack: empty inputs, batches the
    filter empties entirely, LIMIT straddling the 1024-row batch
    capacity, NULL join keys under the hash and sort-merge methods,
    duplicate sort keys spanning a batch boundary, the governor's row
    ceiling tripping inside a batch, and a structured Exec error thrown
    mid-batch rolling back the implicit transaction.  Two cases pin
    what recycling and laziness must keep: the batch lifetime contract
    across a join that fans out past one output batch, and every SORT
    prefix with and without LIMIT.  The predicates batch scans and
    filters compile are checked row for row against [eval].  The last
    cases pin one key equality — [1] and [1.0] are one key in every
    keyed operator — and recursive UNION ALL. *)

open Test_util
module Plan = Sb_optimizer.Plan

let run db s = ignore (Starburst.run db s)

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

(* returns (reference rows, engine rows) for [text] *)
let both db text = (reference_rows db text, q db text)

let check_reference msg db text =
  let t, v = both db text in
  check_bag msg t v;
  (t, v)

(* rebuilds a plan with every hash join flipped to the sort-merge
   method: Sort_merge executes through the same keyed-probe body, so the
   flip is semantics-preserving and lets the test drive the merge path
   deterministically (the optimizer would otherwise pick the method by
   cost) *)
let rec to_merge (p : Plan.plan) : Plan.plan =
  let inputs = List.map to_merge p.Plan.inputs in
  let op =
    match p.Plan.op with
    | Plan.Join ({ j_method = Plan.Hash_join; _ } as j) ->
      Plan.Join { j with j_method = Plan.Sort_merge }
    | op -> op
  in
  { p with Plan.op; inputs }


(* --- empty inputs and emptied batches --- *)

let test_empty_input () =
  let db = batch_db () in
  let t, v = check_reference "empty scan" db "SELECT k FROM bt WHERE k < 0" in
  Alcotest.(check int) "no rows, reference" 0 (List.length t);
  Alcotest.(check int) "no rows" 0 (List.length v);
  (* keyless aggregation over an empty input still produces its one row *)
  let t, _ = check_reference "count over empty" db
      "SELECT count(*) FROM bt WHERE k < 0" in
  check_bag "count is 0" [ row [ i 0 ] ] t;
  (* a join whose outer is empty must never evaluate the inner *)
  let t, _ = check_reference "empty outer join" db
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
  let t, v = check_reference "null keys, hash" db text in
  Alcotest.(check int) "5 pairs, reference" 5 (List.length t);
  Alcotest.(check int) "5 pairs" 5 (List.length v);
  let merged = to_merge (Starburst.compile_text db text) in
  check_bag "null keys, merge agrees with the reference" t
    (Starburst.run_plan db merged)

(* --- duplicate sort-merge keys across a batch boundary --- *)

let test_merge_ties_at_batch_boundary () =
  let db = batch_db () in
  (* v groups rows in threes; group 341 spans physical rows
     1023..1025, so its tie group straddles the first batch boundary *)
  let text = "SELECT a.k, b.k FROM bt a, bt b WHERE a.v = b.v" in
  let merged = to_merge (Starburst.compile_text db text) in
  let tm = Starburst.run_plan db merged in
  Alcotest.(check int) "3 matches per row" (rows_total * 3) (List.length tm);
  check_bag "merge ties agree with the reference" (reference_rows db text) tm;
  (* and the boundary group itself is intact: rows 1023..1025 pair 9 ways *)
  let t, v =
    check_reference "boundary group" db
      "SELECT a.k, b.k FROM bt a, bt b WHERE a.v = b.v AND a.v = 341"
  in
  Alcotest.(check int) "9 pairs, reference" 9 (List.length t);
  Alcotest.(check int) "9 pairs" 9 (List.length v)

(* --- governor: row ceiling exhausted inside a batch --- *)

let test_governor_ceiling_mid_batch () =
  let db = batch_db () in
  run db "SET limit_intermediate_rows = 100";
  (* the ceiling (100) is below one batch (1024): the charge for the
     first batch must trip it *)
  let expect_resource () =
    match Starburst.run db "SELECT k FROM bt" with
    | _ -> Alcotest.fail "expected a resource error"
    | exception Starburst.Error e ->
      Alcotest.(check string) "stage" "resource"
        (Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage)
  in
  expect_resource ();
  (* lifting the ceiling restores the query *)
  run db "SET limit_intermediate_rows = 0";
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

let test_explain_analyze_rows_batched () =
  let db = batch_db () in
  let text = "SELECT a.k FROM bt a, bt b WHERE a.v = b.v AND a.k < 50" in
  let n = List.length (q db text) in
  Alcotest.(check int) "50 outer rows, 3 matches each" 150 n;
  let report =
    match Starburst.run db ("EXPLAIN ANALYZE " ^ text) with
    | Starburst.Message m -> m
    | _ -> Alcotest.fail "expected explain output"
  in
  Alcotest.(check bool) "root actual rows exact" true
    (contains ~sub:(Printf.sprintf "rows=%d" n) report);
  Alcotest.(check bool) "batch counts reported" true (contains ~sub:"batches=" report)

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
   emits 3 rows per probe, so probes straddle output batch
   boundaries.  Each result is checked against the reference as a
   bag; a sorted result is also checked for order on its sort key
   ([sorted_on], descending). *)
let test_batch_lifetime () =
  let db = batch_db () in
  let join = "FROM bt a, bt b WHERE a.v = b.v" in
  Alcotest.(check bool) "the fan-out join is a hash join" true
    (has_hash_join (Starburst.compile_text db ("SELECT a.k, b.k " ^ join)));
  List.iter
    (fun (what, text, n, sorted_on) ->
      let t, v = both db text in
      Alcotest.(check int) (what ^ ": row count") n (List.length v);
      check_bag (what ^ ": same rows as the reference") t v;
      Option.iter
        (fun c ->
          let rec descending = function
            | a :: (b :: _ as rest) ->
              Sb_storage.Value.compare a.(c) b.(c) >= 0 && descending rest
            | _ -> true
          in
          Alcotest.(check bool) (what ^ ": sorted") true (descending v))
        sorted_on)
    [
      ("scan", "SELECT k, v, tag FROM bt", rows_total, None);
      ("computed projection", "SELECT k + 1, v * 2, tag FROM bt", rows_total, None);
      ("fan-out join", "SELECT a.k, b.k, b.tag " ^ join, 3 * rows_total, None);
      ( "projection over the join",
        "SELECT (a.k * 10000) + b.k " ^ join,
        3 * rows_total,
        None );
      ( "GROUP BY over the join",
        "SELECT a.v, count(*), sum(b.k), min(b.tag) " ^ join ^ " GROUP BY a.v",
        rows_total / 3,
        None );
      ("DISTINCT over the join", "SELECT DISTINCT a.v, b.v " ^ join, rows_total / 3, None);
      ( "SORT over the join",
        "SELECT a.k, b.k " ^ join ^ " ORDER BY b.k DESC",
        3 * rows_total,
        Some 1 );
      ( "SORT over a computed projection",
        "SELECT k, v * 2 AS w FROM bt ORDER BY w DESC",
        rows_total,
        Some 1 );
    ]

(* --- lazy SORT: every prefix is the stable sort's --- *)

(* ORDER BY t with t = k mod 7 (ties everywhere) over 0 .. 3000 rows,
   with and without LIMIT: the engine and a stable sort of the rows in
   arrival order agree exactly, and c_sorted counts every input row *)
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
              let what = Printf.sprintf "%d rows, %s" n text in
              check_rows what expect (q db text);
              Alcotest.(check int) (what ^ ": c_sorted") n
                (Starburst.counters db).Sb_qes.Exec.c_sorted)
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
  Alcotest.(check int) "no rows, no error" 0
    (List.length (q db "SELECT x FROM e WHERE x = :missing"));
  run db "INSERT INTO e VALUES (1, 'a')";
  match Starburst.run db "SELECT x FROM e WHERE x = :missing" with
  | _ -> Alcotest.fail "expected an unbound host variable error"
  | exception Starburst.Error e ->
    Alcotest.(check string) "stage" "exec" (Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage)

(* --- one key equality: 1 and 1.0 are one key everywhere --- *)

(* a(x INT) = {1, 2}, b(y FLOAT) = {1.0, 3.0}: [1 = 1.0] holds, so every
   keyed operator must treat them as one key, as the reference does *)
let mixed_db () =
  let db = Starburst.create () in
  List.iter (run db)
    [ "CREATE TABLE a (x INT)"; "CREATE TABLE b (y FLOAT)";
      "INSERT INTO a VALUES (1), (2)"; "INSERT INTO b VALUES (1.0), (3.0)";
      "ANALYZE" ];
  db

(* [text]'s rows (sorted) equal [expect], and so do the reference's *)
let check_answer db text expect =
  check_bag text expect (q db text);
  check_bag (text ^ " (reference)") expect (reference_rows db text)

let test_key_equality_subquery () =
  let db = mixed_db () in
  (* the uncorrelated IN is a parameter-bound join; the correlated
     EXISTS is evaluated on demand: both find 1 = 1.0 *)
  check_answer db "SELECT x FROM a WHERE x IN (SELECT y FROM b)" [ row [ i 1 ] ];
  check_answer db "SELECT x FROM a WHERE EXISTS (SELECT y FROM b WHERE b.y = a.x)"
    [ row [ i 1 ] ];
  check_answer db "SELECT x FROM a WHERE NOT (x IN (SELECT y FROM b))" [ row [ i 2 ] ];
  check_answer db "SELECT x, y FROM a, b WHERE x = y" [ row [ i 1; f 1.0 ] ]

let test_key_equality_set_ops () =
  let db = mixed_db () in
  (* the left branch's value survives *)
  check_answer db "SELECT x FROM a UNION SELECT y FROM b" [ row [ i 1 ]; row [ i 2 ]; row [ f 3.0 ] ];
  check_answer db "SELECT x FROM a INTERSECT SELECT y FROM b" [ row [ i 1 ] ];
  check_answer db "SELECT x FROM a EXCEPT SELECT y FROM b" [ row [ i 2 ] ];
  check_answer db "SELECT y FROM b EXCEPT SELECT x FROM a" [ row [ f 3.0 ] ];
  check_answer db "SELECT x FROM a UNION ALL SELECT y FROM b"
    [ row [ i 1 ]; row [ i 2 ]; row [ f 1.0 ]; row [ f 3.0 ] ]

let test_key_equality_grouping () =
  let db = mixed_db () in
  let both = "(SELECT x FROM a UNION ALL SELECT y FROM b) AS t(u)" in
  (* 1 and 1.0 form one group, keyed by its first value *)
  check_answer db ("SELECT u, count(*) FROM " ^ both ^ " GROUP BY u")
    [ row [ i 1; i 2 ]; row [ i 2; i 1 ]; row [ f 3.0; i 1 ] ];
  check_answer db ("SELECT DISTINCT u FROM " ^ both) [ row [ i 1 ]; row [ i 2 ]; row [ f 3.0 ] ];
  check_answer db ("SELECT count(DISTINCT u) FROM " ^ both) [ row [ i 3 ] ]

(* --- recursion --- *)

(* edges (1,2), (1,3), (2,4), (3,4), (4,5): two paths reach 4 and 5 *)
let diamond_db () =
  let db = Starburst.create () in
  List.iter (run db)
    [ "CREATE TABLE e (s INT, d INT)";
      "INSERT INTO e VALUES (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)"; "ANALYZE" ];
  db

let test_recursive_union_all () =
  let db = diamond_db () in
  let reach ~all ~seed =
    Printf.sprintf
      "WITH RECURSIVE r(n) AS (%s UNION%s SELECT e.d FROM r, e WHERE e.s = r.n) \
       SELECT n FROM r"
      seed (if all then " ALL" else "")
  in
  let ints = List.map (fun n -> row [ i n ]) in
  (* the seed is 1 twice (two edges leave 1): every path is a row *)
  check_answer db (reach ~all:true ~seed:"SELECT s FROM e WHERE s = 1")
    (ints [ 1; 1; 2; 3; 2; 3; 4; 4; 4; 4; 5; 5; 5; 5 ]);
  check_answer db (reach ~all:true ~seed:"SELECT DISTINCT s FROM e WHERE s = 1")
    (ints [ 1; 2; 3; 4; 4; 5; 5 ]);
  check_answer db (reach ~all:false ~seed:"SELECT s FROM e WHERE s = 1") (ints [ 1; 2; 3; 4; 5 ])

let test_cyclic_union_all_is_bounded () =
  let db = diamond_db () in
  run db "INSERT INTO e VALUES (5, 1)";
  run db "SET limit_intermediate_rows = 5000";
  let text =
    "WITH RECURSIVE r(n) AS (SELECT s FROM e WHERE s = 1 UNION ALL SELECT e.d \
     FROM r, e WHERE e.s = r.n) SELECT n FROM r"
  in
  let stage (e : Sb_resil.Err.t) = Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage in
  (match Starburst.run db text with
  | _ -> Alcotest.fail "expected a resource error"
  | exception Starburst.Error e -> Alcotest.(check string) "stage" "resource" (stage e));
  (match Sb_fuzz.Reference.run db text with
  | Sb_fuzz.Reference.Failed e -> Alcotest.(check string) "reference stage" "resource" (stage e)
  | _ -> Alcotest.fail "expected the reference to run out of rows");
  (* UNION terminates on the same cycle *)
  check_answer db
    "WITH RECURSIVE r(n) AS (SELECT s FROM e WHERE s = 1 UNION SELECT e.d FROM r, \
     e WHERE e.s = r.n) SELECT n FROM r"
    (List.map (fun n -> row [ i n ]) [ 1; 2; 3; 4; 5 ])

(* --- the producer helper --- *)

(* a step that pushes 2.5 batches' worth of rows per call: the rows
   come out in order, in full batches but the last, never in an empty
   batch, and through at most k + 1 batch objects (k = 3 batches touched
   per step) *)
let test_produce () =
  let module Batch = Sb_qes.Batch in
  let cap = Batch.capacity in
  let per_step = 5 * cap / 2 and steps = 4 in
  let em = Batch.emitter 1 in
  let next = ref 0 and calls = ref 0 in
  let out =
    Batch.produce em (fun () ->
        if !calls = steps then false
        else begin
          incr calls;
          for _ = 1 to per_step do
            Batch.push em [| i !next |];
            incr next
          done;
          true
        end)
  in
  let objects = ref [] and got = ref [] and sizes = ref [] in
  Seq.iter
    (fun b ->
      if not (List.memq b !objects) then objects := b :: !objects;
      sizes := Batch.count b :: !sizes;
      for j = 0 to Batch.count b - 1 do
        got := Batch.value b ~col:0 j :: !got
      done)
    out;
  let total = per_step * steps in
  check_rows "every row, in order"
    (List.init total (fun k -> row [ i k ]))
    (List.rev_map (fun v -> row [ v ]) !got);
  Alcotest.(check bool) "no empty batch" true (List.for_all (fun n -> n > 0) !sizes);
  Alcotest.(check (list int)) "full batches but the last"
    (List.init (total / cap) (fun _ -> cap))
    (List.rev !sizes);
  Alcotest.(check bool) "at most k + 1 batches" true (List.length !objects <= 4)

(* --- index access yields batches --- *)

let test_index_access_batched () =
  let db = key_join_db () in
  Starburst.bind_host db "k" (i 17);
  let report =
    match Starburst.run db ("EXPLAIN ANALYZE " ^ key_join_query) with
    | Starburst.Message m -> m
    | _ -> Alcotest.fail "expected explain output"
  in
  match List.filter (fun l -> contains ~sub:"IXSCAN(account" l) (String.split_on_char '\n' report) with
  | [ line ] -> Alcotest.(check bool) ("batches on " ^ line) true (contains ~sub:"batches=1" line)
  | _ -> Alcotest.failf "expected one IXSCAN(account...) line in\n%s" report


(* --- typed INT chunks --- *)

module Batch = Sb_qes.Batch
module Row_codec = Sb_storage.Row_codec

(* rows of (a INT, b STRING, c INT) with NULLs and the extreme ints *)
let typed_rows =
  List.init 2500 (fun k ->
      row
        [ (if k mod 7 = 3 then nul else if k mod 11 = 0 then i max_int
           else if k mod 13 = 0 then i min_int else i (k - 1250));
          s (Printf.sprintf "s%d" (k mod 5));
          (if k mod 5 = 0 then nul else i (k * 3)) ])

(* [f] on each batch a scan's emitter makes of [rows] (columns a and c
   INT chunks, b boxed, decoded through a sink as the scan does), while
   the batch is valid *)
let iter_typed_batches rows f =
  let sink = Row_codec.sink [| Row_codec.Unboxed; Row_codec.Boxed; Row_codec.Unboxed |] in
  let em = Batch.emitter ~ints:[| true; false; true |] 3 in
  let src = ref rows in
  Seq.iter f
    (Batch.produce em (fun () ->
         match !src with
         | [] -> false
         | r :: rest ->
           let record = Bytes.of_string (Row_codec.encode r) in
           Row_codec.decode_into sink record ~off:0 ~len:(Bytes.length record);
           Batch.push_sink em sink [| 0; 1; 2 |];
           src := rest;
           true))

(* every reader of an INT chunk agrees with the boxed rows, NULLs and
   the extreme ints included; batches cut at the capacity *)
let test_typed_chunk_reads () =
  let expected = Array.of_list typed_rows in
  let scratch = Array.make 3 nul and slots = Array.make 3 nul in
  let n = ref 0 and sizes = ref [] in
  iter_typed_batches typed_rows (fun b ->
      sizes := Batch.count b :: !sizes;
      Alcotest.(check (list bool)) "INT chunks" [ true; false; true ]
        (List.init 3 (fun col -> Batch.is_int b ~col));
      for j = 0 to Batch.count b - 1 do
        let want = expected.(!n) in
        incr n;
        check_rows "get" [ want ] [ Batch.get b j ];
        Batch.blit_row b j scratch;
        check_rows "blit_row" [ want ] [ Array.copy scratch ];
        Array.fill slots 0 3 nul;
        Batch.blit_slots b j slots [| 2 |];
        check_rows "blit_slots" [ row [ nul; nul; want.(2) ] ] [ Array.copy slots ];
        for col = 0 to 2 do
          Alcotest.check value_testable "value" want.(col) (Batch.value b ~col j);
          Alcotest.(check bool) "null_at" (want.(col) = nul) (Batch.null_at b ~col j);
          match want.(col) with
          | Sb_storage.Value.Int x when col <> 1 ->
            Alcotest.(check int) "int_at" x (Batch.int_at b ~col j)
          | _ -> ()
        done
      done);
  Alcotest.(check int) "every row" (List.length typed_rows) !n;
  Alcotest.(check (list int)) "cut at the capacity" [ 1024; 1024; 452 ] (List.rev !sizes)

(* [select] shares INT chunks; [keep] and [truncate] refine a typed
   batch's selection *)
let test_typed_chunk_select_keep () =
  let rows = List.filteri (fun k _ -> k < 1000) typed_rows in
  iter_typed_batches rows (fun b ->
      Alcotest.(check int) "one batch" 1000 (Batch.count b);
      Batch.keep b (fun j -> j mod 3 <> 1);
      let kept = List.filteri (fun k _ -> k mod 3 <> 1) rows in
      Alcotest.(check int) "kept" (List.length kept) (Batch.count b);
      List.iteri (fun j r -> check_rows "kept row" [ r ] [ Batch.get b j ]) kept;
      Batch.truncate b 10;
      Alcotest.(check int) "truncated" 10 (Batch.count b);
      let v = Batch.select b [| 2; 0 |] in
      Alcotest.(check (list bool)) "select keeps INT chunks" [ true; true ]
        (List.init 2 (fun col -> Batch.is_int v ~col));
      List.iteri
        (fun j r ->
          if j < 10 then check_rows "selected row" [ row [ r.(2); r.(0) ] ] [ Batch.get v j ])
        kept)

(* the join's emission moves INT chunks unboxed, and an INT chunk that
   meets a value it cannot hold turns boxed without losing a row *)
let test_typed_chunk_push_from () =
  let rows = List.filteri (fun k _ -> k < 600) typed_rows in
  iter_typed_batches rows @@ fun b ->
  let em = Batch.emitter 5 in
  Batch.reshape em [| true; false; true; true; false |];
  let inner k = if k = 300 then row [ f 2.5; s "x" ] else row [ i k; nul ] in
  let out = ref [] in
  let k = ref 0 in
  Seq.iter
    (fun ob ->
      for j = 0 to Batch.count ob - 1 do
        out := Batch.get ob j :: !out
      done)
    (Batch.produce em (fun () ->
         if !k >= Batch.count b then false
         else begin
           Batch.push_from em b !k (inner !k);
           incr k;
           true
         end));
  check_rows "rows through push_from"
    (List.mapi (fun k r -> Array.append r (inner k)) rows)
    (List.rev !out);
  match Batch.reshape em [| true |] with
  | () -> Alcotest.fail "reshape after a push"
  | exception Invalid_argument _ -> ()

(* --- growable batches --- *)

(* (a INT, b STRING, c INT): a's first NULL is row 3, inside the first
   16 rows, so its marks exist before the first doubling; c's first NULL
   is row 40, after two; both have NULLs on either side of every
   doubling and of the cut at 1024 *)
let growth_rows =
  let nulls_a = [ 3; 15; 16; 31; 32; 64; 200; 511; 512; 1023; 1024; 1030 ] in
  let nulls_c = [ 40; 63; 64; 128; 700; 1023; 1025 ] in
  List.init 1100 (fun k ->
      row
        [ (if List.mem k nulls_a then nul else i k);
          s (Printf.sprintf "g%d" k);
          (if List.mem k nulls_c then nul else i (-k)) ])

let test_growth_keeps_null_marks () =
  let expected = Array.of_list growth_rows in
  let n = ref 0 and sizes = ref [] in
  iter_typed_batches growth_rows (fun b ->
      sizes := Batch.count b :: !sizes;
      for j = 0 to Batch.count b - 1 do
        let want = expected.(!n) in
        incr n;
        check_rows (Printf.sprintf "row %d" (!n - 1)) [ want ] [ Batch.get b j ];
        for col = 0 to 2 do
          Alcotest.(check bool) "null_at" (want.(col) = nul) (Batch.null_at b ~col j)
        done
      done);
  Alcotest.(check int) "every row" 1100 !n;
  Alcotest.(check (list int)) "cut at the capacity" [ 1024; 76 ] (List.rev !sizes)

(* an INT chunk grown past its first 16 rows (NULL marks included) meets
   a FLOAT: the whole chunk turns boxed, every earlier row intact *)
let test_growth_then_box_chunk () =
  let n = 200 and float_at = 100 in
  let outer k = if k = 5 then row [ nul ] else row [ i k ] in
  let inner k =
    if k = float_at then row [ f 2.5 ] else if k = 7 || k = 150 then row [ nul ] else row [ i (k * 2) ]
  in
  let src = List.init n outer in
  let out = ref [] in
  Seq.iter
    (fun b ->
      let em = Batch.emitter 2 in
      Batch.reshape em [| true; true |];
      let k = ref 0 in
      Seq.iter
        (fun ob ->
          Alcotest.(check (list bool)) "column 0 stays an INT chunk, column 1 turned boxed"
            [ true; false ]
            (List.init 2 (fun col -> Batch.is_int ob ~col));
          for j = 0 to Batch.count ob - 1 do
            out := Batch.get ob j :: !out
          done)
        (Batch.produce em (fun () ->
             if !k >= Batch.count b then false
             else begin
               Batch.push_from em b !k (inner !k);
               incr k;
               true
             end)))
    (Batch.of_rows ~width:1 src);
  check_rows "rows through growth and box_chunk"
    (List.init n (fun k -> Array.append (outer k) (inner k)))
    (List.rev !out)

(* the owner batches of a computed PROJECT and of the width-0 PROJECT
   under count( * ) reserve room per input batch: around the first
   doubling and the cut at 1024 *)
let test_growth_owner_batches () =
  List.iter
    (fun n ->
      let db = Starburst.create () in
      run db "CREATE TABLE g (x INT)";
      run db
        ("INSERT INTO g VALUES "
        ^ String.concat ", " (List.init n (fun k -> Printf.sprintf "(%d)" k)));
      let _, v = check_reference (Printf.sprintf "computed project, %d rows" n) db
          "SELECT x + 1, x * 2 FROM g" in
      Alcotest.(check int) (Printf.sprintf "%d projected rows" n) n (List.length v);
      check_rows (Printf.sprintf "count(*) over %d rows" n) [ row [ i n ] ]
        (q db "SELECT count(*) FROM g"))
    [ 17; 1023; 1024; 1025 ]

(* a batch that grew to the capacity and came back as a spare is refilled
   without growing again: the later pulls allocate no column chunk *)
let test_spare_keeps_grown_room () =
  let cap = Batch.capacity and steps = 5 in
  let rows = Array.init cap (fun k -> row [ i k; s "x" ]) in
  let em = Batch.emitter 2 in
  let calls = ref 0 in
  let next =
    Seq.to_dispenser
      (Batch.produce em (fun () ->
           if !calls = steps then false
           else begin
             incr calls;
             Array.iter (Batch.push em) rows;
             true
           end))
  in
  let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8) in
  let pull () =
    let w0 = words () in
    match next () with
    | Some b ->
      Alcotest.(check int) "a full batch" cap (Batch.count b);
      words () -. w0
    | None -> Alcotest.fail "a batch per step"
  in
  let first = pull () in
  Alcotest.(check bool) "the first pull grows its batch" true (first > float_of_int (2 * cap));
  for _ = 2 to steps do
    let w = pull () in
    Alcotest.(check bool) (Printf.sprintf "a refill allocates %.0f words" w) true (w < 256.)
  done;
  Alcotest.(check bool) "exhausted" true (next () = None)

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
      case "EXPLAIN ANALYZE rows under batches" test_explain_analyze_rows_batched;
      case "batch lifetime: recycled batches" test_batch_lifetime;
      case "lazy SORT prefixes" test_sort_prefixes;
      case "compiled predicates agree with eval" test_compiled_predicates;
      case "unbound host variable over an empty table" test_unbound_host_over_empty_table;
      case "key equality: subqueries and joins, INT vs FLOAT" test_key_equality_subquery;
      case "key equality: set operations, INT vs FLOAT" test_key_equality_set_ops;
      case "key equality: GROUP BY and DISTINCT, INT vs FLOAT" test_key_equality_grouping;
      case "recursive UNION ALL keeps every path" test_recursive_union_all;
      case "cyclic recursive UNION ALL hits the governor" test_cyclic_union_all_is_bounded;
      case "produce: rows in order through k + 1 batches" test_produce;
      case "index access yields batches" test_index_access_batched;
      case "INT chunks read as the boxed rows" test_typed_chunk_reads;
      case "INT chunks under select, keep and truncate" test_typed_chunk_select_keep;
      case "INT chunks through the join's emission" test_typed_chunk_push_from;
      case "growth keeps INT chunks' NULL marks" test_growth_keeps_null_marks;
      case "growth, then a FLOAT boxes the INT chunk" test_growth_then_box_chunk;
      case "owner batches of PROJECT around the capacity" test_growth_owner_batches;
      case "a spare batch keeps its grown room" test_spare_keeps_grown_room;
    ] )
