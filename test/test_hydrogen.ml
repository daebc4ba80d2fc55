(** Tests for the Hydrogen language front end: lexer, parser,
    pretty-printer round-trips, and the function registry. *)

open Sb_hydrogen
open Test_util

let parse_ok text =
  match Parser.statement text with
  | s -> s
  | exception Parser.Parse_error (msg, _) -> Alcotest.failf "parse failed: %s (%s)" msg text

let roundtrips text =
  let ast = parse_ok text in
  let printed = Pretty.statement_to_string ast in
  let ast2 =
    match Parser.statement printed with
    | s -> s
    | exception Parser.Parse_error (msg, _) ->
      Alcotest.failf "re-parse failed: %s\n  printed: %s" msg printed
  in
  if ast <> ast2 then Alcotest.failf "round-trip changed AST for: %s\n  printed: %s" text printed

(* Printed-query fixture table: each pair pins the pretty-printer's
   exact output for one input, and the printed text must re-parse to the
   same AST.  These anchor the printer formats the fuzzer's round-trip
   oracle relies on (negative-literal parenthesisation, LIKE pattern
   quoting, float literals, canonical aggregate calls). *)
let printed_fixtures =
  [
    ( "SELECT -3 AS a, - (4) AS b, -2.5 AS c FROM t",
      "SELECT -3 AS a, (- (4)) AS b, -2.5 AS c FROM t" );
    ( "SELECT a FROM t WHERE name LIKE 'o''k%'",
      "SELECT a FROM t WHERE (name LIKE 'o''k%')" );
    ( "SELECT count(*), count(DISTINCT a), sum(a), min(b) FROM t",
      "SELECT count(*), count(DISTINCT a), sum(a), min(b) FROM t" );
    ( "SELECT a FROM t WHERE a BETWEEN -2 AND 4",
      "SELECT a FROM t WHERE (a BETWEEN -2 AND 4)" );
    ( "SELECT a FROM t LEFT OUTER JOIN u ON t.x = u.y",
      "SELECT a FROM t LEFT OUTER JOIN u ON (t.x = u.y)" );
    ( "SELECT a FROM t RIGHT JOIN u ON TRUE",
      "SELECT a FROM t RIGHT OUTER JOIN u ON TRUE" );
    ( "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.x = t.x)",
      "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE (u.x = t.x))" );
    ( "SELECT a FROM t WHERE a >= ALL (SELECT b FROM u)",
      "SELECT a FROM t WHERE (a >= ALL (SELECT b FROM u))" );
    ( "SELECT a FROM t WHERE NOT (a IN (1, NULL, 3))",
      "SELECT a FROM t WHERE (NOT (a IN (1, NULL, 3)))" );
    ( "SELECT d, count(*) FROM t GROUP BY d HAVING count(*) > 2",
      "SELECT d, count(*) FROM t GROUP BY d HAVING (count(*) > 2)" );
    ( "SELECT DISTINCT a FROM t ORDER BY 1 DESC LIMIT 6",
      "SELECT DISTINCT a FROM t ORDER BY 1 DESC LIMIT 6" );
    ( "SELECT CASE WHEN a IS NULL THEN 'n' ELSE b END AS c FROM t",
      "SELECT CASE WHEN (a IS NULL) THEN 'n' ELSE b END AS c FROM t" );
    ( "WITH v AS (SELECT a FROM t) SELECT * FROM v",
      "WITH v AS (SELECT a FROM t)\nSELECT * FROM v" );
    ( "(SELECT a FROM t) UNION ALL (SELECT b FROM u)",
      "(SELECT a FROM t) UNION ALL (SELECT b FROM u)" );
    ( "SELECT a FROM (SELECT b AS a FROM u) AS v",
      "SELECT a FROM (SELECT b AS a FROM u) AS v" );
    ( "SELECT 1.5 AS x, 0.25 AS y, 'm m' AS z FROM t",
      "SELECT 1.5 AS x, 0.25 AS y, 'm m' AS z FROM t" );
    ( "SELECT a FROM t WHERE a = (SELECT max(b) FROM u WHERE u.k = t.k)",
      "SELECT a FROM t WHERE (a = (SELECT max(b) FROM u WHERE (u.k = t.k)))"
    );
    ( "SELECT a + b * c - d AS e FROM t",
      "SELECT ((a + (b * c)) - d) AS e FROM t" );
    ( "SELECT a FROM t WHERE a / 2 = 3 AND b % 2 = 1",
      "SELECT a FROM t WHERE (((a / 2) = 3) AND ((b % 2) = 1))" );
    ( "SELECT a FROM t WHERE x IS NOT NULL OR y = FALSE",
      "SELECT a FROM t WHERE ((NOT (x IS NULL)) OR (y = FALSE))" );
    ( "SELECT t.a AS x FROM t, u WHERE t.k = u.k ORDER BY x",
      "SELECT t.a AS x FROM t, u WHERE (t.k = u.k) ORDER BY x" );
    ( "SELECT a || 'z' AS s FROM t", "SELECT (a || 'z') AS s FROM t" );
    ( "SELECT a FROM t WHERE b = :host_var",
      "SELECT a FROM t WHERE (b = :host_var)" );
  ]

let test_printed_fixtures () =
  List.iter
    (fun (input, expected) ->
      let ast = parse_ok input in
      let printed = Pretty.statement_to_string ast in
      Alcotest.(check string) input expected printed;
      if parse_ok printed <> ast then
        Alcotest.failf "printed text re-parses differently: %s" printed)
    printed_fixtures

let corpus =
  [
    "SELECT 1 + 2 * 3 AS x FROM t";
    "SELECT a, b FROM t WHERE a < b AND NOT (a = 3 OR b IS NULL)";
    "SELECT * FROM t1, t2 WHERE t1.a = t2.b";
    "SELECT t.* FROM t";
    "SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 3";
    "SELECT a FROM t WHERE a IN (1, 2, 3)";
    "SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE u.c = t.c)";
    "SELECT a FROM t WHERE EXISTS (SELECT * FROM u)";
    "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.x = t.x)";
    "SELECT a FROM t WHERE a > ALL (SELECT b FROM u)";
    "SELECT a FROM t WHERE a = ANY (SELECT b FROM u)";
    "SELECT a FROM t WHERE a = majority (SELECT b FROM u)";
    "SELECT a FROM t WHERE a BETWEEN 1 AND 10";
    "SELECT a FROM t WHERE name LIKE 'ab%_c'";
    "SELECT a FROM t WHERE a = (SELECT max(b) FROM u)";
    "SELECT count(*), sum(a), avg(DISTINCT b) FROM t";
    "SELECT d, count(*) FROM t GROUP BY d HAVING count(*) > 2";
    "SELECT CASE WHEN a > 0 THEN 'p' WHEN a < 0 THEN 'n' ELSE 'z' END FROM t";
    "SELECT a FROM (SELECT b AS a FROM u) AS v";
    "SELECT a FROM (SELECT b FROM u) AS v (a)";
    "SELECT x FROM sample(t, 10) AS s";
    "SELECT x FROM f((SELECT a FROM t), 3) AS s";
    "SELECT a FROM t JOIN u ON t.x = u.y";
    "SELECT a FROM t LEFT OUTER JOIN u ON t.x = u.y WHERE t.z > 0";
    "SELECT a FROM t RIGHT JOIN u ON t.x = u.y";
    "(SELECT a FROM t) UNION (SELECT b FROM u)";
    "(SELECT a FROM t) UNION ALL (SELECT b FROM u)";
    "(SELECT a FROM t) INTERSECT (SELECT b FROM u)";
    "(SELECT a FROM t) EXCEPT (SELECT b FROM u)";
    "SELECT x FROM ((SELECT a AS x FROM t) UNION (SELECT b FROM u)) AS w";
    "WITH v AS (SELECT a FROM t) SELECT * FROM v";
    "WITH v (x) AS (SELECT a FROM t), w AS (SELECT x FROM v) SELECT * FROM w";
    "WITH RECURSIVE r (n) AS ((SELECT a FROM t) UNION (SELECT n + 1 FROM r WHERE n < 5)) SELECT * FROM r";
    "VALUES (1, 'x'), (2, 'y')";
    "SELECT a FROM t WHERE b = :host_var";
    "INSERT INTO t (a, b) VALUES (1, 2)";
    "INSERT INTO t SELECT a, b FROM u WHERE a > 0";
    "UPDATE t SET a = a + 1, b = 'x' WHERE c < 0";
    "DELETE FROM t WHERE a IS NOT NULL";
    "CREATE TABLE t (a INT NOT NULL UNIQUE, b STRING, c FLOAT NOT NULL)";
    "CREATE TABLE t (a INT) USING fixed";
    "CREATE INDEX ix ON t (a, b) USING btree";
    "CREATE VIEW v AS SELECT a FROM t WHERE a > 0";
    "DROP TABLE t";
    "DROP VIEW v";
    "DROP INDEX ix ON t";
    "ANALYZE";
    "ANALYZE t";
    "SET rewrite = off";
    "EXPLAIN SELECT a FROM t";
    "EXPLAIN QGM SELECT a FROM t";
    "EXPLAIN PLAN SELECT a FROM t";
    "EXPLAIN DOT SELECT a FROM t";
    "SELECT a FROM t WHERE -a = -(3) AND a % 2 = 1 AND s || 'x' = 'yx'";
  ]

let test_roundtrip_corpus () = List.iter roundtrips corpus

let test_lexer () =
  let toks = Lexer.tokenize "SELECT 'it''s' , 1.5e2 :v -- comment\n /* multi \n line */ <>" in
  let kinds = List.map (fun { Lexer.tok; _ } -> tok) toks in
  Alcotest.(check bool) "tokens" true
    (kinds
    = [
        Lexer.IDENT "SELECT"; Lexer.STRING "it's"; Lexer.SYM ","; Lexer.FLOAT 150.0;
        Lexer.HOSTVAR "v"; Lexer.SYM "<>"; Lexer.EOF;
      ])

let test_lex_errors () =
  Alcotest.(check bool) "unterminated string" true
    (match Lexer.tokenize "'abc" with
    | _ -> false
    | exception Lexer.Lex_error _ -> true);
  Alcotest.(check bool) "unterminated comment" true
    (match Lexer.tokenize "/* abc" with
    | _ -> false
    | exception Lexer.Lex_error _ -> true);
  Alcotest.(check bool) "bad char" true
    (match Lexer.tokenize "a ~ b" with
    | _ -> false
    | exception Lexer.Lex_error _ -> true)

let test_parse_errors () =
  let bad =
    [
      "SELECT";
      "SELECT FROM t";
      "SELECT a FROM";
      "SELECT a FROM t WHERE";
      "SELECT a FROM t GROUP";
      "SELECT a FROM (SELECT b FROM u)";  (* missing alias *)
      "INSERT t VALUES (1)";
      "CREATE TABLE t";
      "SELECT a FROM t LIMIT x";
      "WITH v AS SELECT a FROM t SELECT * FROM v";
    ]
  in
  List.iter
    (fun text ->
      match Parser.statement text with
      | _ -> Alcotest.failf "expected parse error: %s" text
      | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> ())
    bad

let test_precedence () =
  let e q = match parse_ok ("SELECT " ^ q ^ " FROM t") with
    | Ast.Stmt_query { Ast.with_body = Ast.Select { Ast.sel_items = [ Ast.Item (e, _) ]; _ }; _ } -> e
    | _ -> Alcotest.fail "unexpected shape"
  in
  Alcotest.(check bool) "mul before add" true
    (e "1 + 2 * 3" = Ast.Bin (Ast.Add, Ast.Lit (Sb_storage.Value.Int 1),
                              Ast.Bin (Ast.Mul, Ast.Lit (Sb_storage.Value.Int 2), Ast.Lit (Sb_storage.Value.Int 3))));
  Alcotest.(check bool) "and before or" true
    (match e "a OR b AND c" with Ast.Bin (Ast.Or, _, Ast.Bin (Ast.And, _, _)) -> true | _ -> false);
  Alcotest.(check bool) "cmp before and" true
    (match e "a = 1 AND b = 2" with
    | Ast.Bin (Ast.And, Ast.Bin (Ast.Eq, _, _), Ast.Bin (Ast.Eq, _, _)) -> true
    | _ -> false)

let test_script () =
  let stmts = Parser.script "SELECT a FROM t; SELECT b FROM u; ANALYZE" in
  Alcotest.(check int) "three statements" 3 (List.length stmts)

let test_conjuncts () =
  let e = Ast.Bin (Ast.And, Ast.Bin (Ast.And, Ast.Col (None, "a"), Ast.Col (None, "b")), Ast.Col (None, "c")) in
  Alcotest.(check int) "three conjuncts" 3 (List.length (Ast.conjuncts e))

(* --- function registry --- *)

let test_builtin_scalars () =
  let fns = Functions.create () in
  let eval name args =
    match Functions.find_scalar fns name with
    | Some f -> f.Functions.sf_eval (Sb_storage.Datatype.create_registry ()) args
    | None -> Alcotest.failf "missing builtin %s" name
  in
  Alcotest.check value_testable "abs" (i 5) (eval "abs" [ i (-5) ]);
  Alcotest.check value_testable "abs null" nul (eval "abs" [ nul ]);
  Alcotest.check value_testable "upper" (s "AB") (eval "upper" [ s "ab" ]);
  Alcotest.check value_testable "length" (i 3) (eval "length" [ s "abc" ]);
  Alcotest.check value_testable "substr" (s "bc") (eval "substr" [ s "abcd"; i 2; i 2 ]);
  Alcotest.check value_testable "substr clamp" (s "d") (eval "substr" [ s "abcd"; i 4; i 9 ]);
  Alcotest.check value_testable "coalesce" (i 2) (eval "coalesce" [ nul; i 2; i 3 ]);
  Alcotest.check value_testable "mod" (i 1) (eval "mod" [ i 7; i 3 ]);
  Alcotest.check value_testable "mod by zero" nul (eval "mod" [ i 7; i 0 ])

(* sum: Int over ints, Float once any input is a float (in either
   order, continuing from the int total), NULL over no non-NULL input *)
let test_sum_fixture () =
  let fns = Functions.create () in
  let shown = function
    | Sb_storage.Value.Int x -> Printf.sprintf "Int %d" x
    | Sb_storage.Value.Float x -> Printf.sprintf "Float %h" x
    | v -> Sb_storage.Value.to_string v
  in
  let sum values =
    match Functions.find_aggregate fns "sum" with
    | Some f ->
      let inst = f.Functions.af_make (Sb_storage.Datatype.create_registry ()) in
      (* the executor steps non-NULL arguments only *)
      List.iter
        (fun v -> if not (Sb_storage.Value.is_null v) then inst.Functions.agg_step v)
        values;
      inst.Functions.agg_result ()
    | None -> Alcotest.fail "missing aggregate sum"
  in
  List.iter
    (fun (what, input, expect) ->
      Alcotest.(check string) what (shown expect) (shown (sum input)))
    [
      ("ints", [ i 1; i 2; i 3 ], i 6);
      ("ints cancelling", [ i (-4); i 4 ], i 0);
      ("int then float", [ i 1; f 2.5 ], f 3.5);
      ("float then int", [ f 2.5; i 1 ], f 3.5);
      ("float between ints", [ i 1; f 0.5; i 2 ], f 3.5);
      ("floats", [ f 0.25; f 0.5 ], f 0.75);
      ("one -0.0 keeps its sign", [ f (-0.0) ], f (-0.0));
      ("NULLs among ints", [ nul; i 2; nul; i 3 ], i 5);
      ("all NULL", [ nul; nul ], nul);
      ("empty", [], nul);
    ];
  (* and through the executor and the reference evaluator, grouped and
     keyless *)
  let db = Starburst.create () in
  List.iter
    (fun stmt -> ignore (Starburst.run db stmt))
    [ "CREATE TABLE sn (g INT, x INT, y FLOAT)";
      "INSERT INTO sn VALUES (1, NULL, NULL), (2, 3, NULL), (2, 4, 0.5)" ];
  let shown_rows rows = List.map (fun r -> List.map shown (Array.to_list r)) rows in
  List.iter
    (fun (what, text, expect) ->
      Alcotest.(check (list (list string))) what expect (shown_rows (q db text));
      Alcotest.(check (list (list string))) (what ^ ", reference") expect
        (shown_rows (reference_rows db text)))
    [ ( "grouped",
        "SELECT g, sum(x), sum(y) FROM sn GROUP BY g ORDER BY g",
        [ [ "Int 1"; "NULL"; "NULL" ]; [ "Int 2"; "Int 7"; "Float 0x1p-1" ] ] );
      ("empty input", "SELECT sum(x), sum(y) FROM sn WHERE g > 2", [ [ "NULL"; "NULL" ] ]) ]

let test_builtin_aggregates () =
  let fns = Functions.create () in
  let run name values =
    match Functions.find_aggregate fns name with
    | Some f ->
      let inst = f.Functions.af_make (Sb_storage.Datatype.create_registry ()) in
      List.iter inst.Functions.agg_step values;
      inst.Functions.agg_result ()
    | None -> Alcotest.failf "missing aggregate %s" name
  in
  Alcotest.check value_testable "sum int" (i 6) (run "sum" [ i 1; i 2; i 3 ]);
  Alcotest.check value_testable "sum mixed" (f 6.5) (run "sum" [ i 1; f 2.5; i 3 ]);
  Alcotest.check value_testable "sum empty" nul (run "sum" []);
  Alcotest.check value_testable "count" (i 3) (run "count" [ i 1; i 1; i 2 ]);
  Alcotest.check value_testable "avg" (f 2.0) (run "avg" [ i 1; i 2; i 3 ]);
  Alcotest.check value_testable "min" (i 1) (run "min" [ i 3; i 1; i 2 ]);
  Alcotest.check value_testable "max" (i 3) (run "max" [ i 3; i 1; i 2 ])

let test_function_typing () =
  let fns = Functions.create () in
  (match Functions.find_scalar fns "abs" with
  | Some f ->
    Alcotest.(check bool) "abs int type" true
      (f.Functions.sf_type [ Some Sb_storage.Datatype.Int ] = Ok (Some Sb_storage.Datatype.Int));
    Alcotest.(check bool) "abs string rejected" true
      (Result.is_error (f.Functions.sf_type [ Some Sb_storage.Datatype.String ]))
  | None -> Alcotest.fail "abs missing");
  Alcotest.(check bool) "aggregate detection" true (Functions.is_aggregate fns "count");
  Alcotest.(check bool) "not aggregate" false (Functions.is_aggregate fns "abs")

let suite =
  ( "hydrogen",
    [
      case "round-trip corpus" test_roundtrip_corpus;
      case "printed fixtures" test_printed_fixtures;
      case "lexer" test_lexer;
      case "lexer errors" test_lex_errors;
      case "parse errors" test_parse_errors;
      case "precedence" test_precedence;
      case "script" test_script;
      case "conjuncts" test_conjuncts;
      case "builtin scalars" test_builtin_scalars;
      case "builtin aggregates" test_builtin_aggregates;
      case "sum result types" test_sum_fixture;
      case "function typing" test_function_typing;
    ] )
