(** Shared helpers for the test suites. *)

open Sb_storage

let value_testable : Value.t Alcotest.testable =
  Alcotest.testable (fun ppf v -> Value.pp ppf v) (fun a b -> Value.compare a b = 0)

let tuple_testable : Tuple.t Alcotest.testable =
  Alcotest.testable Tuple.pp (fun a b -> Tuple.compare a b = 0)

(** Bag (multiset) equality of result sets, order-insensitive. *)
let same_bag (a : Tuple.t list) (b : Tuple.t list) =
  let sort = List.sort Tuple.compare in
  List.equal (fun x y -> Tuple.compare x y = 0) (sort a) (sort b)

let check_bag msg expected actual =
  if not (same_bag expected actual) then
    Alcotest.failf "%s:\nexpected %s\nactual   %s" msg
      (String.concat " " (List.map Tuple.to_string (List.sort Tuple.compare expected)))
      (String.concat " " (List.map Tuple.to_string (List.sort Tuple.compare actual)))

let check_rows msg expected actual =
  Alcotest.(check (list tuple_testable)) msg expected actual

(** [contains ~sub s]: [sub] occurs in [s]. *)
let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* row constructors *)
let i x = Value.Int x
let f x = Value.Float x
let s x = Value.String x
let b x = Value.Bool x
let nul = Value.Null
let row l : Tuple.t = Array.of_list l

(** A database pre-loaded with the standard test schema and data. *)
let sample_db ?(extensions = false) () =
  let db = Starburst.create () in
  if extensions then begin
    Sb_extensions.Outer_join.install db;
    Sb_extensions.Spatial.install db;
    Sb_extensions.Sampling.install db;
    Sb_extensions.Majority.install db;
    Sb_extensions.Stats_fns.install db
  end;
  let ddl =
    [
      "CREATE TABLE quotations (partno INT NOT NULL, price FLOAT, order_qty INT, supplier STRING)";
      "CREATE TABLE inventory (partno INT NOT NULL UNIQUE, onhand_qty INT, type STRING)";
      "CREATE TABLE dept (id INT NOT NULL UNIQUE, dname STRING, region STRING)";
      "CREATE TABLE emp (eid INT, dept INT, salary FLOAT)";
      "CREATE TABLE edges (src INT, dst INT)";
      "INSERT INTO quotations VALUES (1, 10.5, 100, 'acme'), (2, 20.0, 5, 'acme'), \
       (3, 7.25, 50, 'globex'), (4, 99.0, 2, 'initech'), (1, 11.0, 30, 'globex')";
      "INSERT INTO inventory VALUES (1, 20, 'CPU'), (2, 500, 'CPU'), (3, 10, 'DISK'), (4, 1, 'CPU')";
      "INSERT INTO dept VALUES (1,'eng','west'),(2,'sales','east'),(3,'legal','west'),(4,'empty','east')";
      "INSERT INTO emp VALUES (10,1,100.0),(11,1,120.0),(12,2,90.0),(13,1,95.0),(14,3,150.0)";
      "INSERT INTO edges VALUES (1,2),(2,3),(3,4),(5,6)";
      "ANALYZE";
    ]
  in
  List.iter (fun stmt -> ignore (Starburst.run db stmt)) ddl;
  db

let q db text = Starburst.query db text

(** The benchmark's oltp key join in small: [account] (2000 rows, k
    unique, 100 branches) and [branch] (100 rows), each indexed on its
    key, and {!key_join_query} joining one probed account to its
    branch. *)
let key_join_db () =
  let db = Starburst.create () in
  let run s = ignore (Starburst.run db s) in
  run "CREATE TABLE account (k INT NOT NULL UNIQUE, owner STRING, balance INT, branch INT)";
  run "CREATE TABLE branch (b INT NOT NULL UNIQUE, bname STRING, city STRING)";
  run
    ("INSERT INTO account VALUES "
    ^ String.concat ","
        (List.init 2000 (fun k -> Printf.sprintf "(%d, 'o%d', %d, %d)" k k (k * 3) (k mod 100))));
  run
    ("INSERT INTO branch VALUES "
    ^ String.concat "," (List.init 100 (fun b -> Printf.sprintf "(%d, 'b%d', 'c%d')" b b (b mod 5))));
  run "CREATE INDEX account_k ON account (k)";
  run "CREATE INDEX branch_b ON branch (b)";
  run "ANALYZE";
  db

let key_join_query =
  "SELECT a.balance, b.bname, b.city FROM account a, branch b WHERE a.k = :k \
   AND a.branch = b.b"

(** The reference evaluator's rows for [text] ({!Sb_fuzz.Reference});
    fails the test when it errs or does not interpret the query. *)
let reference_rows db text =
  match Sb_fuzz.Reference.run db text with
  | Sb_fuzz.Reference.Rows rows -> rows
  | Sb_fuzz.Reference.Failed e ->
    Alcotest.failf "%s\n  reference failed: %s" text (Sb_resil.Err.to_string e)
  | Sb_fuzz.Reference.Unsupported msg ->
    Alcotest.failf "%s\n  reference: unsupported %s" text msg

(** Expects a query to raise any Starburst-stack error. *)
let expect_error db text =
  match Starburst.run db text with
  | _ -> Alcotest.failf "expected an error for: %s" text
  | exception
      ( Starburst.Error _ | Sb_qgm.Builder.Semantic_error _
      | Sb_hydrogen.Parser.Parse_error _ | Sb_hydrogen.Lexer.Lex_error _
      | Sb_optimizer.Generator.Unsupported _
      | Sb_hydrogen.Functions.Function_error _ ) ->
    ()

let case name fn = Alcotest.test_case name `Quick fn
