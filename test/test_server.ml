(** Server tests: the one-table LRU plan cache (key normalization,
    eviction, epoch invalidation, exported counters) and the
    multi-session front end — concurrent sessions checked against a
    single-caller oracle, SET and host-variable isolation across
    sessions sharing one cache, DDL/ANALYZE epoch invalidation under
    concurrency, and the admission controller's reject, session-cap and
    load-shed paths (made deterministic with a latch function and
    seeded [Sb_resil.Faults]), and the one execution path: a statement
    runs on the submitting domain, and one that raises frees its
    admission slot. *)

open Test_util
module Server = Sb_server
module Lock = Sb_conc.Lock
module Err = Sb_resil.Err
module Faults = Sb_resil.Faults
module Plan_cache = Starburst.Plan_cache
module Functions = Sb_hydrogen.Functions
module Catalog = Sb_storage.Catalog
module Datatype = Sb_storage.Datatype
module Value = Sb_storage.Value

(* --- plan cache --------------------------------------------------- *)

let test_normalize () =
  let n = Plan_cache.normalize in
  Alcotest.(check string)
    "whitespace collapsed, lowercased, trailing ; dropped" "select x from t"
    (n "  SELECT   x\n\tFROM  T ;");
  Alcotest.(check string) "string literals keep their case"
    "select 'AbC' from t" (n "SELECT 'AbC' FROM t");
  Alcotest.(check bool) "equivalent spellings share one key" true
    (n "SELECT partno FROM t" = n "select  partno\nfrom T;");
  Alcotest.(check bool) "different literals stay distinct" true
    (n "SELECT 'a' FROM t" <> n "SELECT 'A' FROM t")

let test_lru_eviction () =
  let c : int Plan_cache.t = Plan_cache.create ~capacity:2 () in
  (* first sight: each key's plan is admitted on its next [add] *)
  List.iter (fun k -> Plan_cache.add c ~epoch:0 k 0) [ "a"; "b"; "c" ];
  Plan_cache.add c ~epoch:0 "a" 1;
  Plan_cache.add c ~epoch:0 "b" 2;
  ignore (Plan_cache.find c ~epoch:0 "a");
  (* [a] is now most recently used, so inserting a third key evicts [b] *)
  Plan_cache.add c ~epoch:0 "c" 3;
  let st = Plan_cache.stats c in
  Alcotest.(check int) "resident stays at capacity" 2 st.Plan_cache.resident;
  Alcotest.(check int) "one eviction" 1 st.Plan_cache.evictions;
  Alcotest.(check bool) "recently used key survives" true
    (Plan_cache.find c ~epoch:0 "a" = Some 1);
  Alcotest.(check bool) "LRU key evicted" true
    (Plan_cache.find c ~epoch:0 "b" = None);
  Alcotest.(check bool) "new key resident" true
    (Plan_cache.find c ~epoch:0 "c" = Some 3)

let test_epoch_invalidation () =
  let c : int Plan_cache.t = Plan_cache.create ~capacity:8 () in
  Plan_cache.add c ~epoch:0 "k" 1 (* first sight *);
  Plan_cache.add c ~epoch:0 "k" 1;
  Alcotest.(check bool) "hit at its compile epoch" true
    (Plan_cache.find c ~epoch:0 "k" = Some 1);
  Alcotest.(check bool) "stale epoch misses" true
    (Plan_cache.find c ~epoch:1 "k" = None);
  let st = Plan_cache.stats c in
  Alcotest.(check int) "invalidation counted" 1 st.Plan_cache.invalidations;
  Alcotest.(check int) "stale entry dropped" 0 st.Plan_cache.resident;
  Plan_cache.add c ~epoch:1 "k" 2;
  Alcotest.(check bool) "recompiled entry hits at the new epoch" true
    (Plan_cache.find c ~epoch:1 "k" = Some 2)

(* a key's first [add] only records it; its second inserts the plan *)
let test_admission_on_second_sight () =
  let c : int Plan_cache.t = Plan_cache.create ~capacity:8 () in
  Plan_cache.add c ~epoch:0 "k" 1;
  Alcotest.(check int) "first add: not resident" 0 (Plan_cache.stats c).Plan_cache.resident;
  Alcotest.(check bool) "first add: the lookup misses" true (Plan_cache.find c ~epoch:0 "k" = None);
  Plan_cache.add c ~epoch:0 "k" 2;
  Alcotest.(check int) "second add: resident" 1 (Plan_cache.stats c).Plan_cache.resident;
  Alcotest.(check bool) "second add: the lookup hits" true
    (Plan_cache.find c ~epoch:0 "k" = Some 2)

(* two distinct keys of one [Hashtbl.hash], found by a birthday search *)
let colliding_keys () =
  let seen = Hashtbl.create 100_000 in
  let rec go n =
    let k = Printf.sprintf "select %d" n in
    let h = Hashtbl.hash k in
    match Hashtbl.find_opt seen h with
    | Some k' -> (k', k)
    | None ->
      Hashtbl.add seen h k;
      go (n + 1)
  in
  go 0

(* a shared doorkeeper record admits the second key early, but the
   table is keyed by the full key: no lookup returns the other's plan *)
let test_doorkeeper_collision () =
  let a, b = colliding_keys () in
  let c : int Plan_cache.t = Plan_cache.create ~capacity:8 () in
  Plan_cache.add c ~epoch:0 a 1;
  Plan_cache.add c ~epoch:0 b 2;
  Alcotest.(check bool) "the colliding key is admitted on its first add" true
    (Plan_cache.find c ~epoch:0 b = Some 2);
  Alcotest.(check bool) "the first key is not served the other's plan" true
    (Plan_cache.find c ~epoch:0 a = None);
  Plan_cache.add c ~epoch:0 a 1;
  Alcotest.(check bool) "each key its own plan" true
    (Plan_cache.find c ~epoch:0 a = Some 1 && Plan_cache.find c ~epoch:0 b = Some 2)

(* a key of another hash than [k]'s whose doorkeeper slot is (or, when
   not [same], is not) [k]'s; the slot is the hash mod the size *)
let slot_of k = Hashtbl.hash k mod Plan_cache.doorkeeper_slots

let key_in_slot ~same k =
  let rec go n =
    let k' = Printf.sprintf "select %d from t" n in
    if (slot_of k' = slot_of k) = same && Hashtbl.hash k' <> Hashtbl.hash k then k'
    else go (n + 1)
  in
  go 0

(* the doorkeeper has [doorkeeper_slots] direct-mapped slots in a cache
   of any capacity: a key recorded in another slot keeps [k]'s record,
   one in [k]'s slot overwrites it *)
let test_doorkeeper_size_is_constant () =
  let (_ : ?capacity:int -> unit -> int Plan_cache.t) = Plan_cache.create in
  let k = "select k from t" in
  let other = key_in_slot ~same:false k and rival = key_in_slot ~same:true k in
  List.iter
    (fun capacity ->
      let admitted between =
        let c : int Plan_cache.t = Plan_cache.create ~capacity () in
        Plan_cache.add c ~epoch:0 k 1;
        Plan_cache.add c ~epoch:0 between 2;
        Plan_cache.add c ~epoch:0 k 1;
        Plan_cache.find c ~epoch:0 k = Some 1
      in
      Alcotest.(check bool)
        (Printf.sprintf "capacity %d: another slot keeps the record" capacity)
        true (admitted other);
      Alcotest.(check bool)
        (Printf.sprintf "capacity %d: the same slot overwrites it" capacity)
        false (admitted rival))
    [ 1; 8; 1024; 100_000 ]

(* a key whose entry a stale epoch drops is recorded again, so its
   recompile is admitted on the first add even when another key took
   its doorkeeper slot meanwhile *)
let test_invalidated_key_readmitted () =
  let k = "select k from t" in
  let rival = key_in_slot ~same:true k in
  let c : int Plan_cache.t = Plan_cache.create ~capacity:8 () in
  Plan_cache.add c ~epoch:0 k 1;
  Plan_cache.add c ~epoch:0 k 1;
  Plan_cache.add c ~epoch:0 rival 2 (* overwrites [k]'s record *);
  Alcotest.(check bool) "stale epoch misses" true (Plan_cache.find c ~epoch:1 k = None);
  Plan_cache.add c ~epoch:1 k 3;
  Alcotest.(check bool) "the recompile is admitted at once" true
    (Plan_cache.find c ~epoch:1 k = Some 3)

let test_cache_metrics () =
  (* a database whose cache holds one plan *)
  let db =
    {
      (Starburst.create ()) with
      Starburst.Corona.plan_cache = Plan_cache.create ~capacity:1 ();
    }
  in
  ignore (Starburst.run db "CREATE TABLE t (x INT)");
  let query text = ignore (Starburst.Corona.cached_query db text) in
  query "SELECT x FROM t";
  query "SELECT x FROM t";
  ignore (Starburst.run db "CREATE TABLE u (y INT)") (* a new epoch *);
  query "SELECT x FROM t";
  query "SELECT x + 1 FROM t" (* capacity 1: evicts the first *);
  let dump = Starburst.metrics_dump db in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~sub:needle dump))
    [
      "sb_plan_cache_hits_total";
      "sb_plan_cache_misses_total";
      "sb_plan_cache_invalidations_total";
      "sb_plan_cache_evictions_total";
    ]

(* --- server fixtures ---------------------------------------------- *)

let schema =
  [
    "CREATE TABLE quotations (partno INT NOT NULL, price FLOAT, order_qty \
     INT, supplier STRING)";
    "CREATE TABLE inventory (partno INT NOT NULL UNIQUE, onhand_qty INT, \
     type STRING)";
    "INSERT INTO quotations VALUES (1, 10.5, 100, 'acme'), (2, 20.0, 5, \
     'acme'), (3, 7.25, 50, 'globex'), (4, 99.0, 2, 'initech'), (1, 11.0, \
     30, 'globex')";
    "INSERT INTO inventory VALUES (1, 20, 'CPU'), (2, 500, 'CPU'), (3, 10, \
     'DISK'), (4, 1, 'CPU')";
    "ANALYZE";
  ]

let mix =
  [|
    "SELECT partno FROM quotations WHERE price < 15";
    "SELECT i.type, count(*) FROM quotations q, inventory i WHERE q.partno \
     = i.partno GROUP BY i.type";
    "SELECT DISTINCT supplier FROM quotations WHERE order_qty > 10";
    "SELECT partno FROM inventory WHERE type = 'CPU' ORDER BY partno";
    "SELECT count(*) FROM quotations WHERE partno IN (SELECT partno FROM \
     inventory WHERE onhand_qty > 15)";
  |]

let ok_exn = function
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected error: %s" (Err.to_string e)

let rows_exn outcome =
  match ok_exn outcome with
  | Starburst.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected a row-returning statement"

let fresh_server ?config ?install () =
  let server = Server.create ?config ?install () in
  let boot = Server.session server in
  List.iter
    (fun stmt -> ignore (ok_exn (Server.submit server boot stmt)))
    schema;
  Server.close_session server boot;
  server

(* the single-caller oracle: one plain handle, same schema and data *)
let oracle () =
  let db = Starburst.create () in
  List.iter (fun stmt -> ignore (Starburst.run db stmt)) schema;
  db

(* --- sessions vs the single caller -------------------------------- *)

let test_sessions_match_single_caller () =
  let server = fresh_server () in
  let odb = oracle () in
  let s1 = Server.session server and s2 = Server.session server in
  Array.iter
    (fun qtext ->
      let expect = Starburst.query odb qtext in
      List.iter
        (fun s -> check_bag qtext expect (rows_exn (Server.submit server s qtext)))
        [ s1; s2 ])
    mix;
  (* a second pass is all cache hits and still correct *)
  let before = (Server.stats server).Server.st_cache.Plan_cache.hits in
  Array.iter
    (fun qtext ->
      check_bag qtext (Starburst.query odb qtext)
        (rows_exn (Server.submit server s1 qtext)))
    mix;
  Alcotest.(check bool) "second pass hit the shared cache" true
    ((Server.stats server).Server.st_cache.Plan_cache.hits >= before + Array.length mix);
  Server.shutdown server

let test_concurrent_domains_match () =
  let server = fresh_server () in
  let adm0 = (Server.stats server).Server.st_admitted in
  let odb = oracle () in
  let expected = Array.map (fun qtext -> Starburst.query odb qtext) mix in
  let rounds = 25 in
  let worker i () =
    let s = Server.session server in
    let bad = ref 0 in
    for k = 0 to rounds - 1 do
      let qi = (i + k) mod Array.length mix in
      match Server.submit server s mix.(qi) with
      | Ok (Starburst.Rows { rows; _ }) when same_bag expected.(qi) rows -> ()
      | _ -> incr bad
    done;
    Server.close_session server s;
    !bad
  in
  let domains = Array.init 4 (fun i -> Domain.spawn (worker i)) in
  let bad = Array.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  Alcotest.(check int) "every concurrent result matches the single caller" 0
    bad;
  let st = Server.stats server in
  Alcotest.(check int) "all statements admitted" (4 * rounds)
    (st.Server.st_admitted - adm0);
  let c = (Server.stats server).Server.st_cache in
  Alcotest.(check bool) "the shared cache amortized compilation" true
    (c.Plan_cache.hits > c.Plan_cache.misses);
  Server.shutdown server

(* --- per-session state --------------------------------------------- *)

let test_set_isolation () =
  let server = fresh_server () in
  let s1 = Server.session server and s2 = Server.session server in
  ignore (ok_exn (Server.submit server s1 "SET limit_output_rows = 1"));
  (match Server.submit server s1 "SELECT partno FROM quotations" with
  | Error e ->
    Alcotest.(check string) "breach is a resource error" "resource"
      (Err.stage_name e.Err.err_stage)
  | Ok _ -> Alcotest.fail "session 1 should breach its output-row limit");
  (* the other session shares the cached plan but not the governor *)
  Alcotest.(check int) "session 2 is unlimited" 5
    (List.length (rows_exn (Server.submit server s2 "SELECT partno FROM quotations")));
  Server.shutdown server

let test_host_var_isolation () =
  let server = fresh_server () in
  let s1 = Server.session server and s2 = Server.session server in
  Starburst.bind_host (Server.session_db s1) "lim" (f 15.0);
  Starburst.bind_host (Server.session_db s2) "lim" (f 8.0);
  let qtext = "SELECT partno FROM quotations WHERE price < :lim" in
  (* first sight: the plan is admitted on the next execution *)
  ignore (rows_exn (Server.submit server s1 qtext));
  check_bag "session 1 binding"
    [ row [ i 1 ]; row [ i 1 ]; row [ i 3 ] ]
    (rows_exn (Server.submit server s1 qtext));
  check_bag "session 2 shares the plan, not the binding" [ row [ i 3 ] ]
    (rows_exn (Server.submit server s2 qtext));
  Alcotest.(check bool) "the second execution was a cache hit" true
    ((Server.stats server).Server.st_cache.Plan_cache.hits >= 1);
  Server.shutdown server

(* --- epoch invalidation -------------------------------------------- *)

let test_ddl_invalidates () =
  let server = fresh_server () in
  let s1 = Server.session server and s2 = Server.session server in
  let qtext = "SELECT partno FROM parts" in
  ignore (ok_exn (Server.submit server s1 "CREATE TABLE parts (partno INT)"));
  ignore (ok_exn (Server.submit server s1 "INSERT INTO parts VALUES (1), (2)"));
  check_bag "initial" [ row [ i 1 ]; row [ i 2 ] ]
    (rows_exn (Server.submit server s1 qtext));
  check_bag "cached" [ row [ i 1 ]; row [ i 2 ] ]
    (rows_exn (Server.submit server s1 qtext));
  let inv0 = (Server.stats server).Server.st_cache.Plan_cache.invalidations in
  ignore (ok_exn (Server.submit server s2 "DROP TABLE parts"));
  ignore (ok_exn (Server.submit server s2 "CREATE TABLE parts (partno INT)"));
  ignore (ok_exn (Server.submit server s2 "INSERT INTO parts VALUES (7)"));
  check_bag "no stale plan served after drop/recreate" [ row [ i 7 ] ]
    (rows_exn (Server.submit server s1 qtext));
  Alcotest.(check bool) "invalidation counted" true
    ((Server.stats server).Server.st_cache.Plan_cache.invalidations > inv0);
  let e0 = (Server.stats server).Server.st_epoch in
  ignore (ok_exn (Server.submit server s2 "ANALYZE"));
  Alcotest.(check bool) "ANALYZE bumps the statistics epoch" true
    ((Server.stats server).Server.st_epoch > e0);
  Server.shutdown server

let test_concurrent_invalidation () =
  let server = fresh_server () in
  let s = Server.session server in
  ignore (ok_exn (Server.submit server s "CREATE TABLE kv (k INT)"));
  let qtext = "SELECT count(*) FROM kv" in
  let stop = Atomic.make false in
  (* readers hammer the cached count while the writer interleaves
     inserts with single-table ANALYZE (each bumps the epoch); rows only
     ever get added, so any non-monotone count is a stale plan *)
  let reader () =
    let rs = Server.session server in
    let bad = ref 0 and last = ref 0 in
    while not (Atomic.get stop) do
      match Server.submit server rs qtext with
      | Ok (Starburst.Rows { rows = [ [| Value.Int n |] ]; _ }) ->
        if n < !last then incr bad;
        last := n
      | _ -> incr bad
    done;
    Server.close_session server rs;
    !bad
  in
  let readers = Array.init 2 (fun _ -> Domain.spawn reader) in
  for k = 1 to 20 do
    ignore
      (ok_exn
         (Server.submit server s (Printf.sprintf "INSERT INTO kv VALUES (%d)" k)));
    ignore (ok_exn (Server.submit server s "ANALYZE kv"))
  done;
  Atomic.set stop true;
  let bad = Array.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
  Alcotest.(check int) "readers only saw fresh, monotone counts" 0 bad;
  (match rows_exn (Server.submit server s qtext) with
  | [ [| Value.Int n |] ] -> Alcotest.(check int) "final count" 20 n
  | _ -> Alcotest.fail "expected one count row");
  Server.shutdown server

(* --- admission control --------------------------------------------- *)

(* A scalar [latch(x)] that parks the statement calling it until
   [release ()], so a test can observe the server with a statement
   genuinely in flight; [wait_entered ()] returns once one has entered
   it. *)
let latch () =
  (* level 95: the latch is taken from inside statement evaluation,
     below every product lock in the hierarchy *)
  let gate = Lock.create ~name:"test.gate" ~level:95 in
  let turn = Lock.Cond.create () in
  let entered = ref false and released = ref false in
  let latch_fn =
    {
      Functions.sf_name = "latch";
      sf_arity = Some 1;
      sf_type = (fun _ -> Ok (Some Datatype.Int));
      sf_eval =
        (fun _ args ->
          Lock.with_lock gate (fun () ->
              entered := true;
              Lock.Cond.broadcast turn;
              while not !released do
                Lock.Cond.wait turn gate
              done);
          List.hd args);
    }
  in
  let wait_entered () =
    Lock.with_lock gate (fun () ->
        while not !entered do
          Lock.Cond.wait turn gate
        done)
  in
  let release () =
    Lock.with_lock gate (fun () ->
        released := true;
        Lock.Cond.broadcast turn)
  in
  (latch_fn, wait_entered, release)

let test_admission_rejects_at_high_water () =
  let latch_fn, wait_entered, release = latch () in
  let config =
    { Server.max_inflight = 1; degrade_inflight = 1; session_inflight = 2 }
  in
  let server =
    Server.create ~config
      ~install:(fun db ->
        Functions.register_scalar db.Starburst.Corona.functions latch_fn)
      ()
  in
  let boot = Server.session server in
  ignore (ok_exn (Server.submit server boot "CREATE TABLE one (x INT)"));
  ignore (ok_exn (Server.submit server boot "INSERT INTO one VALUES (1)"));
  let s1 = Server.session server and s2 = Server.session server in
  let parked =
    Domain.spawn (fun () -> Server.submit server s1 "SELECT latch(x) FROM one")
  in
  wait_entered ();
  (* one statement is parked in flight: the next must bounce *)
  (match Server.submit server s2 "SELECT x FROM one" with
  | Error e ->
    Alcotest.(check bool) "rejection is retryable" true e.Err.err_retryable;
    Alcotest.(check string) "rejection is a resource error" "resource"
      (Err.stage_name e.Err.err_stage)
  | Ok _ -> Alcotest.fail "expected a rejection at the high-water mark");
  release ();
  Alcotest.(check int) "the parked statement completes" 1
    (List.length (rows_exn (Domain.join parked)));
  (* capacity freed: the bounced statement is admitted on retry *)
  Alcotest.(check int) "re-admitted after the flight drains" 1
    (List.length (rows_exn (Server.submit server s2 "SELECT x FROM one")));
  Alcotest.(check bool) "rejection counted" true
    ((Server.stats server).Server.st_rejected >= 1);
  Server.shutdown server

let test_session_cap () =
  let config =
    { Server.max_inflight = 8; degrade_inflight = 8; session_inflight = 0 }
  in
  let server = Server.create ~config () in
  let s = Server.session server in
  (match Server.submit server s "SELECT partno FROM quotations" with
  | Error e ->
    Alcotest.(check bool) "session-cap rejection is retryable" true
      e.Err.err_retryable
  | Ok _ -> Alcotest.fail "a zero session cap must reject");
  Server.shutdown server

let test_load_shedding () =
  let config =
    { Server.max_inflight = 8; degrade_inflight = 0; session_inflight = 4 }
  in
  let server = Server.create ~config () in
  let s = Server.session server in
  ignore (ok_exn (Server.submit server s "CREATE TABLE t (x INT)"));
  ignore (ok_exn (Server.submit server s "INSERT INTO t VALUES (1), (2), (3)"));
  check_bag "a shed (greedy, no-rewrite) plan still answers correctly"
    [ row [ i 2 ]; row [ i 3 ] ]
    (rows_exn (Server.submit server s "SELECT x FROM t WHERE x > 1"));
  Alcotest.(check bool) "statements past the threshold were shed" true
    ((Server.stats server).Server.st_shed >= 3);
  Alcotest.(check bool) "shedding is exported as a metric" true
    (match Server.meta server s "\\metrics" with
    | Some dump -> contains ~sub:"sb_server_shed_total" dump
    | None -> false);
  Server.shutdown server

(* --- faults and lifecycle ------------------------------------------ *)

let test_injected_fault_surfaces_structured () =
  let server = fresh_server () in
  let s = Server.session server in
  let faults = Faults.create ~seed:11 () in
  Faults.fail_nth faults ~outcome:Faults.Permanent ~site:"catalog.lookup" [ 1 ];
  Catalog.set_faults (Server.catalog server) faults;
  (match Server.submit server s "SELECT partno FROM inventory" with
  | Error e ->
    Alcotest.(check string) "injected fault surfaces as a storage error"
      "storage"
      (Err.stage_name e.Err.err_stage)
  | Ok _ -> Alcotest.fail "expected the injected fault to surface");
  Alcotest.(check int) "the session survives the fault" 4
    (List.length (rows_exn (Server.submit server s "SELECT partno FROM inventory")));
  Server.shutdown server

let test_session_lifecycle () =
  let server = fresh_server () in
  let s1 = Server.session server and s2 = Server.session server in
  Alcotest.(check int) "two open sessions" 2
    (List.length (Server.list_sessions server));
  Alcotest.(check bool) "ids are distinct" true
    (Server.session_id s1 <> Server.session_id s2);
  Server.close_session server s1;
  Alcotest.(check int) "one session left" 1
    (List.length (Server.list_sessions server));
  (match Server.submit server s1 "SELECT partno FROM inventory" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a closed session must not execute");
  Server.shutdown server;
  (match Server.submit server s2 "SELECT partno FROM inventory" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a shut-down server must not execute");
  match Server.session server with
  | exception _ -> ()
  | _ -> Alcotest.fail "a shut-down server must not open sessions"

(* --- reader/writer classification --------------------------------- *)

let test_read_only_predicate () =
  let read_only text = Starburst.Corona.read_only (Sb_hydrogen.Parser.statement text) in
  Alcotest.(check bool) "EXPLAIN INSERT writes" false
    (read_only "EXPLAIN INSERT INTO t VALUES (1)");
  Alcotest.(check bool) "EXPLAIN ANALYZE SELECT reads" true
    (read_only "EXPLAIN ANALYZE SELECT a FROM t");
  Alcotest.(check bool) "SET reads" true (read_only "SET rewrite = off");
  Alcotest.(check bool) "EXPLAIN RULES reads" true (read_only "EXPLAIN RULES");
  Alcotest.(check bool) "EXPLAIN CREATE TABLE writes" false
    (read_only "EXPLAIN CREATE TABLE u (a INT)")

(* EXPLAIN INSERT runs the INSERT, so concurrent sessions must serialize
   on the writer lock: under the reader lock their inserts race on the
   table's pages and its UNIQUE index *)
let test_explain_insert_writes () =
  let server = Server.create () in
  let boot = Server.session server in
  List.iter
    (fun stmt -> ignore (ok_exn (Server.submit server boot stmt)))
    [ "CREATE TABLE t (k INT NOT NULL UNIQUE, v STRING)"; "CREATE INDEX t_k ON t (k)" ];
  let sessions = 4 and per_session = 400 in
  let worker i () =
    let s = Server.session server in
    let failed = ref 0 in
    for j = 0 to per_session - 1 do
      let k = (i * per_session) + j in
      match
        Server.submit server s
          (Printf.sprintf "EXPLAIN INSERT INTO t VALUES (%d, 'row %d')" k k)
      with
      | Ok _ -> ()
      | Error _ -> incr failed
    done;
    Server.close_session server s;
    !failed
  in
  let domains = Array.init sessions (fun i -> Domain.spawn (worker i)) in
  let failed = Array.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  Alcotest.(check int) "every EXPLAIN INSERT succeeded" 0 failed;
  let total = sessions * per_session in
  Alcotest.(check int) "exact row count" total
    (match rows_exn (Server.submit server boot "SELECT count(*) FROM t") with
    | [ [| Value.Int n |] ] -> n
    | _ -> -1);
  ignore (ok_exn (Server.submit server boot "ANALYZE t"));
  let db = Server.session_db boot in
  let p = Starburst.prepare db "SELECT v FROM t WHERE k = :k" in
  Alcotest.(check bool) "the probe uses the index" true
    (contains ~sub:"IXSCAN" (Starburst.Plan.to_string p.Starburst.prep_plan));
  let found = ref 0 in
  for k = 0 to total - 1 do
    Starburst.bind_host db "k" (Value.Int k);
    match Starburst.execute_prepared db p with
    | [ [| Value.String v |] ] when v = Printf.sprintf "row %d" k -> incr found
    | _ -> ()
  done;
  Alcotest.(check int) "every key found through the index" total !found;
  Server.close_session server boot;
  Server.shutdown server

(* --- one registry, one meta-command table ---------------------------- *)

let test_default_config_admits () =
  let server = Server.create ~config:(Server.default_config ()) () in
  let s = Server.session server in
  ignore (ok_exn (Server.submit server s "CREATE TABLE t (x INT)"));
  ignore (ok_exn (Server.submit server s "INSERT INTO t VALUES (1), (2)"));
  check_bag "a default-config server answers"
    [ row [ i 1 ]; row [ i 2 ] ]
    (rows_exn (Server.submit server s "SELECT x FROM t"));
  Server.shutdown server

(* the value of the unlabelled sample [name] in a Prometheus dump *)
let sample dump name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' dump)
  |> Option.value ~default:0

let meta_exn server s cmd =
  match Server.meta server s cmd with
  | Some text -> text
  | None -> Alcotest.failf "%s was not taken as a meta-command" cmd

let test_one_registry_counts_commits () =
  let server = Server.create () in
  let s1 = Server.session server in
  ignore (ok_exn (Server.submit server s1 "CREATE TABLE t (x INT)"));
  ignore (ok_exn (Server.submit server s1 "INSERT INTO t VALUES (1)"));
  let s2 = Server.session server in
  ignore (ok_exn (Server.submit server s1 "INSERT INTO t VALUES (2)"));
  ignore (ok_exn (Server.submit server s1 "INSERT INTO t VALUES (3)"));
  let commits = (Server.wal_stats server).Sb_storage.Wal.s_commits in
  Alcotest.(check bool) "the inserts committed" true (commits >= 3);
  Alcotest.(check int) "the registry counts every commit once" commits
    (sample (Starburst.metrics_dump (Server.session_db s1)) "sb_wal_commits_total");
  Alcotest.(check string) "both sessions read the one registry"
    (Starburst.metrics_dump (Server.session_db s1))
    (Starburst.metrics_dump (Server.session_db s2));
  Server.shutdown server

let test_meta_table () =
  let server = fresh_server () in
  let s1 = Server.session server in
  let s2 = Server.session server in
  let output () = sample (meta_exn server s1 "\\metrics") "sb_exec_output_total" in
  let before = output () in
  Alcotest.(check int) "five quotations" 5
    (List.length (rows_exn (Server.submit server s1 "SELECT partno FROM quotations")));
  Alcotest.(check int) "four parts" 4
    (List.length (rows_exn (Server.submit server s2 "SELECT partno FROM inventory")));
  Alcotest.(check bool) "\\stats shows the asking session's statement" true
    (contains ~sub:"output=5" (meta_exn server s1 "\\stats")
    && contains ~sub:"output=4" (meta_exn server s2 "\\stats"));
  Alcotest.(check int) "\\metrics sums both sessions" 9 (output () - before);
  List.iter
    (fun (cmd, needle) ->
      Alcotest.(check bool) (cmd ^ " answers") true
        (contains ~sub:needle (meta_exn server s1 cmd)))
    [
      ("\\limits", "session limits");
      ("\\cache", "epoch");
      ("\\sessions", "(this session)");
      ("\\sessions", "admitted");
      ("\\wal", "commits");
      ("\\metrics", "sb_stage_duration_ns_bucket{stage=\"execute\"");
      ("\\locks", "");
      ("\\trace", "tracing is off");
      ("\\check", "catalog");
      ("\\rules", "fires/attempts");
      ("\\check SELECT partno FROM inventory;", "== VERIFY ==");
      ("\\infer SELECT partno FROM inventory", "== ANALYSIS");
      ("\\infer", "usage");
    ];
  Alcotest.(check string) "an unknown command is named"
    "unknown meta-command \\nope" (meta_exn server s1 "\\nope");
  Alcotest.(check bool) "a statement is not a meta-command" true
    (Server.meta server s1 "SELECT partno FROM inventory;" = None);
  List.iter
    (fun cmd ->
      Alcotest.(check bool) (cmd ^ " is refused") true
        (contains ~sub:"error: parse" (meta_exn server s1 cmd)))
    [
      "\\check DELETE FROM inventory;";
      "\\infer DROP TABLE inventory";
      "\\check SELECT partno FROM inventory; DELETE FROM inventory;";
    ];
  Alcotest.(check int) "\\check and \\infer leave the table whole" 4
    (List.length (rows_exn (Server.submit server s1 "SELECT partno FROM inventory")));
  Server.shutdown server

(* --- one database, many sessions ----------------------------------- *)

let test_install_runs_once () =
  let runs = ref 0 in
  let server = Server.create ~install:(fun _ -> incr runs) () in
  let s = Server.session server in
  for _ = 1 to 2 do ignore (Server.session server) done;
  ignore (ok_exn (Server.submit server s "CREATE TABLE t (x INT)"));
  Sb_storage.Recovery.crash ~catalog:(Server.catalog server);
  ignore (Server.recover server : Sb_storage.Recovery.stats);
  Alcotest.(check int) "one run for three sessions and a recovery" 1 !runs;
  Server.shutdown server

let test_registration_reaches_sessions () =
  let server = Server.create () in
  let s1 = Server.session server and s2 = Server.session server in
  Starburst.Extension.register_scalar_function (Server.session_db s1)
    {
      Functions.sf_name = "twice";
      sf_arity = Some 1;
      sf_type = (fun _ -> Ok (Some Datatype.Int));
      sf_eval = (fun _ -> function [ Value.Int n ] -> Value.Int (2 * n) | _ -> Value.Null);
    };
  ignore (ok_exn (Server.submit server s1 "CREATE TABLE t (x INT)"));
  ignore (ok_exn (Server.submit server s1 "INSERT INTO t VALUES (21)"));
  check_rows "session 2 calls session 1's function" [ row [ i 42 ] ]
    (rows_exn (Server.submit server s2 "SELECT twice(x) FROM t"));
  Server.shutdown server

let test_checkpoint_cadence_per_database () =
  let server = Server.create () in
  let a = Server.session server and b = Server.session server in
  ignore (ok_exn (Server.submit server a "SET wal_checkpoint = 2"));
  ignore (ok_exn (Server.submit server b "CREATE TABLE t (x INT)"));
  for k = 1 to 6 do
    ignore (ok_exn (Server.submit server b (Printf.sprintf "INSERT INTO t VALUES (%d)" k)))
  done;
  Alcotest.(check int) "six commits of B at A's cadence of 2" 3
    (Server.wal_stats server).Sb_storage.Wal.s_checkpoints;
  Server.shutdown server

let test_rule_counts_per_database () =
  let server = fresh_server () in
  let a = Server.session server and b = Server.session server in
  ignore (rows_exn (Server.submit server a "SELECT v.partno FROM (SELECT partno FROM inventory) v"));
  let fires =
    sample (meta_exn server b "\\metrics")
      "sb_rewrite_rule_fires_total{rule=\"merge_select\"}"
  in
  Alcotest.(check bool) "session A's SELECT fired merge_select" true (fires >= 1);
  let line =
    List.find
      (String.starts_with ~prefix:"merge_select ")
      (String.split_on_char '\n' (meta_exn server b "\\rules"))
  in
  Alcotest.(check bool) "EXPLAIN RULES on session B shows the same fires" true
    (contains ~sub:(Printf.sprintf " %d/" fires) line);
  Server.shutdown server

let test_pool_counters_in_metrics () =
  let server = fresh_server () in
  let s = Server.session server in
  ignore (rows_exn (Server.submit server s "SELECT partno FROM inventory"));
  let reads =
    (Sb_storage.Buffer_pool.stats (Server.catalog server).Catalog.pool)
      .Sb_storage.Buffer_pool.logical_reads
  in
  Alcotest.(check bool) "the scan read pages" true (reads > 0);
  Alcotest.(check int) "\\metrics mirrors the pool's logical reads" reads
    (sample (meta_exn server s "\\metrics") "sb_pool_logical_reads_total");
  Server.shutdown server

(* --- one execution path: the caller runs its statement --------------- *)

(* the server spawns no domain of its own: a statement submitted from a
   spawned domain evaluates its functions on that domain *)
let test_statement_runs_on_submitter () =
  let seen = ref [] in
  let whoami =
    {
      Functions.sf_name = "whoami";
      sf_arity = Some 1;
      sf_type = (fun _ -> Ok (Some Datatype.Int));
      sf_eval =
        (fun _ args ->
          seen := (Domain.self () :> int) :: !seen;
          List.hd args);
    }
  in
  let server =
    Server.create
      ~install:(fun db -> Functions.register_scalar db.Starburst.Corona.functions whoami)
      ()
  in
  let s = Server.session server in
  ignore (ok_exn (Server.submit server s "CREATE TABLE t (x INT)"));
  ignore (ok_exn (Server.submit server s "INSERT INTO t VALUES (1), (2)"));
  let client =
    Domain.spawn (fun () ->
        let rows = rows_exn (Server.submit server s "SELECT whoami(x) FROM t") in
        ((Domain.self () :> int), List.length rows))
  in
  let id, n = Domain.join client in
  Alcotest.(check int) "both rows answered" 2 n;
  Alcotest.(check bool) "the function ran" true (!seen <> []);
  Alcotest.(check (list int)) "every call ran on the submitting domain"
    (List.map (fun _ -> id) !seen) !seen;
  Alcotest.(check bool) "not on the main domain" true
    (id <> (Domain.self () :> int));
  Server.shutdown server

exception Udf_boom

(* an exception escaping a statement becomes a structured error, and the
   admission slots it took are given back; Corona classifies neither
   [Udf_boom] nor [Stack_overflow], so both reach [submit] raw *)
let test_raising_statement_releases_admission () =
  let raised = ref Udf_boom in
  let boom =
    {
      Functions.sf_name = "boom";
      sf_arity = Some 1;
      sf_type = (fun _ -> Ok (Some Datatype.Int));
      sf_eval = (fun _ _ -> raise !raised);
    }
  in
  let server =
    Server.create
      ~install:(fun db -> Functions.register_scalar db.Starburst.Corona.functions boom)
      ()
  in
  let s = Server.session server in
  ignore (ok_exn (Server.submit server s "CREATE TABLE t (x INT)"));
  ignore (ok_exn (Server.submit server s "INSERT INTO t VALUES (1)"));
  let text = "SELECT boom(x) FROM t" in
  List.iter
    (fun (exn, name) ->
      raised := exn;
      (match Server.submit server s text with
      | Error e ->
        Alcotest.(check (option string)) (name ^ ": the error names the statement")
          (Some text) e.Err.err_query;
        Alcotest.(check bool) (name ^ ": the error names the exception") true
          (contains ~sub:name e.Err.err_msg)
      | Ok _ -> Alcotest.fail "a raising function must fail its statement");
      Alcotest.(check int) (name ^ ": nothing in flight on the server") 0
        (Server.stats server).Server.st_inflight;
      Alcotest.(check (list (pair int int))) (name ^ ": nothing in flight in the session")
        [ (Server.session_id s, 0) ] (Server.list_sessions server);
      check_rows (name ^ ": the session answers its next statement") [ row [ i 1 ] ]
        (rows_exn (Server.submit server s "SELECT x FROM t")))
    [ (Udf_boom, "Udf_boom"); (Stack_overflow, "Stack overflow") ];
  Server.shutdown server

(* Every count a subsystem keeps for its own stats reaches [\metrics]
   with the value of those stats: the WAL's, the plan cache's and the
   admission controller's, after commits, an abort, a checkpoint, cache
   hits, misses and an invalidation, shed and rejected statements and a
   recovery. *)
let test_registry_agrees_with_stats () =
  let latch_fn, wait_entered, release = latch () in
  (* one statement in flight fills the server, and every admitted
     statement is shed *)
  let config =
    { Server.max_inflight = 1; degrade_inflight = 0; session_inflight = 1 }
  in
  let server =
    Server.create ~config
      ~install:(fun db -> Functions.register_scalar db.Starburst.Corona.functions latch_fn)
      ()
  in
  let s = Server.session server in
  let submit text = ignore (ok_exn (Server.submit server s text)) in
  submit "CREATE TABLE t (k INT NOT NULL UNIQUE)";
  submit "INSERT INTO t VALUES (1)";
  (match Server.submit server s "INSERT INTO t VALUES (1)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a UNIQUE collision must fail");
  submit "SET wal_checkpoint = 1";
  submit "INSERT INTO t VALUES (2)";
  submit "SELECT k FROM t" (* first sight *);
  submit "SELECT k FROM t";
  submit "SELECT k FROM t";
  submit "CREATE TABLE u (x INT)";
  submit "SELECT k FROM t";
  let s2 = Server.session server in
  let parked =
    Domain.spawn (fun () -> Server.submit server s2 "SELECT latch(k) FROM t")
  in
  wait_entered ();
  (match Server.submit server s "SELECT k FROM t" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a full server must reject");
  release ();
  Alcotest.(check int) "the parked statement completes" 2
    (List.length (rows_exn (Domain.join parked)));
  Sb_storage.Recovery.crash ~catalog:(Server.catalog server);
  ignore (Server.recover server : Sb_storage.Recovery.stats);
  let dump = meta_exn server s "\\metrics" in
  let wal = Server.wal_stats server in
  let cache = (Server.stats server).Server.st_cache in
  let st = Server.stats server in
  let module Wal = Sb_storage.Wal in
  let module Metrics = Sb_obs.Metrics in
  (* aborts have no home but the registry: Corona counts them at rollback *)
  let aborts =
    Metrics.counter_value
      (Metrics.counter (Starburst.metrics (Server.session_db s)) "sb_wal_aborts_total")
  in
  Alcotest.(check int) "one rolled-back INSERT" 1 aborts;
  List.iter
    (fun (name, v) ->
      Alcotest.(check int) name v (sample dump name);
      if name <> "sb_plan_cache_evictions_total" then
        Alcotest.(check bool) (name ^ " was exercised") true (v > 0))
    [
      ("sb_wal_appends_total", wal.Wal.s_appends);
      ("sb_wal_flushes_total", wal.Wal.s_flushes);
      ("sb_wal_records_flushed_total", wal.Wal.s_flushed_records);
      ("sb_wal_checkpoints_total", wal.Wal.s_checkpoints);
      ("sb_wal_commits_total", wal.Wal.s_commits);
      ("sb_wal_aborts_total", aborts);
      ("sb_plan_cache_hits_total", cache.Plan_cache.hits);
      ("sb_plan_cache_misses_total", cache.Plan_cache.misses);
      ("sb_plan_cache_evictions_total", cache.Plan_cache.evictions);
      ("sb_plan_cache_invalidations_total", cache.Plan_cache.invalidations);
      ("sb_server_admitted_total", st.Server.st_admitted);
      ("sb_server_shed_total", st.Server.st_shed);
      ("sb_server_rejected_total", st.Server.st_rejected);
    ];
  Alcotest.(check int) "one recovery run" 1 (sample dump "sb_recovery_runs_total");
  Server.shutdown server

let suite =
  ( "server",
    [
      case "plan cache: key normalization" test_normalize;
      case "plan cache: LRU eviction" test_lru_eviction;
      case "plan cache: epoch invalidation" test_epoch_invalidation;
      case "plan cache: exported counters" test_cache_metrics;
      case "sessions match the single caller" test_sessions_match_single_caller;
      case "concurrent domains match the single caller"
        test_concurrent_domains_match;
      case "SET variables are session-isolated" test_set_isolation;
      case "host variables are session-isolated, plans shared"
        test_host_var_isolation;
      case "DDL invalidates cached plans across sessions" test_ddl_invalidates;
      case "no stale plans under concurrent DDL/ANALYZE"
        test_concurrent_invalidation;
      case "admission rejects at the high-water mark"
        test_admission_rejects_at_high_water;
      case "per-session concurrency cap" test_session_cap;
      case "load shedding degrades, still answers" test_load_shedding;
      case "injected faults surface as structured errors"
        test_injected_fault_surfaces_structured;
      case "session lifecycle and shutdown" test_session_lifecycle;
      case "EXPLAIN of DML is a writer" test_read_only_predicate;
      case "concurrent EXPLAIN INSERT keeps the index whole"
        test_explain_insert_writes;
      case "the default config admits" test_default_config_admits;
      case "one registry counts WAL commits across sessions"
        test_one_registry_counts_commits;
      case "one meta-command table" test_meta_table;
      case "the installer runs once per server" test_install_runs_once;
      case "a registration reaches every session"
        test_registration_reaches_sessions;
      case "the checkpoint cadence is the database's"
        test_checkpoint_cadence_per_database;
      case "rule counts are the database's" test_rule_counts_per_database;
      case "pool counters in \\metrics" test_pool_counters_in_metrics;
      case "a statement runs on the domain that submits it"
        test_statement_runs_on_submitter;
      case "a raising statement is a structured error and frees its slot"
        test_raising_statement_releases_admission;
      case "the registry agrees with every stats record"
        test_registry_agrees_with_stats;
      case "plan cache: admission on second sight" test_admission_on_second_sight;
      case "plan cache: a doorkeeper collision never serves another key"
        test_doorkeeper_collision;
      case "plan cache: the doorkeeper's size is a constant"
        test_doorkeeper_size_is_constant;
      case "plan cache: an invalidated key is readmitted at once"
        test_invalidated_key_readmitted;
    ] )
