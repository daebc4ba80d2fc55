(** lib/conc tests: the Lock and Rwlock primitives, and the
    lock-discipline checker itself — strict-mode re-entrancy and
    unlock-without-lock, a seeded lock-order inversion (with the
    resulting acquisition-graph cycle), a seeded unprotected-field
    lockset race, armed two-domain interleavings over the real
    Plan_cache and Catalog that must stay silent, and DDL and DML that
    must never take the WAL lock under the buffer pool's. *)

module Lock = Sb_conc.Lock
module Rwlock = Sb_conc.Rwlock
module D = Sb_conc.Discipline
module Catalog = Sb_storage.Catalog
module Schema = Sb_storage.Schema
module Datatype = Sb_storage.Datatype
module Plan_cache = Starburst.Plan_cache
module Buffer_pool = Sb_storage.Buffer_pool
open Test_util

(* The checker's state is global.  Each discipline test runs inside
   [checked], which resets and arms the detector, then restores the
   session-wide armed state (the whole suite may be running under
   STARBURST_LOCKCHECK=1). *)
let checked ?(strict = false) f =
  let was = D.armed () in
  D.reset ();
  D.arm ~strict ();
  Fun.protect f ~finally:(fun () ->
      D.reset ();
      if was then D.arm () else D.disarm ())

(* --- locks release on raise ---------------------------------------- *)

let test_lock_released_on_raise () =
  checked @@ fun () ->
  let l = Lock.create ~name:"test.raise" ~level:95 in
  (try Lock.with_lock l (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (list string)) "held stack empty after raise" []
    (D.held_locks ());
  Lock.with_lock l (fun () -> ());
  let rw = Rwlock.create ~name:"test.raise_rw" ~level:95 in
  (try Rwlock.with_write rw (fun () -> failwith "boom")
   with Failure _ -> ());
  Rwlock.with_read rw (fun () -> ());
  let r, w, ww = Rwlock.stats rw in
  Alcotest.(check bool) "rwlock idle after raise" true
    (r = 0 && (not w) && ww = 0)

(* --- rwlock writer preference -------------------------------------- *)

let test_rwlock_writer_preference () =
  let rw = Rwlock.create ~name:"test.rw" ~level:95 in
  Rwlock.rd_lock rw;
  let w_done = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        Rwlock.wr_lock rw;
        Atomic.set w_done true;
        Rwlock.wr_unlock rw)
  in
  (* wait until the writer is parked behind our read lock *)
  while (let _, _, ww = Rwlock.stats rw in ww < 1) do
    Domain.cpu_relax ()
  done;
  (* a reader arriving now must queue behind the waiting writer *)
  let r_saw_w = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        Rwlock.rd_lock rw;
        Atomic.set r_saw_w (Atomic.get w_done);
        Rwlock.rd_unlock rw)
  in
  Rwlock.rd_unlock rw;
  Domain.join writer;
  Domain.join reader;
  Alcotest.(check bool) "late reader ran after the waiting writer" true
    (Atomic.get r_saw_w)

(* --- strict-mode discipline violations ------------------------------ *)

let test_strict_reentry () =
  checked ~strict:true @@ fun () ->
  let l = Lock.create ~name:"test.reentry" ~level:95 in
  Lock.lock l;
  (* strict mode diagnoses the self-deadlock instead of hanging *)
  (match Lock.lock l with
  | () -> Alcotest.fail "re-entrant lock was not diagnosed"
  | exception D.Violation d ->
    Alcotest.(check bool) "kind" true (d.D.d_kind = D.Reentry);
    Alcotest.(check string) "subject" "test.reentry" d.D.d_subject);
  Lock.unlock l;
  Alcotest.(check (list string)) "stack empty" [] (D.held_locks ())

let test_strict_unlock_unheld () =
  checked ~strict:true @@ fun () ->
  let l = Lock.create ~name:"test.unheld" ~level:95 in
  match Lock.unlock l with
  | () -> Alcotest.fail "unlock without lock was not diagnosed"
  | exception D.Violation d ->
    Alcotest.(check bool) "kind" true (d.D.d_kind = D.Unlock)

(* --- seeded lock-order inversion (negative test) -------------------- *)

let test_seeded_order_inversion () =
  checked @@ fun () ->
  let outer = Lock.create ~name:"test.inv_outer" ~level:50 in
  let inner = Lock.create ~name:"test.inv_inner" ~level:40 in
  (* wrong way around: 50 then 40 *)
  Lock.with_lock outer (fun () -> Lock.with_lock inner (fun () -> ()));
  (* right way around, closing the cycle in the acquisition graph *)
  Lock.with_lock inner (fun () -> Lock.with_lock outer (fun () -> ()));
  (match D.diags () with
  | [ d ] ->
    Alcotest.(check bool) "kind" true (d.D.d_kind = D.Order);
    Alcotest.(check bool) "names the acquired lock" true
      (contains ~sub:"test.inv_inner (level 40)" d.D.d_msg);
    Alcotest.(check bool) "names the held lock" true
      (contains ~sub:"test.inv_outer (level 50)" d.D.d_msg)
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 diagnosis, got %d"
                           (List.length ds)));
  (match D.cycles () with
  | [ cyc ] ->
    Alcotest.(check (list string)) "both locks on the cycle"
      [ "test.inv_inner"; "test.inv_outer" ]
      (List.sort compare cyc)
  | cys -> Alcotest.fail (Printf.sprintf "expected 1 cycle, got %d"
                            (List.length cys)));
  Alcotest.(check bool) "report renders the inversion" true
    (contains ~sub:"lock-order inversion reports: 1" (D.report_text ()))

(* --- seeded lockset race (negative test) ---------------------------- *)

let test_seeded_field_race () =
  checked @@ fun () ->
  let field = "test.race_field" in
  D.access ~field ~site:"seeded.ml:1" ~write:true;
  let other =
    Domain.spawn (fun () -> D.access ~field ~site:"seeded.ml:2" ~write:true)
  in
  Domain.join other;
  match D.diags () with
  | [ d ] ->
    Alcotest.(check bool) "kind" true (d.D.d_kind = D.Race);
    Alcotest.(check string) "subject is the field" field d.D.d_subject;
    Alcotest.(check bool) "names both sites" true
      (contains ~sub:"seeded.ml:1" d.D.d_msg && contains ~sub:"seeded.ml:2" d.D.d_msg)
  | ds ->
    Alcotest.fail (Printf.sprintf "expected 1 diagnosis, got %d"
                     (List.length ds))

(* the same sharing pattern under a common lock must stay silent *)
let test_locked_field_no_race () =
  checked @@ fun () ->
  let l = Lock.create ~name:"test.race_lock" ~level:95 in
  let field = "test.locked_field" in
  let touch site =
    Lock.with_lock l (fun () -> D.access ~field ~site ~write:true)
  in
  touch "seeded.ml:10";
  let other = Domain.spawn (fun () -> touch "seeded.ml:11") in
  Domain.join other;
  Alcotest.(check int) "no diagnosis" 0 (List.length (D.diags ()))

(* --- armed two-domain interleavings over real components ------------ *)

let test_plan_cache_two_domains () =
  checked @@ fun () ->
  let cache : int Plan_cache.t = Plan_cache.create ~capacity:8 () in
  let driver () =
    for i = 0 to 199 do
      let epoch = i / 50 in
      let key = Printf.sprintf "select %d" (i mod 12) in
      (match Plan_cache.find cache ~epoch key with
      | Some _ -> ()
      | None -> Plan_cache.add cache ~epoch key i);
      ignore (Plan_cache.stats cache)
    done
  in
  let doms = Array.init 2 (fun _ -> Domain.spawn driver) in
  Array.iter Domain.join doms;
  Alcotest.(check int) "LRU/epoch churn is race-free" 0
    (List.length (D.diags ()));
  Alcotest.(check bool) "the cache field was instrumented" true
    (contains ~sub:"plan_cache#" (D.report_text ()))

let test_catalog_epoch_two_domains () =
  checked @@ fun () ->
  let cat = Catalog.create () in
  ignore
    (Catalog.create_table cat ~name:"t"
       ~schema:[| Schema.column ~nullable:false "k" Datatype.Int |] ());
  let bumper () =
    for _ = 1 to 100 do
      Catalog.bump_epoch cat
    done
  in
  let looker () =
    for _ = 1 to 100 do
      ignore (Catalog.epoch cat);
      ignore (Catalog.find_table cat "t");
      ignore (Catalog.table_names cat)
    done
  in
  let b = Domain.spawn bumper and l = Domain.spawn looker in
  Domain.join b;
  Domain.join l;
  Alcotest.(check int) "epoch bumps vs lookups are race-free" 0
    (List.length (D.diags ()));
  Alcotest.(check bool) "epoch advanced" true (Catalog.epoch cat >= 100)


(* --- one lock-id space ----------------------------------------------- *)

(* Re-entrancy is detected by id.  An rwlock whose id equals a held
   lock's (as when each kind counted its own ids) read as re-acquiring
   that lock: this creates rwlocks until one's id reaches a fresh
   lock's, then nests them. *)
let test_lock_ids_distinct () =
  checked ~strict:true @@ fun () ->
  let l = Lock.create ~name:"test.ids_lock" ~level:90 in
  let rec reach () =
    let rw = Rwlock.create ~name:"test.ids_rw" ~level:20 in
    if rw.Rwlock.r_id >= l.Lock.l_id then rw else reach ()
  in
  let rw = reach () in
  Alcotest.(check bool) "distinct ids" true (rw.Rwlock.r_id <> l.Lock.l_id);
  Rwlock.with_read rw (fun () -> Lock.with_lock l (fun () -> ()));
  Rwlock.with_write rw (fun () -> Lock.with_lock l (fun () -> ()));
  Alcotest.(check (list string)) "no diagnosis" []
    (List.map (fun d -> d.D.d_msg) (D.diags ()))

(* --- per-instance fields ------------------------------------------- *)

(* Two buffer pools, each driven by its own domain under its own lock:
   two pools' frames and statistics are different fields, so there is
   no race to report. *)
let test_two_pools_no_race () =
  checked @@ fun () ->
  let drive () =
    let pool = Buffer_pool.create ~capacity:4 () in
    let file = Buffer_pool.create_file pool in
    for k = 0 to 63 do
      if k < 16 then ignore (Buffer_pool.alloc_page pool file);
      Buffer_pool.with_page pool file (k mod 16) ignore;
      ignore (Buffer_pool.page_count pool file)
    done
  in
  let doms = Array.init 2 (fun _ -> Domain.spawn drive) in
  Array.iter Domain.join doms;
  Alcotest.(check (list string)) "no race" []
    (List.map (fun d -> d.D.d_msg) (D.diags ()));
  Alcotest.(check bool) "pool fields were instrumented" true
    (contains ~sub:"buffer_pool.stats#" (D.report_text ()))

(* --- the pool never takes the WAL lock ------------------------------ *)

(* Durability is the log's alone: the buffer pool reads nothing from the
   WAL, so no DDL or DML path acquires the WAL lock while holding the
   pool's. *)
let test_pool_never_takes_wal_lock () =
  checked @@ fun () ->
  let db = Starburst.create () in
  List.iter
    (fun text -> ignore (Starburst.run db text))
    [
      "SET wal_checkpoint = 1";
      "CREATE TABLE acct (k INT UNIQUE, v INT)";
      "CREATE INDEX acct_v ON acct (v)";
      "INSERT INTO acct VALUES (1, 10), (2, 20), (3, 30)";
      "UPDATE acct SET v = v + 1 WHERE k < 3";
      "DELETE FROM acct WHERE k = 2";
    ];
  Alcotest.(check int) "the statements ran" 2
    (List.length (q db "SELECT k FROM acct"));
  Alcotest.(check bool) "no buffer_pool -> wal edge" false
    (List.mem ("storage.buffer_pool", "storage.wal") (D.edges ()))

let suite =
  ( "conc",
    [
      Alcotest.test_case "locks released on raise" `Quick
        test_lock_released_on_raise;
      Alcotest.test_case "rwlock writer preference" `Quick
        test_rwlock_writer_preference;
      Alcotest.test_case "strict re-entrancy" `Quick test_strict_reentry;
      Alcotest.test_case "strict unlock without lock" `Quick
        test_strict_unlock_unheld;
      Alcotest.test_case "seeded lock-order inversion" `Quick
        test_seeded_order_inversion;
      Alcotest.test_case "seeded lockset race" `Quick test_seeded_field_race;
      Alcotest.test_case "locked field stays silent" `Quick
        test_locked_field_no_race;
      Alcotest.test_case "plan cache, two domains, armed" `Quick
        test_plan_cache_two_domains;
      Alcotest.test_case "catalog epoch, two domains, armed" `Quick
        test_catalog_epoch_two_domains;
      Alcotest.test_case "a lock and an rwlock never share an id" `Quick
        test_lock_ids_distinct;
      Alcotest.test_case "two pools, two domains, no race" `Quick
        test_two_pools_no_race;
      Alcotest.test_case "the buffer pool never takes the WAL lock" `Quick
        test_pool_never_takes_wal_lock;
    ] )
