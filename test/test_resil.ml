(** Resilience tests: the limit taxonomy and governor (finite
    intermediate-row default, pinned breach messages, deadline on a fake
    clock, session usability after a breach), the zero-budget rewrite
    contract, deterministic fault injection with retries and metrics,
    graceful degradation (broken rule, blown plan-node budget) surfaced
    by EXPLAIN, and a seeded chaos table over the whole pipeline. *)

open Test_util
module Err = Sb_resil.Err
module Limits = Sb_resil.Limits
module Faults = Sb_resil.Faults
module Qgm = Sb_qgm.Qgm
module Check = Sb_qgm.Check
module Engine = Sb_rewrite.Engine
module Rule = Sb_rewrite.Rule

(* --- limits ------------------------------------------------------- *)

let test_default_limits () =
  let l = Limits.default () in
  Alcotest.(check int)
    "intermediate rows default is finite" 10_000_000 l.Limits.max_intermediate_rows;
  Alcotest.(check int) "output rows unlimited" 0 l.Limits.max_output_rows;
  Alcotest.(check int) "operator calls unlimited" 0 l.Limits.max_operator_calls;
  Alcotest.(check int) "no deadline" 0 l.Limits.deadline_ms;
  Alcotest.(check int) "plan nodes unlimited" 0 l.Limits.max_plan_nodes;
  let u = Limits.unlimited () in
  Alcotest.(check int) "unlimited intermediate" 0 u.Limits.max_intermediate_rows

let test_set_by_name () =
  let l = Limits.unlimited () in
  Alcotest.(check bool) "limit_ prefix accepted" true
    (Limits.set l "limit_output_rows" 5 = Ok ());
  Alcotest.(check int) "value stored" 5 l.Limits.max_output_rows;
  Alcotest.(check bool) "max_ prefix accepted" true
    (Limits.set l "max_deadline_ms" 100 = Ok ());
  Alcotest.(check int) "deadline stored" 100 l.Limits.deadline_ms;
  Alcotest.(check bool) "bare name accepted" true
    (Limits.set l "plan_nodes" 7 = Ok ());
  Alcotest.(check bool) "unknown name rejected" true
    (match Limits.set l "bogus" 1 with Error _ -> true | Ok () -> false);
  Alcotest.(check bool) "negative value rejected" true
    (match Limits.set l "output_rows" (-1) with Error _ -> true | Ok () -> false)

(* the pinned breach-message format: "limit max_<name> exceeded (<n>)" *)
let expect_resource_error ~msg db text =
  match Starburst.run db text with
  | _ -> Alcotest.failf "expected a resource error for: %s" text
  | exception Starburst.Error e ->
    Alcotest.(check string) "stage" "resource" (Err.stage_name e.Err.err_stage);
    Alcotest.(check string) "message" msg e.Err.err_msg
  | exception e ->
    Alcotest.failf "expected Starburst.Error, got %s" (Printexc.to_string e)

let test_intermediate_row_limit () =
  let db = sample_db () in
  ignore (Starburst.run db "SET limit_intermediate_rows = 100");
  expect_resource_error ~msg:"limit max_intermediate_rows exceeded (100)" db
    "SELECT q1.partno FROM quotations q1, quotations q2, quotations q3, \
     quotations q4";
  (* the breach left the session usable *)
  ignore (Starburst.run db "SET limit_intermediate_rows = 0");
  Alcotest.(check int) "session usable after breach" 4
    (List.length (q db "SELECT partno FROM inventory"))

let test_output_row_limit () =
  let db = sample_db () in
  ignore (Starburst.run db "SET limit_output_rows = 2");
  expect_resource_error ~msg:"limit max_output_rows exceeded (2)" db
    "SELECT partno FROM inventory";
  Alcotest.(check int) "small results still fit" 1
    (List.length (q db "SELECT partno FROM inventory WHERE partno = 1"))

let test_operator_call_limit () =
  let db = sample_db () in
  ignore (Starburst.run db "SET limit_operator_calls = 1");
  expect_resource_error ~msg:"limit max_operator_calls exceeded (1)" db
    "SELECT q.partno FROM quotations q, inventory i WHERE q.partno = i.partno"

let test_deadline_fake_clock () =
  let l = Limits.unlimited () in
  l.Limits.deadline_ms <- 5;
  let now = ref 0L in
  let gov = Limits.start ~now:(fun () -> !now) l in
  Limits.check_deadline gov;
  (* 4 ms in: still fine *)
  now := 4_000_000L;
  Limits.charge_op gov;
  (* 6 ms in: over budget *)
  now := 6_000_000L;
  (match Limits.check_deadline gov with
  | () -> Alcotest.fail "deadline should have expired"
  | exception Err.Error e ->
    Alcotest.(check string) "stage" "resource" (Err.stage_name e.Err.err_stage);
    Alcotest.(check string) "message" "limit deadline_ms exceeded (5)"
      e.Err.err_msg);
  Alcotest.(check bool) "elapsed tracks the fake clock" true
    (Limits.elapsed_ns gov = 6_000_000L)

let test_consumption () =
  let l = Limits.unlimited () in
  l.Limits.max_output_rows <- 10;
  let gov = Limits.start ~now:(fun () -> 0L) l in
  Limits.charge_row gov;
  Limits.charge_row gov;
  Limits.charge_output gov;
  Limits.charge_plan_nodes gov 3;
  let find name =
    let name', used, limit =
      List.find (fun (n, _, _) -> n = name) (Limits.consumption gov)
    in
    ignore name';
    (used, limit)
  in
  Alcotest.(check (pair int int)) "intermediate rows" (2, 0)
    (find "intermediate_rows");
  Alcotest.(check (pair int int)) "output rows" (1, 10) (find "output_rows");
  Alcotest.(check (pair int int)) "plan nodes" (3, 0) (find "plan_nodes")

(* --- zero rewrite budget ------------------------------------------ *)

let test_zero_budget_untouched_qgm () =
  let db = sample_db () in
  let wq =
    Starburst.parse db
      "SELECT q.partno FROM quotations q WHERE q.partno IN (SELECT partno \
       FROM inventory WHERE type = 'CPU')"
  in
  let g = Starburst.build_qgm db wq in
  let boxes_before = Hashtbl.length g.Qgm.boxes in
  let stats =
    Engine.run ~budget:0 ~rules:(Rule.all db.Starburst.Corona.rules) g
  in
  Alcotest.(check bool) "budget exhausted" true stats.Engine.budget_exhausted;
  Alcotest.(check int) "nothing fired" 0 stats.Engine.rules_fired;
  Alcotest.(check int) "nothing examined" 0 stats.Engine.rules_examined;
  Alcotest.(check int) "box count unchanged" boxes_before
    (Hashtbl.length g.Qgm.boxes);
  Alcotest.(check (list string)) "QGM still consistent" [] (Check.check g)

(* --- fault injection ---------------------------------------------- *)

let test_fail_nth_retries () =
  let faults = Faults.create ~seed:1 () in
  Faults.fail_nth faults ~site:"x" [ 2 ];
  let calls = ref 0 in
  let f () = incr calls in
  Faults.guard faults ~site:"x" f;
  (* consult #1: clean *)
  Faults.guard faults ~site:"x" f;
  (* consult #2 faults, #3 retries clean *)
  Alcotest.(check int) "f ran on both guard calls" 2 !calls;
  Alcotest.(check int) "one fault injected" 1 (Faults.injected faults);
  Alcotest.(check int) "one retry" 1 (Faults.retried faults);
  Alcotest.(check bool) "virtual clock advanced, nothing slept" true
    (Faults.vclock_ns faults > 0L)

let test_permanent_fault () =
  let faults = Faults.create () in
  Faults.fail_nth faults ~outcome:Faults.Permanent ~site:"y" [ 1 ];
  match Faults.guard faults ~site:"y" (fun () -> ()) with
  | () -> Alcotest.fail "permanent fault should raise"
  | exception Err.Error e ->
    Alcotest.(check string) "stage" "storage" (Err.stage_name e.Err.err_stage);
    Alcotest.(check bool) "not retryable" false e.Err.err_retryable;
    Alcotest.(check int) "no retries for permanent faults" 0
      (Faults.retried faults)

let test_transient_fault_exhausts_retries () =
  let faults = Faults.create ~max_retries:2 () in
  Faults.fail_nth faults ~site:"z" [ 1; 2; 3 ];
  match Faults.guard faults ~site:"z" (fun () -> ()) with
  | () -> Alcotest.fail "persistent transient fault should raise"
  | exception Err.Error e ->
    Alcotest.(check string) "stage" "storage" (Err.stage_name e.Err.err_stage);
    Alcotest.(check bool) "retryable" true e.Err.err_retryable;
    Alcotest.(check int) "both retries consumed" 2 (Faults.retried faults)

let test_fault_metrics () =
  let faults = Faults.create () in
  let metrics = Sb_obs.Metrics.create () in
  Faults.set_metrics faults metrics;
  Faults.fail_nth faults ~site:"m" [ 1 ];
  Faults.guard faults ~site:"m" (fun () -> ());
  let dump = Sb_obs.Metrics.dump metrics in
  Alcotest.(check bool) "injection counter in dump" true
    (contains ~sub:"sb_faults_injected_total" dump);
  Alcotest.(check bool) "retry counter in dump" true
    (contains ~sub:"sb_fault_retries_total" dump)

let test_storage_fault_recovered () =
  let db = sample_db () in
  let faults = Faults.create ~seed:3 () in
  Faults.fail_nth faults ~site:"catalog.lookup" [ 1 ];
  Faults.fail_nth faults ~site:"heap.page" [ 1 ];
  Starburst.Corona.set_faults db faults;
  Alcotest.(check int) "query survives injected transient faults" 4
    (List.length (q db "SELECT partno FROM inventory"));
  Alcotest.(check bool) "faults were actually injected" true
    (Faults.injected faults >= 1);
  Starburst.Corona.set_faults db Faults.none

(* --- graceful degradation ----------------------------------------- *)

let test_rewrite_degradation () =
  let db = sample_db () in
  Rule.add db.Starburst.Corona.rules
    (Rule.make ~name:"broken_rule" ~rule_class:"test"
       ~condition:(fun _ -> true)
       ~action:(fun _ -> failwith "boom")
       ());
  let rows =
    q db
      "SELECT q.partno FROM quotations q WHERE q.partno IN (SELECT partno \
       FROM inventory WHERE type = 'CPU')"
  in
  Alcotest.(check int) "query still answered from the canonical QGM" 4
    (List.length rows);
  (match Starburst.Corona.last_degraded db with
  | Some reason ->
    Alcotest.(check bool) "reason names the rewrite failure" true
      (contains ~sub:"rewrite failed" reason && contains ~sub:"boom" reason)
  | None -> Alcotest.fail "expected a degradation record");
  match Starburst.run db "EXPLAIN SELECT partno FROM inventory WHERE type = 'CPU'" with
  | Starburst.Message s ->
    Alcotest.(check bool) "EXPLAIN shows the degradation" true
      (contains ~sub:"degraded: rewrite failed" s)
  | _ -> Alcotest.fail "EXPLAIN should return a message"

let test_plan_budget_degradation () =
  let db = sample_db () in
  ignore (Starburst.run db "SET limit_plan_nodes = 1");
  let rows =
    q db
      "SELECT q.partno FROM quotations q, inventory i WHERE q.partno = \
       i.partno"
  in
  Alcotest.(check int) "query answered by the greedy fallback" 5
    (List.length rows);
  match Starburst.Corona.last_degraded db with
  | Some reason ->
    Alcotest.(check bool) "reason names the blown plan budget" true
      (contains ~sub:"optimize failed" reason && contains ~sub:"max_plan_nodes" reason)
  | None -> Alcotest.fail "expected a degradation record"

(* --- chaos table --------------------------------------------------- *)

let chaos_corpus =
  [
    "SELECT q.partno, q.price FROM quotations q WHERE q.partno IN (SELECT \
     partno FROM inventory WHERE type = 'CPU') AND q.price < 50";
    "SELECT i.type, count(*) FROM quotations q, inventory i WHERE q.partno = \
     i.partno GROUP BY i.type";
    "SELECT partno FROM inventory UNION SELECT partno FROM quotations";
    "SELECT partno FROM quotations WHERE price > (SELECT min(price) FROM \
     quotations) ORDER BY partno";
  ]

let test_chaos_table () =
  (* the 20 fault seeds are drawn from the fuzzer's splittable PRNG
     under one pinned root seed, the same stream discipline the fuzz
     harness uses, so this table and `fuzz_main --seed` share one
     reproducibility story *)
  let root = Sb_fuzz.Sprng.create 42 in
  let seeds =
    List.init 20 (fun _ -> 1 + Sb_fuzz.Sprng.int (Sb_fuzz.Sprng.split root) 999_983)
  in
  List.iter (fun seed ->
    let db = sample_db () in
    db.Starburst.Corona.paranoid <- true;
    let faults = Faults.create ~seed () in
    Faults.fail_prob faults 0.05;
    Starburst.Corona.set_faults db faults;
    List.iter
      (fun text ->
        match Starburst.run db text with
        | _ -> ()
        | exception Starburst.Error _ -> () (* structured failure is fine *)
        | exception e ->
          Alcotest.failf "seed %d: unstructured exception %s for %s" seed
            (Printexc.to_string e) text)
      chaos_corpus;
    (* the session must stay usable once the faults are lifted *)
    Starburst.Corona.set_faults db Faults.none;
    db.Starburst.Corona.paranoid <- false;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: sanity query after chaos" seed)
      4
      (List.length (q db "SELECT partno FROM inventory")))
    seeds

(* --- structured boundary errors ------------------------------------ *)

let test_error_classification () =
  let db = sample_db () in
  let stage_of text =
    match Starburst.run db text with
    | _ -> Alcotest.failf "expected an error for: %s" text
    | exception Starburst.Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "query text attached for %s" text)
        true
        (e.Err.err_query = Some text);
      Err.stage_name e.Err.err_stage
    | exception e ->
      Alcotest.failf "expected Starburst.Error for %s, got %s" text
        (Printexc.to_string e)
  in
  Alcotest.(check string) "parse failures" "parse"
    (stage_of "SELEKT 1 FROM inventory");
  Alcotest.(check string) "semantic failures" "semantic"
    (stage_of "SELECT nope FROM inventory");
  Alcotest.(check string) "unknown table" "semantic"
    (stage_of "SELECT x FROM no_such_table");
  Alcotest.(check string) "execution failures" "exec"
    (stage_of
       "SELECT partno FROM inventory WHERE onhand_qty = (SELECT partno FROM \
        quotations)")

let suite =
  ( "resil",
    [
      case "default limits: finite intermediate rows" test_default_limits;
      case "set limits by name" test_set_by_name;
      case "intermediate-row limit breach (pinned message)"
        test_intermediate_row_limit;
      case "output-row limit breach" test_output_row_limit;
      case "operator-call limit breach" test_operator_call_limit;
      case "deadline on a fake clock" test_deadline_fake_clock;
      case "governor consumption report" test_consumption;
      case "zero rewrite budget leaves QGM untouched"
        test_zero_budget_untouched_qgm;
      case "fail_nth injects and retries" test_fail_nth_retries;
      case "permanent faults do not retry" test_permanent_fault;
      case "transient fault exhausts retries" test_transient_fault_exhausts_retries;
      case "fault counters reach metrics" test_fault_metrics;
      case "storage faults recovered end to end" test_storage_fault_recovered;
      case "rewrite failure degrades to canonical plan" test_rewrite_degradation;
      case "blown plan budget degrades to greedy" test_plan_budget_degradation;
      case "chaos table: 20 seeds, 5% storage faults" test_chaos_table;
      case "boundary errors are classified by stage" test_error_classification;
    ] )
