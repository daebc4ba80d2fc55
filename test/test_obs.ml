(** Observability tests: span nesting and timing monotonicity, the ring
    buffer bound, log-scale histogram bucketing, the no-op tracer fast
    path, the metrics dump (including the executor's c_* counters and
    per-rule rewrite firings), and an integration test asserting that
    EXPLAIN ANALYZE's actual row counts match the Rows result on a
    parts_supply-style query. *)

open Test_util
module Trace = Sb_obs.Trace
module Metrics = Sb_obs.Metrics
module Engine = Sb_rewrite.Engine

(* --- spans --- *)

let test_span_nesting () =
  let tr = Trace.create () in
  let v =
    Trace.with_span tr "outer" (fun () ->
        Trace.with_span tr "inner1" (fun () -> ());
        Trace.with_span tr "inner2" ~attrs:[ ("k", "v") ] (fun () -> 42))
  in
  Alcotest.(check int) "value returned" 42 v;
  let spans = Trace.spans tr in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let find name = List.find (fun sp -> sp.Trace.sp_name = name) spans in
  let outer = find "outer" and i1 = find "inner1" and i2 = find "inner2" in
  Alcotest.(check int) "outer is a root" (-1) outer.Trace.sp_parent;
  Alcotest.(check int) "inner1 under outer" outer.Trace.sp_id i1.Trace.sp_parent;
  Alcotest.(check int) "inner2 under outer" outer.Trace.sp_id i2.Trace.sp_parent;
  Alcotest.(check (list (pair string string)))
    "attrs recorded" [ ("k", "v") ] i2.Trace.sp_attrs;
  (* timing monotonicity: children start no earlier than the parent and
     fit inside it; inner2 starts after inner1 *)
  Alcotest.(check bool) "durations non-negative" true
    (List.for_all (fun sp -> sp.Trace.sp_dur_ns >= 0L) spans);
  Alcotest.(check bool) "inner1 starts within outer" true
    (i1.Trace.sp_start_ns >= outer.Trace.sp_start_ns);
  Alcotest.(check bool) "inner2 starts after inner1" true
    (i2.Trace.sp_start_ns >= i1.Trace.sp_start_ns);
  Alcotest.(check bool) "children fit inside outer" true
    (Int64.add i2.Trace.sp_start_ns i2.Trace.sp_dur_ns
     <= Int64.add outer.Trace.sp_start_ns outer.Trace.sp_dur_ns);
  let tree = Trace.to_tree tr in
  Alcotest.(check bool) "tree indents inner spans" true
    (String.length tree > 0
    && (let lines = String.split_on_char '\n' tree in
        List.exists (fun l -> String.length l > 2 && String.sub l 0 2 = "  ") lines))

let test_span_exception_safety () =
  let tr = Trace.create () in
  (try
     Trace.with_span tr "boom" (fun () -> failwith "inner failure")
   with Failure _ -> ());
  match Trace.spans tr with
  | [ sp ] -> Alcotest.(check string) "span recorded" "boom" sp.Trace.sp_name
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_ring_buffer_bound () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.with_span tr (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let names = List.map (fun sp -> sp.Trace.sp_name) (Trace.spans tr) in
  Alcotest.(check (list string)) "last four retained, oldest first"
    [ "s3"; "s4"; "s5"; "s6" ] names;
  Alcotest.(check int) "two dropped" 2 (Trace.dropped tr)

let test_noop_fast_path () =
  let tr = Trace.noop in
  Alcotest.(check bool) "disabled" false (Trace.enabled tr);
  let v = Trace.with_span tr "ignored" (fun () -> 7) in
  Alcotest.(check int) "thunk still runs" 7 v;
  Trace.add_attr tr "k" "v";
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.spans tr));
  Alcotest.(check string) "empty json" "[]" (Trace.to_json tr)

let test_json_export () =
  let tr = Trace.create () in
  Trace.with_span tr "a \"quoted\" name" (fun () -> ());
  let json = Trace.to_json tr in
  Alcotest.(check bool) "escapes quotes" true
    (String.length json > 0
    && (let sub = "a \\\"quoted\\\" name" in
        let rec mem i =
          i + String.length sub <= String.length json
          && (String.sub json i (String.length sub) = sub || mem (i + 1))
        in
        mem 0))

(* --- metrics --- *)

let test_histogram_bucketing () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat_ns" in
  (* log2 buckets: bucket i has inclusive upper bound 2^i *)
  Alcotest.(check int) "1 -> bucket 0" 0 (Metrics.bucket_index h 1.0);
  Alcotest.(check int) "2 -> bucket 1" 1 (Metrics.bucket_index h 2.0);
  Alcotest.(check int) "3 -> bucket 2" 2 (Metrics.bucket_index h 3.0);
  Alcotest.(check int) "1024 -> bucket 10" 10 (Metrics.bucket_index h 1024.0);
  Alcotest.(check int) "1025 -> bucket 11" 11 (Metrics.bucket_index h 1025.0);
  Alcotest.(check int) "huge clamps to last" 31
    (Metrics.bucket_index h 1e30);
  List.iter (fun v -> Metrics.observe_named m "lat_ns" v) [ 1.0; 2.0; 3.0; 1024.0; 1e30 ];
  Alcotest.(check int) "count" 5 (Metrics.histogram_count h);
  Alcotest.(check bool) "sum" true (Metrics.histogram_sum h > 1e29);
  let buckets = Metrics.histogram_buckets h in
  Alcotest.(check int) "bucket count" 32 (List.length buckets);
  Alcotest.(check (float 0.0)) "last bound is +Inf" infinity
    (fst (List.nth buckets 31));
  let dump = Metrics.dump m in
  Alcotest.(check bool) "dump has TYPE line" true
    (contains ~sub:"# TYPE lat_ns histogram" dump);
  Alcotest.(check bool) "dump has le buckets" true
    (contains ~sub:"lat_ns_bucket{le=\"1\"} 1" dump);
  Alcotest.(check bool) "dump has +Inf bucket" true
    (contains ~sub:"lat_ns_bucket{le=\"+Inf\"} 5" dump);
  Alcotest.(check bool) "dump has count" true (contains ~sub:"lat_ns_count 5" dump)

let test_counters_shared_output_path () =
  let db = sample_db () in
  ignore (q db "SELECT partno FROM quotations");
  let dump = Starburst.metrics_dump db in
  (* the executor's c_* counters flow into the same dump; scanned comes
     only from the final SELECT (the INSERTs use VALUES scans) *)
  Alcotest.(check bool) "scanned counter in dump" true
    (contains ~sub:"sb_exec_scanned_total 5" dump);
  Alcotest.(check bool) "output counter in dump" true
    (contains ~sub:"sb_exec_output_total" dump)

let test_per_rule_stats () =
  let db = sample_db () in
  ignore
    (q db
       "SELECT q.partno FROM quotations q WHERE q.partno IN (SELECT partno \
        FROM inventory)");
  match Starburst.last_rewrite db with
  | None -> Alcotest.fail "expected rewrite stats"
  | Some stats ->
    let rows = Engine.per_rule stats in
    Alcotest.(check bool) "some rule attempted" true (rows <> []);
    let total_fires = List.fold_left (fun a (_, f, _) -> a + f) 0 rows in
    Alcotest.(check int) "per-rule fires sum to total" stats.Engine.rules_fired
      total_fires;
    List.iter
      (fun (name, fires, attempts) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: attempts >= fires" name)
          true (attempts >= fires))
      rows

(* --- pipeline tracing --- *)

let test_pipeline_spans () =
  let db = sample_db () in
  let tr = Sb_obs.Trace.create () in
  Starburst.set_tracer db tr;
  ignore
    (q db
       "SELECT q.partno FROM quotations q WHERE q.partno IN (SELECT partno \
        FROM inventory WHERE type = 'CPU')");
  let names = List.map (fun sp -> sp.Trace.sp_name) (Trace.spans tr) in
  let has name = List.mem name names in
  List.iter
    (fun stage ->
      Alcotest.(check bool) (stage ^ " span present") true (has stage))
    [
      "stage.parse"; "stage.build"; "stage.rewrite"; "stage.optimize";
      "stage.refine"; "stage.execute"; "rewrite.fire"; "star.expand";
    ];
  (* rule-firing spans nest under the rewrite stage *)
  let spans = Trace.spans tr in
  let rewrite_span =
    List.find (fun sp -> sp.Trace.sp_name = "stage.rewrite") spans
  in
  let fire =
    List.find (fun sp -> sp.Trace.sp_name = "rewrite.fire") spans
  in
  Alcotest.(check int) "fire nests under rewrite" rewrite_span.Trace.sp_id
    fire.Trace.sp_parent;
  Alcotest.(check bool) "fire has rule attr" true
    (List.mem_assoc "rule" fire.Trace.sp_attrs);
  Alcotest.(check bool) "fire has boxes_before attr" true
    (List.mem_assoc "boxes_before" fire.Trace.sp_attrs);
  (* stage latencies landed in the metrics histograms *)
  let dump = Starburst.metrics_dump db in
  Alcotest.(check bool) "stage histogram in dump" true
    (contains ~sub:"sb_stage_duration_ns_bucket{stage=\"execute\"" dump);
  Alcotest.(check bool) "per-rule counter in dump" true
    (contains ~sub:"sb_rewrite_rule_fires_total{rule=" dump)

(* --- EXPLAIN ANALYZE integration --- *)

(** On a parts_supply-style schema, EXPLAIN ANALYZE's per-operator
    actual row counts must agree with the Rows result of running the
    same query. *)
let test_explain_analyze_matches_rows () =
  let db = Starburst.create () in
  let run s = ignore (Starburst.run db s) in
  run "CREATE TABLE parts (partno INT NOT NULL UNIQUE, pname STRING, weight FLOAT)";
  run "CREATE TABLE supply (sid INT, partno INT, qty INT, cost FLOAT)";
  run
    "INSERT INTO parts VALUES (1,'bolt',0.1),(2,'nut',0.05),(3,'gear',2.5),\
     (4,'axle',7.0),(5,'frame',22.0)";
  run
    "INSERT INTO supply VALUES (10,1,1000,0.02),(10,2,800,0.01),(10,3,50,3.1),\
     (11,1,200,0.03),(11,4,20,8.5),(12,5,5,30.0),(12,3,60,2.9),(11,3,10,3.5)";
  run "ANALYZE";
  let query =
    "SELECT p.pname, s.qty FROM parts p, supply s WHERE p.partno = s.partno \
     AND s.qty > 50"
  in
  let rows =
    match Starburst.run db query with
    | Starburst.Rows { rows; _ } -> rows
    | _ -> Alcotest.fail "expected rows"
  in
  let n = List.length rows in
  Alcotest.(check bool) "query returns rows" true (n > 0);
  let report =
    match Starburst.run db ("EXPLAIN ANALYZE " ^ query) with
    | Starburst.Message m -> m
    | _ -> Alcotest.fail "expected explain output"
  in
  (* the root operator's actual row count equals the result cardinality,
     and the report carries estimates, timings and the row summary *)
  Alcotest.(check bool) "root actual rows match result" true
    (contains ~sub:(Printf.sprintf "actual rows=%d" n) report);
  Alcotest.(check bool) "estimates printed" true (contains ~sub:"est_rows=" report);
  Alcotest.(check bool) "stage timings printed" true
    (contains ~sub:"== STAGE TIMINGS ==" report);
  Alcotest.(check bool) "execute stage timed" true (contains ~sub:"execute" report);
  Alcotest.(check bool) "row summary" true
    (contains ~sub:(Printf.sprintf "%d row(s)" n) report);
  (* direct API agreement: run_analyzed's root stats equal the rows *)
  let plan = Starburst.compile_text db query in
  let rows', lookup =
    Starburst.Corona.Exec.run_analyzed db.Starburst.Corona.exec_db plan
  in
  Alcotest.(check int) "run_analyzed returns same rows" n (List.length rows');
  (match lookup plan with
  | Some st ->
    Alcotest.(check int) "root operator row count" n st.Starburst.Corona.Exec.os_rows;
    Alcotest.(check bool) "root operator timed" true
      (st.Starburst.Corona.Exec.os_ns >= 0L)
  | None -> Alcotest.fail "no stats for root operator")

let test_stage_histograms_untraced () =
  let db = sample_db () in
  Alcotest.(check bool) "tracing is off" false
    (Trace.enabled (Starburst.tracer db));
  ignore (q db "SELECT partno FROM quotations");
  let dump = Starburst.metrics_dump db in
  Alcotest.(check bool) "stage histogram without tracing" true
    (contains ~sub:"sb_stage_duration_ns_bucket{stage=\"execute\"" dump)

let suite =
  ( "observability",
    [
      Alcotest.test_case "span nesting and timing" `Quick test_span_nesting;
      Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
      Alcotest.test_case "ring buffer bound" `Quick test_ring_buffer_bound;
      Alcotest.test_case "no-op tracer fast path" `Quick test_noop_fast_path;
      Alcotest.test_case "json export escaping" `Quick test_json_export;
      Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
      Alcotest.test_case "exec counters share the dump" `Quick
        test_counters_shared_output_path;
      Alcotest.test_case "per-rule fires and attempts" `Quick test_per_rule_stats;
      Alcotest.test_case "pipeline stage spans" `Quick test_pipeline_spans;
      Alcotest.test_case "EXPLAIN ANALYZE matches Rows" `Quick
        test_explain_analyze_matches_rows;
      Alcotest.test_case "stage histograms without tracing" `Quick
        test_stage_histograms_untraced;
    ] )
