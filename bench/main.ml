(** The experiment harness: regenerates every figure and measurable
    claim of the paper (see DESIGN.md section 5 and EXPERIMENTS.md).

    {v
    dune exec bench/main.exe            # all experiments
    dune exec bench/main.exe -- e6 e8   # a subset
    dune exec bench/main.exe -- micro   # Bechamel micro-benchmarks only
    dune exec bench/main.exe -- --analyze  # property-inference timing sweep
    v} *)

let experiments =
  [
    ("f1", "phases of query processing (Figure 1)", Experiments_rewrite.f1);
    ("f2", "the Figure 2 rewrite trace", Experiments_rewrite.f2);
    ("e1", "rewrite benefit on the paper query", Experiments_rewrite.e1);
    ("e2", "predicate push-down", Experiments_rewrite.e2);
    ("e3", "view merging", Experiments_rewrite.e3);
    ("e4", "rule-engine strategies and budget", Experiments_rewrite.e4);
    ("e5", "magic-sets rule for recursion", Experiments_rewrite.e5);
    ("e6", "join enumerator search space", Experiments_optimizer.e6);
    ("e7", "STAR inventory", Experiments_optimizer.e7);
    ("e8", "join methods", Experiments_optimizer.e8);
    ("e9", "evaluate-on-demand subqueries", Experiments_exec.e9);
    ("e10", "the OR operator", Experiments_exec.e10);
    ("e11", "access-method attachments", Experiments_exec.e11);
    ("e12", "storage managers", Experiments_exec.e12);
    ("e13", "cost of the outer-join extension", Experiments_exec.e13);
    ("e14", "distributed Bloom-join", Experiments_exec.e14);
    ("e15", "rule-class ablation", Experiments_rewrite.e15);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: compiler-side throughput                 *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  Bench_util.header "Micro-benchmarks (Bechamel): compiler phases, ns/run";
  let db = Bench_util.parts_db ~n_parts:300 ~fanout:3 () in
  let text =
    "SELECT q.partno, q.price FROM quotations q WHERE q.partno IN (SELECT \
     partno FROM inventory WHERE type = 'CPU') AND q.price < 50"
  in
  let ast = Sb_hydrogen.Parser.query_text text in
  let tests =
    Test.make_grouped ~name:"corona"
      [
        Test.make ~name:"parse"
          (Staged.stage (fun () -> Sb_hydrogen.Parser.query_text text));
        Test.make ~name:"build-qgm"
          (Staged.stage (fun () -> Starburst.build_qgm db ast));
        Test.make ~name:"rewrite"
          (Staged.stage (fun () ->
               let g = Starburst.build_qgm db ast in
               Starburst.rewrite db g));
        Test.make ~name:"optimize"
          (Staged.stage (fun () ->
               let g = Starburst.build_qgm db ast in
               ignore (Starburst.rewrite db g);
               Sb_optimizer.Generator.optimize db.Starburst.Corona.optimizer g));
        Test.make ~name:"execute"
          (Staged.stage
             (let plan = Starburst.compile_text db text in
              fun () -> Starburst.run_plan db plan));
      ]
  in
  let benchmark () =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
    Benchmark.all cfg instances tests
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let results = analyze (benchmark ()) in
  Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] -> Printf.printf "  %-24s %12.0f ns/run\n" name est
         | _ -> Printf.printf "  %-24s (no estimate)\n" name)

(* ------------------------------------------------------------------ *)
(* Verification sweep (--verify)                                       *)
(* ------------------------------------------------------------------ *)

(** Runs a corpus of representative queries with paranoid mode on:
    every rule firing is audited for QGM consistency, the optimizer's
    plan is validated against the catalog, and the rewritten compilation
    is differentially executed against the un-rewritten one.  Exits
    non-zero on the first unsoundness, so CI can gate on it. *)
(* shared by the verification (--verify) and inference (--analyze) sweeps *)
let sweep_corpus =
  [
    "SELECT q.partno, q.price FROM quotations q WHERE q.partno IN (SELECT \
     partno FROM inventory WHERE type = 'CPU') AND q.price < 50";
    "SELECT partno FROM inventory WHERE type = 'CPU' OR onhand_qty > 80";
    "SELECT i.type, count(*), min(q.price) FROM quotations q, inventory i \
     WHERE q.partno = i.partno GROUP BY i.type";
    "SELECT partno FROM quotations WHERE price > (SELECT min(price) FROM \
     quotations) ORDER BY partno";
    "SELECT DISTINCT supplier FROM quotations WHERE order_qty > 10";
    "SELECT partno FROM inventory UNION SELECT partno FROM quotations";
    "SELECT q.supplier FROM quotations q WHERE EXISTS (SELECT partno FROM \
     inventory i WHERE i.partno = q.partno AND i.onhand_qty < q.order_qty)";
  ]

let verify () =
  Bench_util.header
    "Verification sweep: rule audit + plan check + differential execution";
  let db = Bench_util.parts_db ~n_parts:300 ~fanout:3 () in
  db.Starburst.Corona.paranoid <- true;
  let corpus = sweep_corpus in
  let abbrev s = if String.length s <= 70 then s else String.sub s 0 67 ^ "..." in
  let failures = ref 0 in
  List.iter
    (fun text ->
      match Starburst.query db text with
      | rows -> Printf.printf "  ok       %-70s (%d rows)\n" (abbrev text) (List.length rows)
      | exception Sb_verify.Rule_audit.Unsound msg ->
        incr failures;
        Printf.printf "  UNSOUND  %-70s\n           %s\n" (abbrev text) msg
      | exception Sb_verify.Plan_check.Invalid_plan msg ->
        incr failures;
        Printf.printf "  INVALID  %-70s\n           %s\n" (abbrev text) msg)
    corpus;
  db.Starburst.Corona.paranoid <- false;
  if !failures > 0 then begin
    Printf.printf "%d verification failure(s)\n" !failures;
    exit 1
  end
  else Printf.printf "all %d queries verified\n" (List.length corpus)

(* ------------------------------------------------------------------ *)
(* Inference timing sweep (--analyze)                                  *)
(* ------------------------------------------------------------------ *)

(** Times property inference ([Sb_analysis.Infer.analyze]) on the
    rewritten QGM of each corpus query, reporting wall time and the
    number of inferred facts, so inference-cost regressions surface in
    CI logs next to the numbers they would inflate. *)
let analyze_sweep () =
  Bench_util.header "Inference sweep: per-query property inference cost";
  let db = Bench_util.parts_db ~n_parts:300 ~fanout:3 () in
  let catalog = db.Starburst.Corona.catalog in
  let abbrev s = if String.length s <= 64 then s else String.sub s 0 61 ^ "..." in
  let total = ref 0.0 in
  List.iter
    (fun text ->
      let g = Starburst.build_qgm db (Sb_hydrogen.Parser.query_text text) in
      let t0 = Unix.gettimeofday () in
      let inf = Sb_analysis.Infer.analyze ~trust_stats:true ~catalog g in
      let dt = Unix.gettimeofday () -. t0 in
      total := !total +. dt;
      Printf.printf "  %8.1fus  %3d fact(s)  %s\n" (dt *. 1e6)
        (Sb_analysis.Infer.fact_count inf)
        (abbrev text))
    sweep_corpus;
  Printf.printf "total inference time: %.1fus over %d queries\n"
    (!total *. 1e6)
    (List.length sweep_corpus)

(* ------------------------------------------------------------------ *)
(* Chaos sweep (--chaos SEED)                                          *)
(* ------------------------------------------------------------------ *)

(** Runs the verification corpus with a seeded 5% storage fault
    probability: every query must complete, degrade, or fail with a
    structured error — never crash.  Reports ok / degraded / failed
    counts plus injection and retry totals. *)
let chaos seed =
  Bench_util.header
    (Printf.sprintf
       "Chaos sweep: seed %d, 5%% storage fault probability, capped retries"
       seed);
  let db = Bench_util.parts_db ~n_parts:300 ~fanout:3 () in
  let faults = Starburst.Faults.create ~seed () in
  Starburst.Faults.fail_prob faults 0.05;
  Starburst.Corona.set_faults db faults;
  let corpus = sweep_corpus in
  let abbrev s = if String.length s <= 66 then s else String.sub s 0 63 ^ "..." in
  let ok = ref 0 and degraded = ref 0 and failed = ref 0 in
  List.iter
    (fun text ->
      match Starburst.run db text with
      | _ ->
        (match Starburst.Corona.last_degraded db with
        | Some reason ->
          incr degraded;
          Printf.printf "  degraded %-66s\n           %s\n" (abbrev text) reason
        | None ->
          incr ok;
          Printf.printf "  ok       %-66s\n" (abbrev text))
      | exception Starburst.Error e ->
        incr failed;
        Printf.printf "  failed   %-66s\n           %s\n" (abbrev text)
          (Starburst.Err.to_string e))
    corpus;
  Starburst.Corona.set_faults db Starburst.Faults.none;
  Printf.printf
    "chaos: %d ok, %d degraded, %d failed (structured); %d faults injected, \
     %d retried\n"
    !ok !degraded !failed
    (Starburst.Faults.injected faults)
    (Starburst.Faults.retried faults)

(* ------------------------------------------------------------------ *)
(* Stage-level trace export (--trace-json FILE)                        *)
(* ------------------------------------------------------------------ *)

(** Runs the standard pipeline query with tracing enabled and writes the
    span buffer as JSON, so BENCH_*.json runs carry stage-level timings
    (parse, build, rewrite with per-rule firings, optimize with STAR
    expansion counts, refine, execute). *)
let trace_json path =
  let db = Bench_util.parts_db ~n_parts:300 ~fanout:3 () in
  let tracer = Sb_obs.Trace.create () in
  Starburst.set_tracer db tracer;
  let text =
    "SELECT q.partno, q.price FROM quotations q WHERE q.partno IN (SELECT \
     partno FROM inventory WHERE type = 'CPU') AND q.price < 50"
  in
  ignore (Starburst.query db text);
  match open_out path with
  | oc ->
    output_string oc (Sb_obs.Trace.to_json tracer);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %d spans to %s\n"
      (List.length (Sb_obs.Trace.spans tracer))
      path
  | exception Sys_error msg ->
    Printf.eprintf "error: cannot write trace file: %s\n" msg;
    exit 1

(* ------------------------------------------------------------------ *)
(* Crash-recovery bench (--crash)                                      *)
(* ------------------------------------------------------------------ *)

(** [--crash]: redo time as the committed log grows.  Recovery replays
    every record since the last checkpoint, so with checkpointing off
    the time scales with transaction count, while [SET wal_checkpoint]
    keeps it flat — the experiment shows both columns side by side. *)
let crash_bench () =
  Bench_util.header
    "Crash recovery: redo time vs committed transactions (WAL replay)";
  let case ~txns ~checkpoint =
    let db = Starburst.create () in
    let run s = ignore (Starburst.run db s) in
    run "CREATE TABLE account (k INT UNIQUE, balance INT)";
    if checkpoint > 0 then
      run (Printf.sprintf "SET wal_checkpoint = %d" checkpoint);
    for i = 1 to txns do
      run (Printf.sprintf "INSERT INTO account VALUES (%d, %d)" i (i mod 97))
    done;
    let catalog = db.Starburst.Corona.catalog in
    let stable = (Sb_storage.Wal.stats catalog.Sb_storage.Catalog.wal).Sb_storage.Wal.s_stable in
    (* one untimed run for the redo counters, then median-of-3 timing *)
    Sb_storage.Recovery.crash ~catalog;
    let st = Starburst.Corona.recover db in
    let ms =
      Bench_util.time_ms ~reps:3 (fun () ->
          Sb_storage.Recovery.crash ~catalog;
          Starburst.Corona.recover db)
    in
    (match Starburst.run db "SELECT count(*) FROM account" with
    | Starburst.Rows { rows = [ [| Sb_storage.Value.Int n |] ]; _ } when n = txns -> ()
    | _ -> Printf.printf "  [DEVIATION] %d txns: wrong row count after recovery\n" txns);
    (stable, st.Sb_storage.Recovery.r_redone, ms)
  in
  let rows =
    List.map
      (fun txns ->
        let stable, redone, ms = case ~txns ~checkpoint:0 in
        let _, redone_ck, ms_ck = case ~txns ~checkpoint:256 in
        [ Bench_util.itos txns; Bench_util.itos stable;
          Bench_util.itos redone; Bench_util.ms ms;
          Bench_util.itos redone_ck; Bench_util.ms ms_ck ])
      [ 200; 800; 3200 ]
  in
  Bench_util.table
    ~cols:[ "txns"; "log records"; "redone"; "recover ms";
            "redone (ckpt)"; "recover ms (ckpt)" ]
    rows;
  print_endline
    "  (checkpoint every 256 commits bounds redo to the tail of the log)"

let banner = "Starburst experiment harness (paper: SIGMOD 1989, pp. 377-388)"

(* Standalone modes, independent of the experiment list: the first flag
   present (in this order) runs alone, then the harness exits.
   [--server [--server-stmts N] [--server-workers N]] is the concurrent
   multi-session sweep, [--crash] the recovery-time experiment, [--qes]
   the executor sweep against hand-written floors. *)
let standalone_modes =
  let rec intflag_of name = function
    | flag :: n :: _ when flag = name -> int_of_string_opt n
    | _ :: rest -> intflag_of name rest
    | [] -> None
  in
  [
    ( "--server",
      fun argv ->
        Bench_server.run
          ?stmts:(intflag_of "--server-stmts" argv)
          ?workers:(intflag_of "--server-workers" argv)
          () );
    ("--crash", fun _ -> crash_bench ());
    ("--qes", fun _ -> Bench_qes.run ());
  ]

let () =
  (let argv = Array.to_list Sys.argv |> List.tl in
   match List.find_opt (fun (flag, _) -> List.mem flag argv) standalone_modes with
   | Some (_, run) ->
     print_endline banner;
     run argv;
     exit 0
   | None -> ());
  let rec split_flags acc trace verify_only analyze_only chaos_seed = function
    | [] -> (List.rev acc, trace, verify_only, analyze_only, chaos_seed)
    | "--trace-json" :: path :: rest ->
      split_flags acc (Some path) verify_only analyze_only chaos_seed rest
    | "--verify" :: rest -> split_flags acc trace true analyze_only chaos_seed rest
    | "--analyze" :: rest -> split_flags acc trace verify_only true chaos_seed rest
    | "--chaos" :: seed :: rest -> (
      match int_of_string_opt seed with
      | Some s -> split_flags acc trace verify_only analyze_only (Some s) rest
      | None ->
        Printf.eprintf "error: --chaos expects an integer seed, got %s\n" seed;
        exit 2)
    | a :: rest -> split_flags (a :: acc) trace verify_only analyze_only chaos_seed rest
  in
  let args, trace_path, verify_only, analyze_only, chaos_seed =
    split_flags [] None false false None (Array.to_list Sys.argv |> List.tl)
  in
  let args = List.map String.lowercase_ascii args in
  let wanted name = args = [] || List.mem name args in
  print_endline banner;
  if (verify_only || analyze_only || chaos_seed <> None) && args = [] then begin
    if verify_only then verify ();
    if analyze_only then analyze_sweep ();
    Option.iter chaos chaos_seed
  end
  else begin
    List.iter
      (fun (name, _descr, f) -> if wanted name then f ())
      experiments;
    if args = [] || List.mem "micro" args then micro ();
    if verify_only then verify ();
    if analyze_only then analyze_sweep ();
    Option.iter chaos chaos_seed
  end;
  Option.iter trace_json trace_path
