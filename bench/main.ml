(** The experiment harness: regenerates every figure and measurable
    claim of the paper (see DESIGN.md section 5 and EXPERIMENTS.md).

    {v
    dune exec bench/main.exe            # all experiments
    dune exec bench/main.exe -- e6 e8   # a subset
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

let banner = "Starburst experiment harness (paper: SIGMOD 1989, pp. 377-388)"

(* Standalone modes, independent of the experiment list: the first flag
   present (in this order) runs alone, then the harness exits.
   [--server [--server-stmts N]] is the concurrent
   multi-session sweep, [--qes] the executor sweep against hand-written
   floors. *)
let standalone_modes =
  let rec intflag_of name = function
    | flag :: n :: _ when flag = name -> int_of_string_opt n
    | _ :: rest -> intflag_of name rest
    | [] -> None
  in
  [
    ( "--server",
      fun argv ->
        Bench_server.run ?stmts:(intflag_of "--server-stmts" argv) () );
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
  let rec split_flags acc verify_only analyze_only chaos_seed = function
    | [] -> (List.rev acc, verify_only, analyze_only, chaos_seed)
    | "--verify" :: rest -> split_flags acc true analyze_only chaos_seed rest
    | "--analyze" :: rest -> split_flags acc verify_only true chaos_seed rest
    | "--chaos" :: seed :: rest -> (
      match int_of_string_opt seed with
      | Some s -> split_flags acc verify_only analyze_only (Some s) rest
      | None ->
        Printf.eprintf "error: --chaos expects an integer seed, got %s\n" seed;
        exit 2)
    | a :: rest -> split_flags (a :: acc) verify_only analyze_only chaos_seed rest
  in
  let args, verify_only, analyze_only, chaos_seed =
    split_flags [] false false None (Array.to_list Sys.argv |> List.tl)
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
    if verify_only then verify ();
    if analyze_only then analyze_sweep ();
    Option.iter chaos chaos_seed
  end
