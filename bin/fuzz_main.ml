(** Standalone fuzzing driver.

    [fuzz_main --fuzz N --seed S] runs N deterministic differential
    fuzz cases; [--replay PATH] replays one [.sbf] repro file or every
    repro under a directory; [--server N] replays a generated workload
    through N concurrent server sessions and differentially compares
    every result against a single-caller oracle; [--crash] injects a
    simulated crash at up to eight spread ordinals per round of each
    durability fault site, recovers, and compares against a
    committed-prefix oracle; [--races N] hammers N concurrent sessions
    with a mixed DML / DDL / ANALYZE workload under the armed
    lock-discipline checker and fails on any diagnosis.  Exit status is the number of
    discrepancies (capped at 125), so CI can gate on it directly. *)

let usage () =
  prerr_endline
    "usage: fuzz_main [--fuzz N] [--seed S] [--out DIR] [--metrics]\n\
    \       fuzz_main --server N [--fuzz CASES] [--seed S]\n\
    \       fuzz_main --crash [--fuzz CASES] [--seed S] [--out DIR]\n\
    \       fuzz_main --races N [--fuzz CASES] [--seed S] [--graph FILE]\n\
    \       fuzz_main --replay PATH   (a .sbf file or a directory)\n\
    \       fuzz_main --rules-status  (verify the builtin DSL rules; any\n\
    \                                  Rejected builtin is a build failure)";
  exit 2

type opts = {
  mutable cases : int;
  mutable seed : int;
  mutable out : string;
  mutable metrics : bool;
  mutable replay : string option;
  mutable server : int option;
  mutable rules_status : bool;
  mutable crash : bool;
  mutable races : int option;
  mutable graph : string option;
}

let parse_args () =
  let o =
    { cases = 100; seed = 42; out = "_fuzz_failures"; metrics = false;
      replay = None; server = None; rules_status = false;
      crash = false; races = None; graph = None }
  in
  let rec go = function
    | [] -> o
    | "--fuzz" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n > 0 -> o.cases <- n
      | _ -> usage ());
      go rest
    | "--seed" :: s :: rest ->
      (match int_of_string_opt s with Some s -> o.seed <- s | None -> usage ());
      go rest
    | "--out" :: dir :: rest ->
      o.out <- dir;
      go rest
    | "--metrics" :: rest ->
      o.metrics <- true;
      go rest
    | "--replay" :: path :: rest ->
      o.replay <- Some path;
      go rest
    | "--server" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n > 0 -> o.server <- Some n
      | _ -> usage ());
      go rest
    | "--rules-status" :: rest ->
      o.rules_status <- true;
      go rest
    | "--crash" :: rest ->
      o.crash <- true;
      go rest
    | "--races" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n > 0 -> o.races <- Some n
      | _ -> usage ());
      go rest
    | "--graph" :: path :: rest ->
      o.graph <- Some path;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

(* --rules-status: strict-mode report of the builtin DSL rules' verdicts
   (the ones every database compiles its predicate and redundant-join
   rules from).  Every builtin must come out of the static verifier
   Verified or Conditional (with its guards inserted); a Rejected
   builtin — or a verdict drifting to Rejected after a verifier change —
   fails the build.  Exit status is the number of rejected builtins. *)
let rules_status () =
  let module Verify = Sb_ruledsl.Verify in
  let statuses = Sb_ruledsl.Base_rules.builtin_statuses in
  List.iter
    (fun (name, status) ->
      Printf.printf "%-28s %s\n" name (Verify.status_to_string status))
    statuses;
  let rejected =
    List.length
      (List.filter
         (function _, Verify.Rejected _ -> true | _ -> false)
         statuses)
  in
  Printf.printf "builtin DSL rules: %d, rejected: %d\n" (List.length statuses)
    rejected;
  rejected

let show_verdict path = function
  | Sb_fuzz.Oracle.Pass ->
    Printf.printf "PASS  %s\n" path;
    0
  | Sb_fuzz.Oracle.Rejected msg ->
    Printf.printf "REJECT %s (%s)\n" path msg;
    1
  | Sb_fuzz.Oracle.Unsupported msg ->
    Printf.printf "UNSUPPORTED %s (%s)\n" path msg;
    1
  | Sb_fuzz.Oracle.Fail { config; detail } ->
    Printf.printf "FAIL  %s [%s] %s\n" path config detail;
    1

let replay path =
  if Sys.is_directory path then begin
    let results = Sb_fuzz.Harness.replay_dir path in
    if results = [] then begin
      Printf.printf "no .sbf repros under %s\n" path;
      0
    end
    else
      List.fold_left (fun acc (p, v) -> acc + show_verdict p v) 0 results
  end
  else show_verdict path (Sb_fuzz.Harness.replay_file path)

(* --server N: one generated catalog, [cases] generated queries, every
   query run both by a single plain caller (the oracle) and through the
   concurrent front end — N sessions on N domains, queries dealt
   round-robin.  Outcomes must agree as bags; failures must fail on
   both sides.  Pure in (seed, cases, sessions). *)
let server_differential ~sessions ~cases ~seed =
  let module Gen = Sb_fuzz.Gen in
  let module Oracle = Sb_fuzz.Oracle in
  let module Sprng = Sb_fuzz.Sprng in
  let module Server = Sb_server in
  let module Err = Sb_resil.Err in
  let rng = Sprng.create seed in
  let catalog = Gen.gen_catalog (Sprng.split rng) in
  let ddl = Gen.ddl_of_catalog catalog in
  let texts =
    Array.init cases (fun _ ->
        Gen.query_text (Gen.gen_query (Sprng.split rng) catalog))
  in
  let odb = Starburst.create () in
  List.iter (fun stmt -> ignore (Starburst.run odb stmt)) ddl;
  let expected = Array.map (Oracle.run_outcome odb) texts in
  (* no shedding here: a greedy plan may pick a different (legitimate)
     LIMIT subset, which the bag comparison would misread as a bug *)
  let config =
    {
      Server.max_inflight = max 16 (2 * sessions);
      degrade_inflight = max 16 (2 * sessions);
      session_inflight = 4;
    }
  in
  let server = Server.create ~config () in
  let boot = Server.session server in
  List.iter
    (fun stmt ->
      match Server.submit server boot stmt with
      | Ok _ -> ()
      | Error e -> failwith ("server DDL failed: " ^ Err.to_string e))
    ddl;
  Server.close_session server boot;
  let outcomes : Oracle.outcome option array = Array.make cases None in
  let worker d () =
    let s = Server.session server in
    for i = 0 to cases - 1 do
      if i mod sessions = d then begin
        let rec go attempts =
          match Server.submit server s texts.(i) with
          | Ok (Starburst.Rows { rows; _ }) -> Oracle.Rows rows
          | Ok _ -> Oracle.Rows []
          | Error e when e.Err.err_retryable && attempts < 5 ->
            go (attempts + 1)
          | Error e -> Oracle.Failed e
        in
        outcomes.(i) <- Some (go 0)
      end
    done;
    Server.close_session server s
  in
  let domains = Array.init sessions (fun d -> Domain.spawn (worker d)) in
  Array.iter Domain.join domains;
  Server.shutdown server;
  let sort = List.sort Sb_storage.Tuple.compare in
  let agree i =
    match (expected.(i), outcomes.(i)) with
    | Oracle.Rows a, Some (Oracle.Rows b) ->
      List.equal (fun x y -> Sb_storage.Tuple.compare x y = 0) (sort a) (sort b)
    | Oracle.Failed _, Some (Oracle.Failed _) -> true
    | _ -> false
  in
  let failures = ref 0 and both_failed = ref 0 in
  for i = 0 to cases - 1 do
    (match expected.(i) with Oracle.Failed _ -> incr both_failed | _ -> ());
    if not (agree i) then begin
      incr failures;
      Printf.printf "DIFF  case %d (session %d): %s\n" i (i mod sessions)
        texts.(i)
    end
  done;
  Printf.printf
    "server-differential: %d cases x %d sessions, %d agree, %d failed on \
     both sides, %d discrepancies\n"
    cases sessions (cases - !failures) !both_failed !failures;
  !failures

(* --races N: the lock-discipline stress mode.  One generated catalog,
   N sessions on N domains, each driving a deterministic per-session
   mix of DML, per-session index churn (DDL, so the catalog epoch
   moves under concurrent lookups) and ANALYZE, with the discipline
   checker armed.  Any diagnosis — a lock-order violation,
   re-entrancy, unlock-without-lock, or a lockset race on an
   instrumented shared field — fails the sweep.  Statement outcomes
   are not compared (that is [--server]'s job); what must hold is that
   the armed checker stays silent, and its report is deterministic so
   CI can run the sweep twice and byte-diff the output. *)
let races_sweep ~sessions ~cases ~seed ~graph =
  let module Gen = Sb_fuzz.Gen in
  let module Sprng = Sb_fuzz.Sprng in
  let module Server = Sb_server in
  let module D = Sb_conc.Discipline in
  D.reset ();
  D.arm ();
  let rng = Sprng.create seed in
  let catalog = Gen.gen_catalog (Sprng.split rng) in
  let ddl = Gen.ddl_of_catalog catalog in
  let streams =
    Array.init sessions (fun d ->
        let srng = Sprng.create (seed + (1000 * (d + 1))) in
        let dml =
          Array.of_list
            (Gen.gen_dml_workload (Sprng.split srng) catalog ~n:(max 1 cases))
        in
        (* every generated table has an int key column [k] *)
        let table = (List.nth catalog (d mod List.length catalog)).Gen.t_name in
        Array.init cases (fun i ->
            if i mod 8 = 5 then Printf.sprintf "ANALYZE %s" table
            else if i mod 8 = 2 then begin
              (* churn a private index name: CREATE on even rounds,
                 DROP it again on odd ones *)
              let k = i / 8 in
              if k mod 2 = 0 then
                Printf.sprintf "CREATE INDEX rix_%d_%d ON %s (k) USING btree"
                  d (k / 2) table
              else Printf.sprintf "DROP INDEX rix_%d_%d ON %s" d (k / 2) table
            end
            else if i mod 2 = 0 then dml.(i mod Array.length dml)
            else Gen.query_text (Gen.gen_query (Sprng.split srng) catalog)))
  in
  (* generous admission: shedding is irrelevant here and rejections
     would just thin the interleavings the detector is meant to see *)
  let config =
    {
      Server.max_inflight = max 32 (4 * sessions);
      degrade_inflight = max 32 (4 * sessions);
      session_inflight = 4;
    }
  in
  let server = Server.create ~config () in
  let boot = Server.session server in
  List.iter (fun stmt -> ignore (Server.submit server boot stmt)) ddl;
  Server.close_session server boot;
  let worker d () =
    let s = Server.session server in
    Array.iter
      (fun text ->
        let rec go attempts =
          match Server.submit server s text with
          | Ok _ -> ()
          | Error e when e.Sb_resil.Err.err_retryable && attempts < 5 ->
            go (attempts + 1)
          | Error _ -> ()
        in
        go 0)
      streams.(d);
    Server.close_session server s
  in
  let domains = Array.init sessions (fun d -> Domain.spawn (worker d)) in
  Array.iter Domain.join domains;
  Server.shutdown server;
  (match graph with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (D.graph_dot ());
    close_out oc;
    Printf.eprintf "lock-acquisition graph written: %s\n" path);
  print_string (D.report_text ());
  let diags = List.length (D.diags ()) in
  Printf.printf "races: %d cases x %d sessions, %d diagnostics\n" cases
    sessions diags;
  D.disarm ();
  diags

(* --crash: crash-point differential sweep over the durability path.
   Deterministic in (seed, cases); mismatches are written under --out
   as runnable .sql repros. *)
let crash_sweep ~cases ~seed ~out ~metrics:want_metrics =
  let metrics = Sb_obs.Metrics.create () in
  let stats =
    Sb_fuzz.Crash.run ~metrics ~log:print_endline ~seed ~n:cases ()
  in
  print_string (Sb_fuzz.Crash.report stats);
  let mismatches = stats.Sb_fuzz.Crash.cs_mismatches in
  if mismatches <> [] then begin
    if not (Sys.file_exists out) then Unix.mkdir out 0o755;
    List.iteri
      (fun i m ->
        let path = Sb_fuzz.Crash.save_repro ~dir:out ~seed i m in
        Printf.printf "repro written: %s\n" path)
      mismatches
  end;
  if want_metrics then print_string (Sb_obs.Metrics.dump metrics);
  Sb_fuzz.Crash.failures stats

let () =
  (* STARBURST_LOCKCHECK=1 arms the lock-discipline checker for any
     mode (--races always arms it itself) *)
  Sb_conc.Discipline.arm_from_env ();
  let o = parse_args () in
  if o.rules_status then exit (min 125 (rules_status ()))
  else if o.crash then
    exit
      (min 125
         (crash_sweep ~cases:o.cases ~seed:o.seed ~out:o.out
            ~metrics:o.metrics))
  else
  match o.races with
  | Some sessions ->
    exit
      (min 125
         (races_sweep ~sessions ~cases:o.cases ~seed:o.seed ~graph:o.graph))
  | None ->
  match o.server with
  | Some sessions ->
    exit (min 125 (server_differential ~sessions ~cases:o.cases ~seed:o.seed))
  | None ->
  match o.replay with
  | Some path ->
    if not (Sys.file_exists path) then begin
      Printf.eprintf "no such file or directory: %s\n" path;
      exit 2
    end;
    exit (min 125 (replay path))
  | None ->
    let metrics = Sb_obs.Metrics.create () in
    let stats =
      Sb_fuzz.Harness.run ~metrics ~out_dir:o.out
        ~log:print_endline ~seed:o.seed ~n:o.cases ()
    in
    print_string (Sb_fuzz.Harness.report stats);
    if o.metrics then print_string (Sb_obs.Metrics.dump metrics);
    exit (min 125 (List.length stats.Sb_fuzz.Harness.st_failures))
