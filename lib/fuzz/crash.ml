(** Crash-point differential fuzzing.  See crash.mli. *)

open Sb_storage
module Err = Sb_resil.Err
module Faults = Sb_resil.Faults
module Rule_audit = Sb_verify.Rule_audit
module Metrics = Sb_obs.Metrics

let sites = [ "wal.append"; "wal.flush"; "checkpoint" ]

(* the knob every database under test runs with: checkpoint every few
   transactions, so the checkpoint crash site is actually reachable *)
let knobs = [ "SET wal_checkpoint = 4" ]

type mismatch = {
  m_round : int;
  m_site : string;
  m_ordinal : int;
  m_stmt : string;  (** the statement in flight when the crash fired *)
  m_committed : bool;  (** its Commit record was already stable *)
  m_detail : string;
  m_script : string list;  (** DDL + knobs + workload: a full repro *)
}

type stats = {
  cs_seed : int;
  cs_rounds : int;
  cs_cases : int;
  cs_unfired : int;
  cs_committed : int;
  cs_by_site : (string * int) list;
  cs_mismatches : mismatch list;
}

(* ------------------------------------------------------------------ *)
(* Databases under test                                                *)
(* ------------------------------------------------------------------ *)

let fresh_db ~(ddl : string list) : Starburst.t =
  let db = Starburst.create () in
  Sb_extensions.Outer_join.install db;
  ignore (Starburst.run_script db (String.concat ";\n" (ddl @ knobs)));
  db

let snapshot (db : Starburst.t) =
  Catalog.snapshot_tables db.Starburst.Corona.catalog

let wal_of (db : Starburst.t) = db.Starburst.Corona.catalog.Catalog.wal

(* runs one statement; a failure (or a crash, which leaves the database
   needing recovery) is the case's to judge, not an error of the sweep *)
let attempt db text =
  try ignore (Starburst.run db text : Starburst.result)
  with Starburst.Error _ | Err.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* State comparison                                                    *)
(* ------------------------------------------------------------------ *)

(* both snapshots are sorted by table name *)
let state_diff (expected : (string * Tuple.t list) list)
    (got : (string * Tuple.t list) list) : string option =
  if List.length expected <> List.length got then
    Some
      (Printf.sprintf "table count: expected %d, got %d"
         (List.length expected) (List.length got))
  else
    List.fold_left2
      (fun acc (ne, re) (ng, rg) ->
        match acc with
        | Some _ -> acc
        | None ->
          if ne <> ng then Some (Printf.sprintf "table %s vs %s" ne ng)
          else (
            match Rule_audit.compare_results ~ordered:false re rg with
            | Ok () -> None
            | Error msg -> Some (Printf.sprintf "table %s: %s" ne msg)))
      None expected got

(* ------------------------------------------------------------------ *)
(* One crash case                                                      *)
(* ------------------------------------------------------------------ *)

type case_result =
  | Consistent of { committed : bool }
  | Unfired  (** the armed ordinal was never reached — a scout bug *)
  | Mismatch of mismatch

let run_case ~round ~seed ~(ddl : string list) ~(dml : string list)
    ~(oracle : (string * Tuple.t list) list array) ~site ~ordinal : case_result
    =
  let db = fresh_db ~ddl in
  let wal = wal_of db in
  let faults = Faults.create ~seed () in
  Faults.fail_nth faults ~outcome:Faults.Crash ~site [ ordinal ];
  Starburst.set_faults db faults;
  (* run the workload until the crash fires *)
  let crashed_at = ref (-1) in
  let lsn_before = ref 0 in
  List.iteri
    (fun i text ->
      if !crashed_at < 0 then begin
        lsn_before := (Wal.stats wal).Wal.s_lsn;
        attempt db text;
        if Wal.needs_recovery wal then crashed_at := i
      end)
    dml;
  if !crashed_at < 0 then Unfired
  else begin
    let i = !crashed_at in
    (* everything stable before recovery: did the in-flight statement's
       Commit record, the one past every LSN before it, make it to the
       stable log? *)
    let committed = List.exists (fun lsn -> lsn > !lsn_before) (Wal.commits wal) in
    Starburst.set_faults db Faults.none;
    match Starburst.Corona.recover db with
    | exception (Starburst.Error e | Err.Error e) ->
      Mismatch
        {
          m_round = round;
          m_site = site;
          m_ordinal = ordinal;
          m_stmt = List.nth dml i;
          m_committed = committed;
          m_detail = "recovery failed: " ^ Err.to_string e;
          m_script = ddl @ knobs @ dml;
        }
    | _ ->
      let got = snapshot db in
      let without = oracle.(i) and with_ = oracle.(i + 1) in
      (* the client never saw the in-flight statement succeed, so the
         recovered state may equal the oracle either without it or with
         it — but once its Commit is stable, only "with" is honest *)
      let verdict =
        if committed then state_diff with_ got
        else
          match state_diff without got with
          | None -> None
          | Some _ -> state_diff with_ got
      in
      (match verdict with
      | None -> Consistent { committed }
      | Some detail ->
        Mismatch
          {
            m_round = round;
            m_site = site;
            m_ordinal = ordinal;
            m_stmt = List.nth dml i;
            m_committed = committed;
            m_detail =
              (if committed then "committed statement lost: " ^ detail
               else "neither prefix state matches: " ^ detail);
            m_script = ddl @ knobs @ dml;
          })
  end

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

(* oracle pass: snapshots after each statement prefix, no faults *)
let oracle_states ~ddl ~dml =
  let db = fresh_db ~ddl in
  let n = List.length dml in
  let states = Array.make (n + 1) (snapshot db) in
  List.iteri
    (fun i text ->
      attempt db text;
      states.(i + 1) <- snapshot db)
    dml;
  states

(* scout pass: an armed-but-ruleless plan counts consults per site,
   which enumerates every reachable crash ordinal *)
let scout ~seed ~ddl ~dml =
  let db = fresh_db ~ddl in
  let faults = Faults.create ~seed () in
  Starburst.set_faults db faults;
  List.iter (fun text -> attempt db text) dml;
  List.filter_map
    (fun site ->
      match Faults.calls faults site with
      | 0 -> None
      | n -> Some (site, n))
    sites

(* A round arms at most [per_site] ordinals of each site, spread evenly
   over the site's range with both ends kept, so a site consulted once
   per record cannot spend the budget that the rarer sites need. *)
let per_site = 8

let ordinals total =
  if total <= per_site then List.init total (fun j -> j + 1)
  else List.init per_site (fun j -> 1 + (j * (total - 1) / (per_site - 1)))

let run ?metrics ?(log = fun _ -> ()) ~seed ~n () : stats =
  let master = Sprng.create seed in
  let rounds = ref 0 in
  let cases = ref 0 in
  let unfired = ref 0 in
  let committed = ref 0 in
  let by_site = Hashtbl.create 8 in
  let mismatches = ref [] in
  while !cases < n do
    let round = !rounds in
    incr rounds;
    let rng = Sprng.split master in
    let cat = Gen.gen_catalog rng in
    let ddl = Gen.ddl_of_catalog cat in
    let dml = Gen.gen_dml_workload rng cat ~n:12 in
    let oracle = oracle_states ~ddl ~dml in
    let reachable = scout ~seed ~ddl ~dml in
    List.iter
      (fun (site, total) ->
        List.iter (fun ordinal ->
          if !cases < n then begin
            incr cases;
            Hashtbl.replace by_site site
              (1 + Option.value ~default:0 (Hashtbl.find_opt by_site site));
            match run_case ~round ~seed ~ddl ~dml ~oracle ~site ~ordinal with
            | Consistent { committed = c } -> if c then incr committed
            | Unfired -> incr unfired
            | Mismatch m ->
              log
                (Printf.sprintf "MISMATCH round %d %s#%d: %s" m.m_round
                   m.m_site m.m_ordinal m.m_detail);
              mismatches := m :: !mismatches
          end)
          (ordinals total))
      reachable
  done;
  let stats =
    {
      cs_seed = seed;
      cs_rounds = !rounds;
      cs_cases = !cases;
      cs_unfired = !unfired;
      cs_committed = !committed;
      cs_by_site =
        List.map
          (fun s -> (s, Option.value ~default:0 (Hashtbl.find_opt by_site s)))
          sites;
      cs_mismatches = List.rev !mismatches;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
    (* registered first, so a clean sweep reports 0 mismatches *)
    ignore (Metrics.counter m "sb_crash_mismatches_total");
    Metrics.add_counters m
      [
        ("sb_crash_cases_total", None, stats.cs_cases);
        ("sb_crash_mismatches_total", None, List.length stats.cs_mismatches);
      ]);
  stats

let failures (s : stats) : int =
  List.length s.cs_mismatches
  + List.length (List.filter (fun (_, n) -> n = 0) s.cs_by_site)
  + s.cs_unfired

let report (s : stats) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "crash fuzz: seed=%d cases=%d rounds=%d\n" s.cs_seed
       s.cs_cases s.cs_rounds);
  List.iter
    (fun (site, n) ->
      Buffer.add_string b (Printf.sprintf "  %-12s %d cases\n" site n))
    s.cs_by_site;
  Buffer.add_string b
    (Printf.sprintf "  committed-at-crash %d, unfired %d\n" s.cs_committed
       s.cs_unfired);
  (match s.cs_mismatches with
  | [] -> Buffer.add_string b "  mismatches: 0\n"
  | ms ->
    Buffer.add_string b (Printf.sprintf "  mismatches: %d\n" (List.length ms));
    List.iter
      (fun m ->
        Buffer.add_string b
          (Printf.sprintf "  round %d %s#%d (%s) stmt [%s]: %s\n" m.m_round
             m.m_site m.m_ordinal
             (if m.m_committed then "committed" else "in-flight")
             m.m_stmt m.m_detail))
      ms);
  Buffer.contents b

let save_repro ~dir ~seed (i : int) (m : mismatch) : string =
  let path =
    Filename.concat dir (Printf.sprintf "crash_seed%d_%d.sql" seed i)
  in
  let oc = open_out path in
  Printf.fprintf oc "-- crash repro: seed %d, round %d, %s ordinal %d\n" seed
    m.m_round m.m_site m.m_ordinal;
  Printf.fprintf oc "-- in-flight: %s\n-- %s\n" m.m_stmt m.m_detail;
  List.iter (fun s -> Printf.fprintf oc "%s;\n" s) m.m_script;
  close_out oc;
  path
