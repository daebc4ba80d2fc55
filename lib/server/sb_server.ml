(** The multi-session concurrent front end.

    Starburst's pipeline lives in a {e session}: a per-client
    {!Starburst.Corona.session} of the server's one database handle,
    carrying SET options, host-variable bindings and resource limits.
    Every session of one server shares the database's catalog, its
    extension registries (installed once) and a single
    {!Starburst.Plan_cache} — the paper's point that "the result of the
    compilation stage can be stored for future use" pays off across
    clients, not just across calls.

    Every statement runs on the caller that submits it — a client
    domain, or a TCP connection's thread — behind an admission
    controller that keeps the server deterministic under overload: up
    to [degrade_inflight] concurrent statements compile at full
    optimization; past that, new statements are {e shed} — compiled with
    the greedy STAR strategy, rewrite off (a cheap plan always exists) —
    and past [max_inflight] they are rejected with a structured,
    retryable [Resource] error rather than queued without bound.

    Consistency model: within a session, statements execute in
    submission order.  Across sessions, reads (SELECT / EXPLAIN) run
    concurrently; any statement that may mutate shared state (DML, DDL,
    ANALYZE) takes the server's writer lock, so readers never observe a
    half-applied write.  DDL bumps the catalog epoch, which lazily
    invalidates every stale entry of the shared plan cache. *)

module Corona = Starburst.Corona
module Plan_cache = Starburst.Plan_cache
module Generator = Starburst.Generator
module Star = Starburst.Star
module Catalog = Sb_storage.Catalog
module Err = Sb_resil.Err
module Limits = Sb_resil.Limits
module Metrics = Sb_obs.Metrics
module Rwlock = Sb_conc.Rwlock
module Lock = Sb_conc.Lock


(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

type config = {
  max_inflight : int;
      (** admission high-water mark: statements admitted while this many
          are already in flight are rejected with a retryable error *)
  degrade_inflight : int;
      (** load-shedding threshold: statements admitted past this point
          compile greedily (rewrite off, greedy STAR strategy) *)
  session_inflight : int;  (** per-session concurrent-statement cap *)
}

(* Scaled with the cores beyond the first, up to 8; the floors keep a
   one-core box admitting. *)
let default_config () =
  let w = min 8 (Domain.recommended_domain_count () - 1) in
  {
    max_inflight = max 8 (4 * w);
    degrade_inflight = max 6 (2 * w);
    session_inflight = 4;
  }

type session = {
  s_id : int;
  s_db : Corona.t;
  s_lock : Lock.t;  (** statements of one session run in order *)
  mutable s_inflight : int;
  mutable s_closed : bool;
}

type t = {
  base : Corona.t;
      (** the database, extended once; each session is a {!Corona.session}
          of it, with a copy of its limits *)
  config : config;
  lock : Lock.t;  (** guards sessions, counters, admission decisions *)
  sessions : (int, session) Hashtbl.t;
  mutable next_session : int;
  mutable inflight : int;
  mutable admitted : int;
  mutable shed : int;
  mutable rejected : int;
  mutable closed : bool;
  rw : Rwlock.t;
}

(* the race detector's view of the admission counters + session table,
   named per server *)
let watch_state t ~site ~write =
  Sb_conc.Discipline.access_of ~owner:(Lock.id t.lock) ~field:"server.state" ~site ~write

type stats = {
  st_sessions : int;
  st_inflight : int;
  st_admitted : int;
  st_shed : int;
  st_rejected : int;
  st_epoch : int;
  st_cache : Plan_cache.stats;
}

let locked t f = Lock.with_lock t.lock f

let create ?config ?limits ?install () =
  let config = match config with Some c -> c | None -> default_config () in
  let base = Corona.create ?limits () in
  Option.iter (fun install -> install base) install;
  {
    base;
    config;
    lock =
      Lock.create ~name:"server.admission"
        ~level:Sb_conc.Level.server_admission;
    sessions = Hashtbl.create 16;
    next_session = 0;
    inflight = 0;
    admitted = 0;
    shed = 0;
    rejected = 0;
    closed = false;
    rw =
      Rwlock.create ~name:"server.statements"
        ~level:Sb_conc.Level.server_statements;
  }

let catalog t = t.base.Corona.catalog

let new_session_db t =
  Corona.session ~limits:(Limits.copy (Corona.limits t.base)) t.base

let session t =
  locked t (fun () ->
      watch_state t ~site:"Sb_server.session" ~write:true;
      if t.closed then failwith "Sb_server.session: server is shut down";
      let id = t.next_session in
      t.next_session <- id + 1;
      let s =
        {
          s_id = id;
          s_db = new_session_db t;
          s_lock =
            Lock.create ~name:"server.session"
              ~level:Sb_conc.Level.server_session;
          s_inflight = 0;
          s_closed = false;
        }
      in
      Hashtbl.replace t.sessions id s;
      s)

let session_id s = s.s_id
let session_db s = s.s_db

let close_session t s =
  locked t (fun () ->
      watch_state t ~site:"Sb_server.close_session" ~write:true;
      s.s_closed <- true;
      Hashtbl.remove t.sessions s.s_id)

let list_sessions t =
  locked t (fun () ->
      watch_state t ~site:"Sb_server.list_sessions" ~write:false;
      Hashtbl.fold (fun id s acc -> (id, s.s_inflight) :: acc) t.sessions [])
  |> List.sort compare

let stats t =
  let sessions, inflight, admitted, shed, rejected =
    locked t (fun () ->
        watch_state t ~site:"Sb_server.stats" ~write:false;
        (Hashtbl.length t.sessions, t.inflight, t.admitted, t.shed, t.rejected))
  in
  {
    st_sessions = sessions;
    st_inflight = inflight;
    st_admitted = admitted;
    st_shed = shed;
    st_rejected = rejected;
    st_epoch = Catalog.epoch (catalog t);
    st_cache = Plan_cache.stats t.base.Corona.plan_cache;
  }

(* ------------------------------------------------------------------ *)
(* Statement classification                                            *)
(* ------------------------------------------------------------------ *)

let first_word text =
  let n = String.length text in
  let is_sep c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '(' in
  let i = ref 0 in
  while !i < n && is_sep text.[!i] do incr i done;
  let start = !i in
  while !i < n && not (is_sep text.[!i]) do incr i done;
  String.lowercase_ascii (String.sub text start (!i - start))

(* [`Query] goes through the shared plan cache; [`Read] runs without
   caching but still under the reader lock; [`Write] may mutate shared
   state (DML, DDL, ANALYZE) and takes the writer lock.  The first word
   settles all but EXPLAIN and SET, which are parsed: EXPLAIN of DML or
   DDL runs the inner statement, so it writes ({!Corona.read_only}).
   Text that does not parse fails the same way under either lock. *)
let classify text =
  match first_word text with
  | "select" | "with" -> `Query
  | "explain" | "set" -> (
    match Corona.Parser.statement text with
    | stmt -> if Corona.read_only stmt then `Read else `Write
    | exception (Corona.Parser.Parse_error _ | Sb_hydrogen.Lexer.Lex_error _) ->
      `Write)
  | _ -> `Write

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let classify_error text exn : Err.t =
  match Corona.classify_exn text exn with
  | Some (Corona.Error e) -> e
  | _ -> (
    match exn with
    | Corona.Error e | Err.Error e -> e
    | Sb_conc.Discipline.Violation d ->
      Err.with_query text (Err.of_lock_diag d)
    | exn -> Err.make ~query:text Err.Internal (Printexc.to_string exn))

(* runs [f] with the session's compiler flipped to its cheapest
   settings; the settings fingerprint keys shed plans separately, so a
   shed compilation never masquerades as a fully optimized one *)
let with_shed db f =
  let sctx = db.Corona.optimizer.Generator.sctx in
  let saved_strategy = sctx.Star.strategy in
  let saved_rewrite = db.Corona.rewrite_enabled in
  sctx.Star.strategy <- Star.greedy_strategy;
  db.Corona.rewrite_enabled <- false;
  Fun.protect
    ~finally:(fun () ->
      sctx.Star.strategy <- saved_strategy;
      db.Corona.rewrite_enabled <- saved_rewrite)
    f

let execute t s ~shed text : Corona.result =
  let kind = classify text in
  let run () =
    Lock.with_lock s.s_lock (fun () ->
        let go () =
          match kind with
          | `Query ->
            let columns, rows = Corona.cached_query s.s_db text in
            Corona.Rows { columns; rows }
          | _ -> Corona.run s.s_db text
        in
        if shed then with_shed s.s_db go else go ())
  in
  match kind with
  | `Query | `Read -> Rwlock.with_read t.rw run
  | `Write -> Rwlock.with_write t.rw run

(* ------------------------------------------------------------------ *)
(* Admission + submission                                              *)
(* ------------------------------------------------------------------ *)

let reject t ~msg text =
  locked t (fun () ->
      watch_state t ~site:"Sb_server.reject" ~write:true;
      t.rejected <- t.rejected + 1);
  Error (Err.make ~query:text ~retryable:true Err.Resource msg)

(* The admission decision and the counters move together under the
   server lock; the admitted statement runs on the caller's own thread. *)
let submit t s (text : string) : (Corona.result, Err.t) result =
  let decision =
    locked t (fun () ->
        watch_state t ~site:"Sb_server.submit" ~write:true;
        if t.closed then `Closed
        else if s.s_closed then `Session_closed
        else if t.inflight >= t.config.max_inflight then `Reject
        else if s.s_inflight >= t.config.session_inflight then `Session_cap
        else begin
          t.inflight <- t.inflight + 1;
          s.s_inflight <- s.s_inflight + 1;
          t.admitted <- t.admitted + 1;
          if t.inflight > t.config.degrade_inflight then begin
            t.shed <- t.shed + 1;
            `Admit true
          end
          else `Admit false
        end)
  in
  match decision with
  | `Closed -> Error (Err.make ~query:text Err.Resource "server is shut down")
  | `Session_closed -> Error (Err.make ~query:text Err.Resource "session is closed")
  | `Reject ->
    reject t text
      ~msg:
        (Fmt.str "server over capacity (%d statements in flight); retry"
           t.config.max_inflight)
  | `Session_cap ->
    reject t text
      ~msg:
        (Fmt.str "session over its concurrency limit (%d); retry"
           t.config.session_inflight)
  | `Admit shed ->
    Fun.protect
      ~finally:(fun () ->
        locked t (fun () ->
            watch_state t ~site:"Sb_server.statement_done" ~write:true;
            t.inflight <- t.inflight - 1;
            s.s_inflight <- s.s_inflight - 1))
      (fun () ->
        match execute t s ~shed text with
        | result -> Ok result
        | exception exn -> Error (classify_error text exn))

let shutdown t =
  locked t (fun () ->
      watch_state t ~site:"Sb_server.shutdown" ~write:true;
      t.closed <- true)

(* ------------------------------------------------------------------ *)
(* Durability                                                          *)
(* ------------------------------------------------------------------ *)

let wal t = (catalog t).Catalog.wal
let wal_stats t = Sb_storage.Wal.stats (wal t)

(** Forces the shared log: everything any session has queued becomes
    durable (one group commit).  Called by the TCP server on graceful
    shutdown so no acknowledged work is lost. *)
let flush_wal t = Sb_storage.Wal.flush (wal t)

(** Runs crash recovery under the writer lock — no session can observe
    the half-rebuilt database.  A scratch session replays the logged
    DDL; it sees the extensions installed on the database.
    @raise Corona.Error (stage [Storage]) when a readable log record
    cannot be replayed. *)
let recover t : Sb_storage.Recovery.stats =
  Rwlock.with_write t.rw @@ fun () -> Corona.recover (new_session_db t)

(* ------------------------------------------------------------------ *)
(* Meta-commands                                                       *)
(* ------------------------------------------------------------------ *)

let stats_lines db =
  let c = Corona.counters db in
  let open Corona.Exec in
  [
    "execution counters (last query):";
    Fmt.str "  scanned=%d index_probes=%d shipped=%d sorted=%d output=%d"
      c.c_scanned c.c_index_probes c.c_shipped c.c_sorted c.c_output;
    Fmt.str "  sub_evals=%d sub_cache_hits=%d or_branch_evals=%d fixpoint_rounds=%d"
      c.c_sub_evals c.c_sub_cache_hits c.c_or_branch_evals c.c_fixpoint_rounds;
  ]
  @
  match Corona.last_rewrite db with
  | None -> [ "rewrite: (none for the last statement; a cached plan skips it)" ]
  | Some st ->
    let module Engine = Corona.Engine in
    Fmt.str "rewrite: %d fired / %d examined in %d passes%s"
      st.Engine.rules_fired st.Engine.rules_examined st.Engine.passes
      (if st.Engine.budget_exhausted then " (budget exhausted)" else "")
    :: Fmt.str "  %-32s %7s %9s" "rule" "fires" "attempts"
    :: List.filter_map
         (fun (name, fires, attempts) ->
           if fires > 0 then Some (Fmt.str "  %-32s %7d %9d" name fires attempts)
           else None)
         (Engine.per_rule st)

let limits_lines db =
  ("session limits (SET limit_<name> = n, 0 = unlimited):"
   :: List.map
        (fun (name, value) -> Fmt.str "  %-20s %s" name value)
        (Limits.describe (Corona.limits db)))
  @ ("consumption (last statement):"
    :: List.map
         (fun (name, used, limit) ->
           Fmt.str "  %-20s %d%s" name used
             (if limit = 0 then "" else Fmt.str " / %d" limit))
         (Limits.consumption (Corona.last_gov db)))
  @
  match Corona.last_degraded db with
  | None -> []
  | Some reason -> [ "degraded: " ^ reason ]

let cache_lines t =
  let c = Plan_cache.stats t.base.Corona.plan_cache in
  [
    "plan cache:";
    Fmt.str "  hits          %d" c.Plan_cache.hits;
    Fmt.str "  misses        %d" c.Plan_cache.misses;
    Fmt.str "  evictions     %d" c.Plan_cache.evictions;
    Fmt.str "  invalidations %d" c.Plan_cache.invalidations;
    Fmt.str "  resident      %d" c.Plan_cache.resident;
    Fmt.str "  epoch         %d" (Catalog.epoch (catalog t));
  ]

let sessions_lines t s =
  let st = stats t in
  List.map
    (fun (id, inflight) ->
      Fmt.str "session %d  inflight %d%s" id inflight
        (if id = s.s_id then "  (this session)" else ""))
    (list_sessions t)
  @ [
      Fmt.str "admitted %d  shed %d  rejected %d  epoch %d" st.st_admitted
        st.st_shed st.st_rejected st.st_epoch;
    ]

let wal_lines t =
  let module Wal = Sb_storage.Wal in
  let w = wal_stats t in
  [
    "write-ahead log:";
    Fmt.str "  needs_recovery   %b" w.Wal.s_needs_recovery;
    Fmt.str "  lsn              %d" w.Wal.s_lsn;
    Fmt.str "  stable records   %d" w.Wal.s_stable;
    Fmt.str "  pending records  %d" w.Wal.s_pending;
    Fmt.str "  appends          %d" w.Wal.s_appends;
    Fmt.str "  flushes          %d" w.Wal.s_flushes;
    Fmt.str "  flushed records  %d" w.Wal.s_flushed_records;
    Fmt.str "  checkpoints      %d" w.Wal.s_checkpoints;
    Fmt.str "  commits          %d" w.Wal.s_commits;
  ]

let trace_text db arg =
  let tr = Corona.tracer db in
  if not (Sb_obs.Trace.enabled tr) then "tracing is off; enable with SET trace = on"
  else
    match arg with
    | "json" -> Sb_obs.Trace.to_json tr
    | "clear" ->
      Sb_obs.Trace.clear tr;
      ""
    | _ -> Sb_obs.Trace.to_tree tr

let check_catalog_lines t =
  let module Lint = Corona.Lint in
  match Rwlock.with_read t.rw (fun () -> Lint.lint_catalog (catalog t)) with
  | [] -> [ "catalog: no lint findings" ]
  | diags -> List.map Lint.diag_to_string diags

(* a meta-command that names a statement runs as that statement, so its
   errors are classified like any other *)
let submitted t s text =
  match submit t s text with
  | Ok r -> Corona.render_result ~registry:(catalog t).Catalog.datatypes r
  | Error e -> "error: " ^ Err.to_string e

(* [\check Q] and [\infer Q] explain a query; the argument must parse as
   one, because EXPLAIN of DML or DDL runs the inner statement *)
let explained_query t s mode query =
  match Corona.Parser.query_text query with
  | _ -> submitted t s (mode ^ " " ^ query)
  | exception exn -> "error: " ^ Err.to_string (classify_error query exn)

let rec drop_trailing_newlines text =
  let n = String.length text in
  if n > 0 && text.[n - 1] = '\n' then
    drop_trailing_newlines (String.sub text 0 (n - 1))
  else text

(** The meta-command table shared by the shell and the TCP server. *)
let meta t s line =
  let line = String.trim line in
  if line = "" || line.[0] <> '\\' then None
  else
    let cmd, arg =
      match String.index_opt line ' ' with
      | None -> (line, "")
      | Some i ->
        (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
    in
    let query =
      (* [\check q;] and [\infer q;]: the query without its terminator *)
      let n = String.length arg in
      if n > 0 && arg.[n - 1] = ';' then String.sub arg 0 (n - 1) else arg
    in
    let lines = String.concat "\n" in
    let in_session f = Lock.with_lock s.s_lock (fun () -> f s.s_db) in
    let text =
      match cmd with
      | "\\stats" -> lines (in_session stats_lines)
      | "\\limits" -> lines (in_session limits_lines)
      | "\\cache" -> lines (cache_lines t)
      | "\\sessions" -> lines (sessions_lines t s)
      | "\\wal" -> lines (wal_lines t)
      | "\\metrics" ->
        (* the lock checker's counters are the process's and the
           admission counters the server's, so only the server's dump
           mirrors them *)
        let st = stats t in
        List.iter
          (fun (name, v) -> Metrics.set (Metrics.counter (Corona.metrics t.base) name) v)
          (("sb_server_admitted_total", st.st_admitted)
          :: ("sb_server_shed_total", st.st_shed)
          :: ("sb_server_rejected_total", st.st_rejected)
          :: Sb_conc.Discipline.metric_counters ());
        Corona.metrics_dump t.base
      | "\\locks" ->
        Sb_conc.Discipline.report_text ()
        ^
        if Sb_conc.Discipline.armed () then ""
        else "  (checker disarmed; arm with STARBURST_LOCKCHECK=1)"
      | "\\trace" -> in_session (fun db -> trace_text db arg)
      | "\\rules" -> submitted t s "EXPLAIN RULES"
      | "\\check" when query = "" -> lines (check_catalog_lines t)
      | "\\check" -> explained_query t s "EXPLAIN VERIFY" query
      | "\\infer" when query = "" -> "usage: \\infer SELECT ..."
      | "\\infer" -> explained_query t s "EXPLAIN ANALYSIS" query
      | _ -> "unknown meta-command " ^ cmd
    in
    Some (drop_trailing_newlines text)
