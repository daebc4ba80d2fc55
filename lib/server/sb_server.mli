(** Multi-session concurrent front end over one Starburst database.

    Each {!session} is a {!Starburst.Corona.session} of the server's
    database handle — its own SET options, host-variable bindings and
    resource limits — while all sessions share the database: catalog,
    extension registries, rule counts, WAL, metrics and the plan cache
    (one LRU table under one lock), through which every query runs.
    Every statement runs on the caller that submits it, behind an
    admission controller: under load, compilation degrades to greedy
    plans before anything queues without bound, and past the high-water
    mark statements are rejected with a structured, retryable
    [Resource] error.

    Within a session, statements execute in submission order.  Across
    sessions, queries, EXPLAIN of a query, EXPLAIN RULES and SET run
    concurrently; statements that may mutate shared state (DML, DDL,
    ANALYZE, and EXPLAIN of any of them, which runs the inner
    statement) are serialized behind a writer lock.  DDL bumps the
    catalog epoch, lazily invalidating stale entries of the shared plan
    cache.

    Both front ends — the shell and the [starburst_server] line
    protocol — answer meta-commands from one table, {!meta}, and both
    pass [Sb_extensions.Bundled.install] as [install] (the shell unless
    [--bare]), so they serve the same statements. *)

type t
type session

type config = {
  max_inflight : int;
      (** admission high-water mark: statements arriving while this many
          are in flight are rejected (retryable) *)
  degrade_inflight : int;
      (** load-shedding threshold: statements admitted past this point
          compile greedily (rewrite off, greedy STAR strategy) *)
  session_inflight : int;  (** per-session concurrent-statement cap *)
}

(** Sheds past [max 6 (2*w)] statements in flight and rejects past
    [max 8 (4*w)], where [w] is [min 8 (Domain.recommended_domain_count
    () - 1)]; the floors keep a one-core machine admitting.  Four
    statements per session. *)
val default_config : unit -> config

(** A fresh server (own database, shared plan cache).
    [limits] is the template copied into each new session's governor.
    [install] runs once, on the database handle, before any statement
    is served — the place to register extensions; every session and
    {!recover} see them, reading the registries without a lock. *)
val create :
  ?config:config ->
  ?limits:Sb_resil.Limits.t ->
  ?install:(Starburst.Corona.t -> unit) ->
  unit ->
  t

(** Opens a session.  Fails if the server is shut down. *)
val session : t -> session

val session_id : session -> int

(** The session's database handle, for direct host-variable binding or
    inspection.  Statement execution should go through {!submit} so the
    admission controller and locking discipline apply. *)
val session_db : session -> Starburst.Corona.t

val close_session : t -> session -> unit

(** [(session id, statements in flight)] for every open session. *)
val list_sessions : t -> (int * int) list

(** Runs one statement on the calling thread and returns its outcome.
    [Error e] carries the same structured classification as
    {!Starburst.Corona.run}, also for an exception the statement raises;
    admission rejections are [Resource] errors with [retryable = true]. *)
val submit :
  t -> session -> string -> (Starburst.Corona.result, Sb_resil.Err.t) result

type stats = {
  st_sessions : int;
  st_inflight : int;
  st_admitted : int;
  st_shed : int;
  st_rejected : int;
  st_epoch : int;  (** current catalog/statistics epoch *)
  st_cache : Starburst.Plan_cache.stats;
}

val stats : t -> stats

val catalog : t -> Sb_storage.Catalog.t

(** Stops accepting work: later submissions answer a [Resource] error.
    Statements already running finish. *)
val shutdown : t -> unit

(** {1 Durability}

    All sessions share the catalog's write-ahead log, so a commit that
    forces the log makes every earlier queued record durable with it
    (group commit). *)

(** The shared write-ahead log. *)
val wal : t -> Sb_storage.Wal.t

val wal_stats : t -> Sb_storage.Wal.stats

(** Forces the shared log (one group commit); called on graceful
    shutdown so no acknowledged work is lost. *)
val flush_wal : t -> unit

(** Runs crash recovery under the writer lock — no session observes the
    half-rebuilt database.
    @raise Starburst.Corona.Error (stage [Storage]) when a readable log
    record cannot be replayed. *)
val recover : t -> Sb_storage.Recovery.stats

(** {1 Lock discipline}

    Every lock of the server and its shared storage is a named,
    leveled {!Sb_conc.Lock}/{!Sb_conc.Rwlock}; when the discipline
    checker is armed ([STARBURST_LOCKCHECK=1], tests, [fuzz_main
    --races]) it enforces level ordering, flags re-entrancy and
    unlock-without-lock, runs Eraser-style lockset race detection over
    the instrumented shared fields, and reports cycles in the observed
    lock-acquisition graph.  [\locks] prints its deterministic report,
    and [\metrics] its [sb_lock_*]/[sb_race_*] counters. *)

(** {1 Meta-commands} *)

(** [meta t s line] answers a backslash command for session [s], or
    [None] when [line] is not one.  The table: [\stats] (the session's
    last statement: execution counters and rewrite firings), [\limits]
    (the session's limits and last consumption), [\cache] (plan cache
    and epoch), [\sessions] (open sessions with their in-flight counts;
    admitted, shed, rejected, epoch), [\wal], [\metrics]
    ({!Starburst.Corona.metrics_dump}, with the admission counters of
    {!stats} and the lock counters copied in as
    [sb_server_{admitted,shed,rejected}_total] and
    [sb_lock_*]/[sb_race_*]), [\locks],
    [\trace [json|clear]] (the session's tracer), [\check] (catalog
    lints).  [\rules], [\check QUERY] and [\infer QUERY] are
    submitted as [EXPLAIN RULES], [EXPLAIN VERIFY QUERY] and
    [EXPLAIN ANALYSIS QUERY]; QUERY must parse as a query, so a
    diagnostic never runs DML or DDL (anything else answers a parse
    error).  Anything else is
    [unknown meta-command \x].  Quitting is the front end's business.
    The answer carries no trailing newline. *)
val meta : t -> session -> string -> string option
