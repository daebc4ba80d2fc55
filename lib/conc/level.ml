(** The system-wide lock hierarchy.

    Every {!Lock.t} and {!Rwlock.t} carries a {e level}; the discipline
    checker ({!Discipline}) enforces that a domain only ever acquires a
    lock whose level is strictly greater than the level of every lock
    it already holds.  Acquisition order therefore always runs downward
    through this table, which makes deadlock between leveled locks
    impossible by construction — and makes any violation a one-line
    diagnosis naming both locks.

    The table is the single source of truth for the hierarchy (DESIGN
    §6.8 renders it with the guards-what column).  Outermost locks have
    the lowest levels:

    {v
    10  server.admission    admission counters, session table
    20  server.statements   the statement rwlock (readers | one writer)
    30  server.session      one session's statement ordering
    40  storage.catalog     table/view maps, the epoch counter
    50  storage.buffer_pool frame cache, file table, I/O accounting
    60  storage.wal         the log's stable/volatile regions
    70  core.plan_cache     the plan cache's hash table + LRU list
    80  obs.trace           a tracer's ring buffer and span stack
    85  resil.faults        a fault plan's ordinals and PRNG
    90  obs.metrics         the global metrics registry
    v}

    Leaving gaps keeps room for locks a future subsystem slots in
    between existing layers without renumbering. *)

let server_admission = 10
let server_statements = 20
let server_session = 30
let catalog = 40
let buffer_pool = 50
let wal = 60
let plan_cache = 70
let trace = 80
let faults = 85
let metrics = 90
