(** Crash-point differential fuzzing for the durability path.

    Each round draws a catalog, materializes it, and generates a DML
    workload (one implicit transaction per statement).  An oracle run
    with no faults snapshots every table after each statement prefix.
    A scout run with an armed-but-ruleless fault plan counts how many
    times each crash site ([wal.append], [wal.flush], [checkpoint]) is
    consulted — enumerating every reachable crash ordinal.  Then, for
    up to eight ordinals of each site, spread evenly over its range
    (every ordinal when it has no more), a fresh database runs the same
    workload with a {!Sb_resil.Faults.Crash} armed at
    exactly that consult, loses its volatile state, recovers from the
    stable log, and is compared against the oracle:

    - if the in-flight statement's Commit record reached the stable
      log before the crash, the recovered state must equal the oracle
      state {e with} that statement;
    - otherwise the client never saw success, so either prefix state
      (with or without it) is acceptable — anything else is a
      durability bug.

    Everything is a pure function of [seed]: reports are byte-for-byte
    reproducible. *)

val sites : string list

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
      (** armed ordinals never reached (always 0 unless the scout and
          the victim diverge — itself a determinism bug) *)
  cs_committed : int;
      (** cases whose in-flight statement had already committed, i.e.
          where the strict must-equal-with check applied *)
  cs_by_site : (string * int) list;
      (** cases per site, one entry for every site in {!sites} — 0 when
          the sweep never reached it *)
  cs_mismatches : mismatch list;
}

(** [run ~seed ~n ()] executes [n] crash cases (rounds of 12-statement
    workloads, up to eight spread ordinals of each reachable site per
    round).  [log] receives one line per mismatch as found.  Counters
    land in [metrics] as [sb_crash_cases_total] and
    [sb_crash_mismatches_total]. *)
val run :
  ?metrics:Sb_obs.Metrics.t ->
  ?log:(string -> unit) ->
  seed:int ->
  n:int ->
  unit ->
  stats

(** How many things went wrong: each mismatch, each site with no
    cases and each unfired case.  [fuzz_main --crash] exits with it. *)
val failures : stats -> int

(** Deterministic multi-line summary (no timestamps, no durations). *)
val report : stats -> string

(** Writes one mismatch as a runnable [.sql] repro under [dir];
    returns the path. *)
val save_repro : dir:string -> seed:int -> int -> mismatch -> string
