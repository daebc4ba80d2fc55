(** Crash recovery: rebuilds a database instance from its write-ahead
    log in one forward pass.

    Every readable record is committed work: a transaction reaches the
    log only as its [Commit] record.  Recovery reads the stable log
    (truncating at the first torn record), restores the last
    checkpoint's snapshot, then replays each later [Ddl] record through
    the caller's callback and each [Commit] record's changes through
    {!Table_store} (so indexes and constraints rebuild themselves).
    There is no undo: an uncommitted statement never reaches the log. *)

type stats = {
  r_records : int;  (** readable stable records *)
  r_truncated : int;  (** torn records dropped from the tail *)
  r_commits : int;  (** committed transactions replayed *)
  r_redone : int;  (** row changes replayed *)
  r_ddl : int;  (** DDL statements replayed *)
  r_from_checkpoint : bool;
}

(** Simulated process death: tables, views, buffered pages and the
    WAL's volatile tail vanish; only the stable log survives. *)
val crash : catalog:Catalog.t -> unit

(** Rebuilds the instance from the stable log; fault injection is
    suspended for the duration.  [replay_ddl] executes one DDL
    statement (Hydrogen text) with logging suppressed.  The run
    writes no registry: its caller counts it from the returned
    {!stats}.
    @raise Sb_resil.Err.Error (stage [Storage]) when a readable record
    cannot be replayed (a table or row image it names is missing). *)
val run : catalog:Catalog.t -> replay_ddl:(string -> unit) -> stats
