(** Crash recovery: rebuilds a database instance from its write-ahead
    log.

    Analysis reads the stable log (truncating at the first torn
    record), finds the last checkpoint, and computes the {e winners} —
    transactions whose [Commit] reached the stable prefix.  Redo then
    replays forward from the checkpoint: DDL through the caller's
    callback, winner [Update] records through {!Table_store} (so
    indexes and constraints rebuild themselves).  Losers and aborted
    transactions are skipped entirely — runtime rollback does not log
    compensation records, so their effects simply never reappear. *)

type stats = {
  r_records : int;  (** readable stable records *)
  r_truncated : int;  (** torn records dropped from the tail *)
  r_winners : int;  (** committed transactions restored *)
  r_losers : int;  (** in-flight or aborted transactions discarded *)
  r_redone : int;  (** update records replayed *)
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
