(** Crash recovery: rebuilds a database instance from its write-ahead
    log.

    The scheme is ARIES-shaped but adapted to this storage engine's
    simplifications.  Statements run as serial, single-statement
    transactions, updates are logged as value-based before/after tuple
    images, and runtime rollback compensates through {!Table_store}
    without logging CLRs.  That makes recovery a two-pass affair:

    - {e analysis}: read the stable log (truncating at the first torn
      record), find the last checkpoint, and compute the {e winners} —
      transactions whose [Commit] record reached the stable prefix.
    - {e redo}: replay the log forward from the checkpoint.  DDL records
      replay through a caller-supplied callback (the language processor
      owns the parser); [Update] records replay through {!Table_store}
      — but only for winners.  Losers (in-flight at the crash) and
      explicitly aborted transactions are skipped entirely, which is
      exactly the no-CLR undo: their effects simply never reappear.

    Replaying through {!Table_store} (rather than pages) means indexes,
    unique constraints and statistics rebuild themselves: attachments
    are re-created by the DDL replay and maintained by every replayed
    mutation, and a final {!Catalog.analyze_all} refreshes statistics
    and bumps the catalog epoch so cached plans cannot survive a
    crash. *)

module Faults = Sb_resil.Faults
module Err = Sb_resil.Err

type stats = {
  r_records : int;  (** readable stable records *)
  r_truncated : int;  (** torn records dropped from the tail *)
  r_winners : int;  (** committed transactions restored *)
  r_losers : int;  (** in-flight or aborted transactions discarded *)
  r_redone : int;  (** update records replayed *)
  r_ddl : int;  (** DDL statements replayed *)
  r_from_checkpoint : bool;
}

(** Simulated process death: tables, views and buffered pages vanish;
    the WAL's volatile tail vanishes; only the stable log survives.
    After this, {!run} is the only way back to a usable instance. *)
let crash ~(catalog : Catalog.t) : unit =
  Catalog.reset_storage catalog;
  Wal.crash catalog.Catalog.wal

let redo_update ~catalog ~table ~before ~after =
  let tab =
    match Catalog.find_table catalog table with
    | Some tab -> tab
    | None ->
      Err.fail Err.Storage "recovery: update record for unknown table %s" table
  in
  match (before, after) with
  | None, Some row -> ignore (Table_store.insert tab row)
  | Some row, None -> (
    match Table_store.find_rid tab row with
    | Some rid -> ignore (Table_store.delete tab rid)
    | None ->
      Err.fail Err.Storage "recovery: delete image not found in %s" table)
  | Some b, Some a -> (
    match Table_store.find_rid tab b with
    | Some rid -> ignore (Table_store.update tab rid a)
    | None ->
      Err.fail Err.Storage "recovery: update image not found in %s" table)
  | None, None ->
    Err.fail Err.Storage "recovery: empty update record for %s" table

(** Rebuilds the instance from the stable log.  [replay_ddl] executes
    one DDL statement (Hydrogen text) against the catalog — the
    language processor passes its own statement runner, with logging
    suppressed.  Fault injection is suspended for the duration: a
    recovering process does not inject its own faults.
    @raise Sb_resil.Err.Error (stage [Storage]) when a readable record
    cannot be replayed (a table or row image it names is missing). *)
let run ~(catalog : Catalog.t) ~(replay_ddl : string -> unit) : stats =
  let wal = catalog.Catalog.wal in
  let saved_faults = Catalog.faults catalog in
  Catalog.set_faults catalog Faults.none;
  Fun.protect ~finally:(fun () -> Catalog.set_faults catalog saved_faults)
  @@ fun () ->
  (* analysis: readable prefix, winners, last checkpoint *)
  let records, truncated = Wal.stable_records wal in
  let winners = Hashtbl.create 64 and commits = ref 0 in
  List.iter
    (function
      | _, Wal.Commit txn ->
        Hashtbl.replace winners txn ();
        incr commits
      | _ -> ())
    records;
  let won txn = Hashtbl.mem winners txn in
  let losers =
    List.fold_left
      (fun n -> function _, Wal.Begin txn when not (won txn) -> n + 1 | _ -> n)
      0 records
  in
  let after_checkpoint =
    (* replay from the LAST readable checkpoint; everything before it
       is already folded into its snapshots *)
    List.fold_left
      (fun acc (lsn, r) ->
        match r with Wal.Checkpoint _ -> [ (lsn, r) ] | _ -> (lsn, r) :: acc)
      [] records
    |> List.rev
  in
  let from_checkpoint =
    match after_checkpoint with
    | (_, Wal.Checkpoint _) :: _ -> true
    | _ -> false
  in
  (* redo: start from an empty instance, replay forward *)
  Catalog.reset_storage catalog;
  let redone = ref 0 and ddl = ref 0 in
  List.iter
    (fun (_lsn, r) ->
      match r with
      | Wal.Checkpoint { ck_ddl; ck_tables } ->
        List.iter
          (fun text ->
            replay_ddl text;
            incr ddl)
          ck_ddl;
        List.iter
          (fun (name, rows) ->
            match Catalog.find_table catalog name with
            | Some tab ->
              List.iter (fun row -> ignore (Table_store.insert tab row)) rows
            | None ->
              Err.fail Err.Storage
                "recovery: checkpoint snapshot for unknown table %s" name)
          ck_tables
      | Wal.Ddl text ->
        replay_ddl text;
        incr ddl
      | Wal.Update { u_txn; u_table; u_before; u_after }
        when won u_txn ->
        redo_update ~catalog ~table:u_table ~before:u_before ~after:u_after;
        incr redone
      | Wal.Update _ | Wal.Begin _ | Wal.Commit _ | Wal.Abort _ -> ())
    after_checkpoint;
  (* statistics are not logged: rebuild them (this also bumps the
     epoch, invalidating any plan cached before the crash) *)
  Catalog.analyze_all catalog;
  Wal.set_needs_recovery wal false;
  {
    r_records = List.length records;
    r_truncated = truncated;
    r_winners = !commits;
    r_losers = losers;
    r_redone = !redone;
    r_ddl = !ddl;
    r_from_checkpoint = from_checkpoint;
  }
