(** Crash recovery: rebuilds a database instance from its write-ahead
    log.

    Statements run as serial, single-statement transactions, and a
    transaction reaches the log only when it commits, as one [Commit]
    record of value-based before/after tuple images; a statement that
    fails rolls back in memory and logs nothing.  So every readable
    record is committed work, and recovery is one forward pass: read the
    stable log (truncating at the first torn record), start from the
    last checkpoint's snapshot, and replay each later [Ddl] record
    through a caller-supplied callback (the language processor owns the
    parser) and each [Commit] record's changes through {!Table_store}.
    There is nothing to undo: an uncommitted statement's effects never
    reach the log.

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
  r_commits : int;  (** committed transactions replayed *)
  r_redone : int;  (** row changes replayed *)
  r_ddl : int;  (** DDL statements replayed *)
  r_from_checkpoint : bool;
}

(** Simulated process death: tables, views and buffered pages vanish;
    the WAL's volatile tail vanishes; only the stable log survives.
    After this, {!run} is the only way back to a usable instance. *)
let crash ~(catalog : Catalog.t) : unit =
  Catalog.reset_storage catalog;
  Wal.crash catalog.Catalog.wal

let redo_change ~catalog { Wal.c_table = table; c_before; c_after } =
  let tab =
    match Catalog.find_table catalog table with
    | Some tab -> tab
    | None ->
      Err.fail Err.Storage "recovery: change to unknown table %s" table
  in
  match (c_before, c_after) with
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
    Err.fail Err.Storage "recovery: empty change to %s" table

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
  let records, truncated = Wal.stable_records wal in
  (* replay from the LAST readable checkpoint; everything before it is
     already folded into its snapshots *)
  let replayed =
    List.fold_left
      (fun acc r -> match r with _, Wal.Checkpoint _ -> [ r ] | _ -> r :: acc)
      [] records
    |> List.rev
  in
  Catalog.reset_storage catalog;
  let commits = ref 0 and redone = ref 0 and ddl = ref 0 in
  let replay text =
    replay_ddl text;
    incr ddl
  in
  List.iter
    (fun (_lsn, r) ->
      match r with
      | Wal.Checkpoint { ck_ddl; ck_tables } ->
        List.iter replay ck_ddl;
        List.iter
          (fun (name, rows) ->
            match Catalog.find_table catalog name with
            | Some tab ->
              List.iter (fun row -> ignore (Table_store.insert tab row)) rows
            | None ->
              Err.fail Err.Storage
                "recovery: checkpoint snapshot for unknown table %s" name)
          ck_tables
      | Wal.Ddl text -> replay text
      | Wal.Commit changes ->
        List.iter (redo_change ~catalog) changes;
        incr commits;
        redone := !redone + List.length changes)
    replayed;
  (* statistics are not logged: rebuild them (this also bumps the
     epoch, invalidating any plan cached before the crash) *)
  Catalog.analyze_all catalog;
  Wal.set_needs_recovery wal false;
  {
    r_records = List.length records;
    r_truncated = truncated;
    r_commits = !commits;
    r_redone = !redone;
    r_ddl = !ddl;
    r_from_checkpoint =
      (match replayed with (_, Wal.Checkpoint _) :: _ -> true | _ -> false);
  }
