(** The write-ahead log: an append-only, LSN-stamped, CRC-checked log of
    value-based records with a volatile tail and a stable (crash-
    surviving) prefix.

    A transaction reaches the log only when it commits, as one
    {!Commit} record holding all its row changes; it is named by that
    record's LSN.  A statement that fails appends nothing.

    {!append} queues a record in the volatile tail; {!flush} forces the
    whole tail to the stable region in one step (group commit: a commit
    that forces the log also forces every record queued before it by
    any session sharing the log).  {!crash} simulates process death —
    the volatile tail vanishes — after which {!Recovery.run} rebuilds
    exactly the committed prefix from {!stable_records}.

    Crash injection sites (via the {!Sb_resil.Faults} plan installed
    with {!set_faults}): [wal.append] (the in-flight record is lost),
    [wal.flush] (a {e torn write} — the oldest pending record reaches
    stable storage with a corrupted CRC), and [checkpoint] (consulted
    before anything durable happens).

    Every record is one {!Row_codec} record whose first field is an INT
    tag, with row images as inline fields, so the log has no byte
    format of its own: bytes that pass their CRC but do not decode to a
    record end the readable prefix like a torn write. *)

(** One row change, as value images. *)
type change = {
  c_table : string;
  c_before : Tuple.t option;  (** [None] for an insert *)
  c_after : Tuple.t option;  (** [None] for a delete *)
}

type record =
  | Commit of change list  (** a transaction's changes, oldest first *)
  | Ddl of string  (** an auto-committed DDL statement, as Hydrogen text *)
  | Checkpoint of {
      ck_ddl : string list;  (** full DDL history, in execution order *)
      ck_tables : (string * Tuple.t list) list;
          (** table snapshots; a table's rows have one width *)
    }

type t

(** A fresh, empty log.  Its counts live only in {!stats};
    the language processor copies them into the database's registry
    when it dumps it ([sb_wal_appends_total], [sb_wal_flushes_total],
    [sb_wal_records_flushed_total], [sb_wal_checkpoints_total],
    [sb_wal_commits_total]). *)
val create : unit -> t

val set_faults : t -> Sb_resil.Faults.t -> unit

(** Persistence hook, called after every successful flush or checkpoint
    (outside the log's lock); the TCP server points it at
    {!save_file}. *)
val set_sink : t -> (unit -> unit) option -> unit

(** True between a {!crash} (or a {!load_file} that read records) and a
    successful recovery; the language processor refuses statements while
    set. *)
val needs_recovery : t -> bool

val set_needs_recovery : t -> bool -> unit

(** [SET wal_checkpoint = n]: a checkpoint every [n] commits of any
    session sharing the log; 0 (the default) disables. *)
val set_checkpoint_every : t -> int -> unit

(** Counts one commit: true when it completes the cadence (the count
    restarts).  A {!crash} keeps the count. *)
val checkpoint_due : t -> bool

(** Appends one record, returning its LSN.  Consults site
    [wal.append]. *)
val append : t -> record -> int

(** Forces the volatile tail to the stable region.  Consults site
    [wal.flush]; a crash there leaves a torn (CRC-corrupt) record. *)
val flush : t -> unit

(** Simulated process death: discards the volatile tail and flags
    recovery as required. *)
val crash : t -> unit

(** The stable region, oldest first, truncated at the first record
    that fails its CRC or does not decode; also returns how many
    records were truncated. *)
val stable_records : t -> (int * record) list * int

(** The LSNs of the [Commit] records in the readable stable prefix. *)
val commits : t -> int list

(** Takes a checkpoint (DDL history + the caller's table snapshots),
    forces the log, then compacts the stable region down to the
    checkpoint record.  Consults site [checkpoint] first. *)
val checkpoint : t -> tables:(string * Tuple.t list) list -> unit

type stats = {
  s_lsn : int;  (** highest LSN assigned *)
  s_stable : int;  (** records in the stable region *)
  s_pending : int;  (** records in the volatile tail *)
  s_appends : int;
  s_flushes : int;
  s_flushed_records : int;
  s_checkpoints : int;
  s_commits : int;
  s_needs_recovery : bool;
}

val stats : t -> stats

(** Writes the stable region to [path] (atomic rename), so a restarted
    process can {!load_file} it and recover. *)
val save_file : t -> string -> unit

(** Replaces the stable region with a previously saved log; returns the
    number of records read and flags recovery as required when
    non-zero.
    @raise Sb_resil.Err.Error (stage [Storage]) when the file cannot be
    read or does not start with an [SBWAL3] header; the log is left as
    it was. *)
val load_file : t -> string -> int

(** The CRC-32 (IEEE 802.3) each record carries over its bytes. *)
val crc32 : string -> int
