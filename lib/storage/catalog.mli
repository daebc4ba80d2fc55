(** The catalog: tables, views, attachments, and the extension
    registries of one database instance.

    Views are stored as their Hydrogen text plus optional column
    renames; the language processor (which owns the parser) expands
    them, keeping Core independent of Corona as in the paper's
    layering. *)

type view_def = {
  view_name : string;
  view_text : string;  (** the defining query, Hydrogen text *)
  view_columns : string list option;  (** optional column renames *)
}

type t = {
  pool : Buffer_pool.t;
  lock : Sb_conc.Lock.t;  (** guards the table/view maps and the epoch *)
  datatypes : Datatype.registry;
  storage_managers : Storage_manager.registry;
  access_methods : Access_method.registry;
  tables : (string, Table_store.t) Hashtbl.t;
  views : (string, view_def) Hashtbl.t;
  mutable epoch : int;
      (** bumped by every DDL statement and statistics refresh; the
          plan cache invalidates on mismatch (read via {!epoch}) *)
  mutable site_of : string -> string;
      (** simulated-distribution hook: the site a table lives at
          (default: every table is ["local"]) *)
  mutable faults : Sb_resil.Faults.t;
      (** fault-injection plan; {!set_faults} also installs it on the
          buffer pool and the WAL *)
  wal : Wal.t;
      (** the instance's write-ahead log; sessions sharing a catalog
          share the log (group commit) *)
  metrics : Sb_obs.Metrics.t;
      (** the database's one metrics registry: every session sharing
          the catalog and a server over it record here; the counts the
          WAL and the buffer pool keep are copied in when it is dumped *)
}

exception Catalog_error of string

(** A fresh database instance with the built-in storage managers (heap,
    fixed) and access-method kinds (btree) registered, over a buffer
    pool of 256 pages. *)
val create : unit -> t

(** The catalog/statistics epoch: changes whenever a definition or its
    statistics may have changed, so a plan compiled at epoch [e] is
    trustworthy iff [epoch t = e] still holds. *)
val epoch : t -> int

(** Advances the epoch without a definition change — used by callers
    that refresh statistics outside the catalog (single-table ANALYZE). *)
val bump_epoch : t -> unit

(** Installs a fault plan on the catalog (site ["catalog.lookup"]),
    its buffer pool (["buffer.pin"]) and — via probe-time consult — all
    index searches (["<kind>.search"]). *)
val set_faults : t -> Sb_resil.Faults.t -> unit

val faults : t -> Sb_resil.Faults.t
val find_table : t -> string -> Table_store.t option
val find_view : t -> string -> view_def option
val table_exists : t -> string -> bool
val view_exists : t -> string -> bool
val table_names : t -> string list
val view_names : t -> string list

(** [storage] names a registered storage manager (default ["heap"]).
    @raise Catalog_error on duplicates or unknown/unsupported managers. *)
val create_table :
  t -> ?storage:string -> name:string -> schema:Schema.t -> unit -> Table_store.t

val drop_table : t -> string -> unit

val create_view :
  t -> name:string -> text:string -> ?columns:string list -> unit -> unit

val drop_view : t -> string -> unit

(** Creates an index (attachment) of a registered [kind] on [table] and
    back-fills it. *)
val create_index :
  t ->
  name:string ->
  table:string ->
  kind:string ->
  columns:string list ->
  Access_method.instance

val drop_index : t -> table:string -> name:string -> unit

val analyze_all : t -> unit

(** A consistent snapshot of every table's contents (sorted by name),
    the payload of a fuzzy checkpoint. *)
val snapshot_tables : t -> (string * Tuple.t list) list

(** Simulated process death: every table, view and buffered page
    vanishes; only the WAL's stable region survives. *)
val reset_storage : t -> unit
