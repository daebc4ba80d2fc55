(** A stored table: schema + storage-manager instance + attachments.

    All mutations go through here so that attachments stay consistent
    with the base records — the contract Corona relies on when it picks
    an access path. *)

type t = {
  name : string;
  schema : Schema.t;
  storage : Storage_manager.instance;
  storage_kind : string;
  mutable attachments : Access_method.instance list;
  mutable stats : Stats.t;
  registry : Datatype.registry;
}

val create :
  name:string ->
  schema:Schema.t ->
  storage:Storage_manager.instance ->
  storage_kind:string ->
  registry:Datatype.registry ->
  t

exception Constraint_violation of string

(** @raise Sb_resil.Err.Error (stage [Storage]) on schema violations.
    @raise Constraint_violation when an attachment's check rejects the
    tuple (e.g. a UNIQUE constraint). *)
val insert : t -> Tuple.t -> Storage_manager.rid

val delete : t -> Storage_manager.rid -> bool

(** Updates in place when possible, else deletes and reinserts;
    attachments are maintained either way.  Returns the rid the row
    lives at afterwards (a grown record moves), or [None] when no record
    is at the rid. *)
val update : t -> Storage_manager.rid -> Tuple.t -> Storage_manager.rid option

val fetch : t -> Storage_manager.rid -> Tuple.t option
val tuple_count : t -> int
val page_count : t -> int

(** Every live record with every column, in page and slot order, built
    on the storage manager's [scan_page]; the page count is fixed when
    the scan starts. *)
val scan : t -> (Storage_manager.rid * Tuple.t) Seq.t

(** The first record equal to [row] under the table's type registry: a
    full scan, used by value-based recovery redo. *)
val find_rid : t -> Tuple.t -> Storage_manager.rid option
val truncate : t -> unit

(** Attaches an access method and back-fills it from existing records.
    @raise Sb_resil.Err.Error (stage [Storage]) on duplicate attachment
    names. *)
val attach : t -> Access_method.instance -> unit

val detach : t -> string -> unit
val find_attachment : t -> string -> Access_method.instance option

(** Recomputes and stores the table's statistics from a full scan. *)
val analyze : t -> Stats.t
