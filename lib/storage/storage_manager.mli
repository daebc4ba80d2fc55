(** Pluggable storage managers.

    Core's data management extension architecture [LIND87] lets a DBC
    add new storage methods for tables.  A storage manager owns one
    table's bytes; the rest of the system addresses records only through
    record ids and the operations below.  Managers register a {!factory}
    by name; [CREATE TABLE ... USING <name>] selects one. *)

(** Record identifier: stable address of a record within its table. *)
type rid = { rid_page : int; rid_slot : int }

val compare_rid : rid -> rid -> int
val pp_rid : Format.formatter -> rid -> unit

(** One storage-manager instance holds one table's records. *)
type instance = {
  sm_kind : string;
  insert : Tuple.t -> rid;
  delete : rid -> bool;
  update : rid -> Tuple.t -> bool;
      (** [false] when the record could not be updated in place (the
          caller deletes and reinserts) or does not exist *)
  fetch : rid -> Tuple.t option;
  scan_page : int -> Row_codec.sink -> (int -> unit) -> unit;
      (** [scan_page i s k] is the one scan primitive: for each live
          record of page [i] (in [0, page_count ())), in slot order,
          decode the record straight from the page's bytes into [s] as
          its field modes ask ({!Row_codec.field}: skipped, boxed into
          [s.row], or an INT column unboxed into [s.ints] with its NULL
          mark in [s.nulls]) and call [k slot].  Slots of a skipped
          field are left untouched; [s] is overwritten by the next
          record, so [k] copies what it keeps.  [k] runs while the page
          is pinned and must not modify the table.
          @raise Sb_resil.Err.Error (stage [Storage]) on a corrupt
          record, or an [Unboxed] field that is not an INT column. *)
  tuple_count : unit -> int;
  page_count : unit -> int;
  truncate : unit -> unit;
}

type factory = {
  factory_name : string;
  supports : Schema.t -> bool;
      (** can this manager store tables of the given schema? *)
  create : pool:Buffer_pool.t -> schema:Schema.t -> instance;
}

type registry

val create_registry : unit -> registry

(** @raise Sb_resil.Err.Error (stage [Storage]) on duplicate factory names. *)
val register : registry -> factory -> unit

val find : registry -> string -> factory option
val names : registry -> string list
