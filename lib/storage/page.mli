(** Slotted pages.

    A page holds variable-length byte records addressed by slot number.
    Record bytes grow from the end of the page towards the slot
    directory; deleting a record leaves a dead slot so that record ids
    (page, slot) remain stable. *)

type t = {
  page_id : int;
  size : int;
  mutable slots : slot array;
  mutable nslots : int;
  mutable free_low : int;
  mutable data : Bytes.t;
  mutable dirty : bool;
}

and slot = { mutable off : int; mutable len : int; mutable live : bool }

val default_size : int

val create : ?size:int -> int -> t

(** Usable bytes remaining (accounting for slot overhead). *)
val free_space : t -> int

val has_room : t -> int -> bool
val live_count : t -> int

(** Inserts a record, returning its slot.
    @raise Failure when the page lacks room (check {!has_room}). *)
val insert : t -> string -> int

(** [None] for out-of-range or dead slots. *)
val get : t -> int -> string option

val delete : t -> int -> unit

(** In-place update when the new record fits in the old record's bytes;
    [false] means the caller must delete and reinsert. *)
val update : t -> int -> string -> bool

(** Reads [len] bytes at offset [pos] inside a live record without
    copying the rest of the record. *)
val read_sub : t -> int -> pos:int -> len:int -> string option

(** Overwrites bytes at offset [pos] inside a live record in place. *)
val write_sub : t -> int -> pos:int -> string -> bool

(** Iterates live records in place as [(slot, data, off, len)], without
    copying: the record is the [len] bytes at offset [off] of [data],
    the page's own buffer, valid only for the duration of the call. *)
val iter_in_place : t -> (int -> Bytes.t -> int -> int -> unit) -> unit

(** Rewrites the page with only its live records, reclaiming dead
    space; slot numbers are preserved. *)
val compact : t -> unit
