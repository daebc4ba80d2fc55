(** Slotted pages.

    A page holds variable-length byte records addressed by slot number.
    Record bytes grow from the end of the page towards the slot directory,
    which grows from the front; deleting a record leaves a dead slot so
    that record ids (page, slot) remain stable. *)

let default_size = 4096

type slot = { mutable off : int; mutable len : int; mutable live : bool }

type t = {
  page_id : int;
  size : int;
  mutable slots : slot array;
  mutable nslots : int;
  mutable free_low : int;  (** lowest byte offset used by record data *)
  mutable data : Bytes.t;
  mutable dirty : bool;
}

let create ?(size = default_size) page_id =
  {
    page_id;
    size;
    slots = [||];
    nslots = 0;
    free_low = size;
    data = Bytes.create size;
    dirty = false;
  }

(* Each slot costs a fixed overhead when estimating free space; the
   in-memory directory is an array so the constant is nominal. *)
let slot_overhead = 8

let free_space t =
  t.free_low - (t.nslots * slot_overhead) - slot_overhead

let has_room t record_len = free_space t >= record_len

let live_count t =
  let n = ref 0 in
  for i = 0 to t.nslots - 1 do
    if t.slots.(i).live then incr n
  done;
  !n

let ensure_slot_capacity t =
  if t.nslots >= Array.length t.slots then begin
    let cap = max 8 (2 * Array.length t.slots) in
    let slots = Array.init cap (fun i ->
        if i < t.nslots then t.slots.(i)
        else { off = 0; len = 0; live = false })
    in
    t.slots <- slots
  end

(** Inserts [record]; returns the slot number.
    @raise Sb_resil.Err.Error (stage [Storage], non-retryable) if the
    page lacks room — a broken caller invariant (callers check
    {!has_room}), not a transient condition. *)
let insert t (record : string) =
  let len = String.length record in
  if not (has_room t len) then
    Sb_resil.Err.fail Sb_resil.Err.Storage
      "Page.insert: page full (%d bytes requested, %d free)" len
      (free_space t);
  let off = t.free_low - len in
  Bytes.blit_string record 0 t.data off len;
  t.free_low <- off;
  ensure_slot_capacity t;
  let slot_no = t.nslots in
  t.slots.(slot_no) <- { off; len; live = true };
  t.nslots <- t.nslots + 1;
  t.dirty <- true;
  slot_no

let get t slot_no : string option =
  if slot_no < 0 || slot_no >= t.nslots then None
  else
    let s = t.slots.(slot_no) in
    if s.live then Some (Bytes.sub_string t.data s.off s.len) else None

let delete t slot_no =
  if slot_no >= 0 && slot_no < t.nslots then begin
    let s = t.slots.(slot_no) in
    if s.live then begin
      s.live <- false;
      t.dirty <- true
    end
  end

(** In-place update when the new record fits in the old record's bytes;
    otherwise returns [false] and the caller must delete + reinsert. *)
let update t slot_no (record : string) =
  if slot_no < 0 || slot_no >= t.nslots then false
  else
    let s = t.slots.(slot_no) in
    if not s.live then false
    else
      let len = String.length record in
      if len <= s.len then begin
        Bytes.blit_string record 0 t.data s.off len;
        s.len <- len;
        t.dirty <- true;
        true
      end
      else false

(** Reads [len] bytes at offset [pos] inside a live record without
    copying the rest of the page. *)
let read_sub t slot_no ~pos ~len : string option =
  if slot_no < 0 || slot_no >= t.nslots then None
  else
    let s = t.slots.(slot_no) in
    if s.live && pos >= 0 && pos + len <= s.len then
      Some (Bytes.sub_string t.data (s.off + pos) len)
    else None

(** Overwrites bytes at offset [pos] inside a live record in place. *)
let write_sub t slot_no ~pos (src : string) : bool =
  if slot_no < 0 || slot_no >= t.nslots then false
  else
    let s = t.slots.(slot_no) in
    if s.live && pos >= 0 && pos + String.length src <= s.len then begin
      Bytes.blit_string src 0 t.data (s.off + pos) (String.length src);
      t.dirty <- true;
      true
    end
    else false

(** Iterates live records in place as [(slot, data, off, len)]: the
    record is the [len] bytes at offset [off] of [data], the page's own
    buffer, which is only valid for the duration of the call. *)
let iter_in_place t f =
  for i = 0 to t.nslots - 1 do
    let s = t.slots.(i) in
    if s.live then f i t.data s.off s.len
  done

(** Rewrites the page with only its live records, reclaiming dead space.
    Slot numbers are preserved (dead slots stay dead). *)
let compact t =
  let data = Bytes.create t.size in
  let free = ref t.size in
  for i = t.nslots - 1 downto 0 do
    let s = t.slots.(i) in
    if s.live then begin
      free := !free - s.len;
      Bytes.blit t.data s.off data !free s.len;
      s.off <- !free
    end
  done;
  t.data <- data;
  t.free_low <- !free;
  t.dirty <- true
