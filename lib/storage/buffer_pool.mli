(** Buffer manager.

    Core's buffer manager mediates all page access.  The "disk" is an
    in-memory store of pages per file; what matters for reproducing the
    paper's cost behaviour is the accounting: a page access that misses
    the bounded LRU cache counts as a physical read, and evicting a
    dirty page counts as a physical write.  The optimizer's cost model
    and the experiment harness read these counters. *)

type file_id = int

type stats = {
  mutable logical_reads : int;
  mutable physical_reads : int;
  mutable physical_writes : int;
  mutable evictions : int;
}

type t

(** [capacity] is the cache size in pages (default 256). *)
val create : ?capacity:int -> unit -> t

val stats : t -> stats
val reset_stats : t -> unit

(** Fault-injection plan consulted on every {!pin} (site
    ["buffer.pin"]); defaults to {!Sb_resil.Faults.none}. *)
val set_faults : t -> Sb_resil.Faults.t -> unit

val faults : t -> Sb_resil.Faults.t

val create_file : ?page_size:int -> t -> file_id
val drop_file : t -> file_id -> unit
val page_count : t -> file_id -> int

(** Pins a page into the cache (fetching it if absent) and returns it;
    must be balanced by {!unpin} — prefer {!with_page}. *)
val pin : t -> file_id -> int -> Page.t

val unpin : t -> file_id -> int -> unit

(** Pin, use, unpin (exception-safe). *)
val with_page : t -> file_id -> int -> (Page.t -> 'a) -> 'a

(** Cached pages as [(file, page)], least recently used first: the
    order in which unpinned frames are evicted. *)
val resident : t -> (file_id * int) list

(** Appends a fresh page to the file and returns its page number. *)
val alloc_page : t -> file_id -> int

(** Simulated process death: every file and cached frame vanishes. *)
val discard_all : t -> unit
