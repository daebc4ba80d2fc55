(** Shared prepared-plan cache: one LRU table, epoch-invalidated.

    Keys are normalized query text (callers may append a settings
    fingerprint); values are prepared plans.  Entries remember the
    catalog/statistics epoch they were compiled at and are dropped on
    mismatch, so DDL and ANALYZE invalidate lazily.  A key is admitted
    on second sight: its first {!add} only records its hash in a
    fixed-size doorkeeper, and its second inserts the plan, so a
    statement run once never takes an entry.  One table, one LRU list
    and the doorkeeper sit under one lock; eviction is strict LRU over
    the whole capacity. *)

type 'a t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  resident : int;  (** entries currently cached *)
}

(** The doorkeeper's size (4096), the same for every cache: key [k]'s
    hash [Hashtbl.hash k] is recorded in slot
    [Hashtbl.hash k mod doorkeeper_slots], over whatever hash that slot
    held.  Two keys of one hash share a record, so the second is admitted
    on its first {!add}; the table is still keyed by the full key, so a
    lookup never returns another key's value. *)
val doorkeeper_slots : int

(** [create ()] is an empty cache of [capacity] entries (default 1024).
    Its counts live only in {!stats}; the language processor copies
    them into the database's registry when it dumps it
    ([sb_plan_cache_{hits,misses,evictions,invalidations}_total]).
    @raise Invalid_argument if [capacity <= 0]. *)
val create : ?capacity:int -> unit -> 'a t

(** Normalizes query text so lexically equivalent statements share one
    cache entry: whitespace runs collapse to one space, characters
    outside ['...'] literals fold to lowercase, and a trailing [;] is
    dropped. *)
val normalize : string -> string

(** [find t ~epoch key] is the cached value compiled at [epoch], if any.
    An entry from an older epoch is dropped and counted as an
    invalidation, and its key is recorded in the doorkeeper, so the
    recompiled plan is admitted on its first {!add}; the lookup reports a
    miss. *)
val find : 'a t -> epoch:int -> string -> 'a option

(** Refreshes [key] if resident.  Otherwise inserts it only when the
    doorkeeper already holds its hash (the key's second sight), and
    records the hash when not.  Evicts LRU entries over capacity. *)
val add : 'a t -> epoch:int -> string -> 'a -> unit

val stats : 'a t -> stats
