(** Shared prepared-plan cache: one LRU table, epoch-invalidated.

    Keys are normalized query text (callers may append a settings
    fingerprint); values are prepared plans.  Entries remember the
    catalog/statistics epoch they were compiled at and are dropped on
    mismatch, so DDL and ANALYZE invalidate lazily.  One table and one
    LRU list sit under one lock; eviction is strict LRU over the whole
    capacity. *)

type 'a t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  resident : int;  (** entries currently cached *)
}

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
    invalidation; the lookup reports a miss. *)
val find : 'a t -> epoch:int -> string -> 'a option

(** Inserts (or refreshes) [key], evicting LRU entries over capacity. *)
val add : 'a t -> epoch:int -> string -> 'a -> unit

val stats : 'a t -> stats
