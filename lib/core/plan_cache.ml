(** The shared prepared-plan cache: sharded, LRU, epoch-invalidated.

    Section 3's economic argument — compilation is microseconds while
    execution is milliseconds, "the result of the compilation stage can
    be stored for future use" — only amortizes across callers if the
    store is shared.  This cache is that store: keys are {e normalized}
    query text (plus a caller-supplied settings fingerprint), values are
    prepared plans, and every entry remembers the catalog/statistics
    epoch it was compiled at.  A lookup whose entry carries a stale
    epoch is a miss that also drops the entry, so DDL and ANALYZE
    invalidate lazily without the catalog knowing the cache exists.

    The table is split into shards, each with its own lock and LRU list,
    so concurrent sessions on different domains rarely contend.  Within
    a shard, eviction is strict LRU — no wholesale reset.

    Every shard lock is a leveled {!Sb_conc.Lock} at
    {!Sb_conc.Level.plan_cache} (all sharing one name — the hierarchy
    cares about the class, not the instance; shard locks never nest).
    Each shard's table + LRU list is its own instrumented field
    ([plan_cache.shard<i>]) so the race detector's lockset refinement
    is per shard — one field for the whole cache would empty its
    candidate set the first time two shards are touched under their
    own (different) locks. *)

type 'a node = {
  n_key : string;
  mutable n_value : 'a;
  mutable n_epoch : int;
  mutable n_prev : 'a node option;  (** toward most-recently-used *)
  mutable n_next : 'a node option;  (** toward least-recently-used *)
}

type 'a shard = {
  s_lock : Sb_conc.Lock.t;
  s_field : string;  (** this shard's race-detector field name *)
  s_tbl : (string, 'a node) Hashtbl.t;
  mutable s_mru : 'a node option;
  mutable s_lru : 'a node option;
  s_capacity : int;  (** max resident entries in this shard *)
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_invalidations : int;
}

type 'a t = { shards : 'a shard array }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  resident : int;
}

let create ?(shards = 8) ?(capacity = 1024) () : 'a t =
  if shards <= 0 then invalid_arg "Plan_cache.create: shards must be positive";
  if capacity < shards then invalid_arg "Plan_cache.create: capacity < shards";
  let per_shard = max 1 (capacity / shards) in
  {
    shards =
      Array.init shards (fun i ->
          {
            s_lock =
              Sb_conc.Lock.create ~name:"core.plan_cache"
                ~level:Sb_conc.Level.plan_cache;
            s_field = Printf.sprintf "plan_cache.shard%d" i;
            s_tbl = Hashtbl.create (2 * per_shard);
            s_mru = None;
            s_lru = None;
            s_capacity = per_shard;
            s_hits = 0;
            s_misses = 0;
            s_evictions = 0;
            s_invalidations = 0;
          });
  }

(* ------------------------------------------------------------------ *)
(* Key normalization                                                   *)
(* ------------------------------------------------------------------ *)

(** Normalizes query text so lexically equivalent statements share one
    cache entry: runs of whitespace collapse to a single space,
    characters outside string literals fold to lowercase, and trailing
    [;]/whitespace is dropped.  Quoted literals (and quote-escaped
    quotes within them) pass through untouched, so ['CPU'] and ['cpu']
    stay distinct queries. *)
let normalize (text : string) : string =
  let buf = Buffer.create (String.length text) in
  let n = String.length text in
  let in_string = ref false in
  let pending_space = ref false in
  for i = 0 to n - 1 do
    let c = text.[i] in
    if !in_string then begin
      Buffer.add_char buf c;
      if c = '\'' then in_string := false
    end
    else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then
      (* collapse, and drop entirely at the front of the buffer *)
      pending_space := Buffer.length buf > 0
    else begin
      if !pending_space then Buffer.add_char buf ' ';
      pending_space := false;
      if c = '\'' then begin
        in_string := true;
        Buffer.add_char buf c
      end
      else Buffer.add_char buf (Char.lowercase_ascii c)
    end
  done;
  let s = Buffer.contents buf in
  let len = String.length s in
  if len > 0 && s.[len - 1] = ';' then String.trim (String.sub s 0 (len - 1))
  else s

(* ------------------------------------------------------------------ *)
(* Intra-shard LRU list                                                *)
(* ------------------------------------------------------------------ *)

(* all list surgery runs under the shard lock *)

let unlink sh node =
  (match node.n_prev with
  | Some p -> p.n_next <- node.n_next
  | None -> sh.s_mru <- node.n_next);
  (match node.n_next with
  | Some nx -> nx.n_prev <- node.n_prev
  | None -> sh.s_lru <- node.n_prev);
  node.n_prev <- None;
  node.n_next <- None

let push_front sh node =
  node.n_prev <- None;
  node.n_next <- sh.s_mru;
  (match sh.s_mru with
  | Some old -> old.n_prev <- Some node
  | None -> sh.s_lru <- Some node);
  sh.s_mru <- Some node

let locked sh f = Sb_conc.Lock.with_lock sh.s_lock f

let watch sh ~site ~write =
  Sb_conc.Discipline.access_of ~owner:(Sb_conc.Lock.id sh.s_lock) ~field:sh.s_field ~site
    ~write

let shard_of t key =
  t.shards.(Hashtbl.hash key mod Array.length t.shards)

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

(** [find t ~epoch key] is the cached value compiled at [epoch], if
    any.  An entry from an older epoch is dropped and counted as an
    invalidation (the lookup reports a miss). *)
let find (t : 'a t) ~(epoch : int) (key : string) : 'a option =
  let sh = shard_of t key in
  locked sh @@ fun () ->
  watch sh ~site:"Plan_cache.find" ~write:true;
  match Hashtbl.find_opt sh.s_tbl key with
  | Some node when node.n_epoch = epoch ->
    unlink sh node;
    push_front sh node;
    sh.s_hits <- sh.s_hits + 1;
    Some node.n_value
  | Some node ->
    unlink sh node;
    Hashtbl.remove sh.s_tbl key;
    sh.s_invalidations <- sh.s_invalidations + 1;
    sh.s_misses <- sh.s_misses + 1;
    None
  | None ->
    sh.s_misses <- sh.s_misses + 1;
    None

(** Inserts (or refreshes) [key], evicting the shard's LRU entry when
    over capacity. *)
let add (t : 'a t) ~(epoch : int) (key : string) (value : 'a) : unit =
  let sh = shard_of t key in
  locked sh @@ fun () ->
  watch sh ~site:"Plan_cache.add" ~write:true;
  (match Hashtbl.find_opt sh.s_tbl key with
  | Some node ->
    (* a concurrent compiler won the race: keep one entry *)
    node.n_value <- value;
    node.n_epoch <- epoch;
    unlink sh node;
    push_front sh node
  | None ->
    let node =
      { n_key = key; n_value = value; n_epoch = epoch; n_prev = None; n_next = None }
    in
    Hashtbl.replace sh.s_tbl key node;
    push_front sh node);
  while Hashtbl.length sh.s_tbl > sh.s_capacity do
    match sh.s_lru with
    | None -> Hashtbl.reset sh.s_tbl (* unreachable *)
    | Some victim ->
      unlink sh victim;
      Hashtbl.remove sh.s_tbl victim.n_key;
      sh.s_evictions <- sh.s_evictions + 1
  done

let clear (t : 'a t) =
  Array.iter
    (fun sh ->
      locked sh (fun () ->
          watch sh ~site:"Plan_cache.clear" ~write:true;
          Hashtbl.reset sh.s_tbl;
          sh.s_mru <- None;
          sh.s_lru <- None))
    t.shards

let stats (t : 'a t) : stats =
  Array.fold_left
    (fun acc sh ->
      locked sh (fun () ->
          watch sh ~site:"Plan_cache.stats" ~write:false;
          {
            hits = acc.hits + sh.s_hits;
            misses = acc.misses + sh.s_misses;
            evictions = acc.evictions + sh.s_evictions;
            invalidations = acc.invalidations + sh.s_invalidations;
            resident = acc.resident + Hashtbl.length sh.s_tbl;
          }))
    { hits = 0; misses = 0; evictions = 0; invalidations = 0; resident = 0 }
    t.shards
