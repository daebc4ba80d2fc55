(** The shared prepared-plan cache: one LRU table, epoch-invalidated.

    Section 3's economic argument — compilation is microseconds while
    execution is milliseconds, "the result of the compilation stage can
    be stored for future use" — only amortizes across callers if the
    store is shared.  This cache is that store: keys are {e normalized}
    query text (plus a caller-supplied settings fingerprint), values are
    prepared plans, and every entry remembers the catalog/statistics
    epoch it was compiled at.  A lookup whose entry carries a stale
    epoch is a miss that also drops the entry, so DDL and ANALYZE
    invalidate lazily without the catalog knowing the cache exists.

    A plan is admitted on second sight: the first [add] of a key only
    records the key's hash in a {e doorkeeper} (TinyLFU's; SQL Server's
    "optimize for ad hoc workloads"), a fixed direct-mapped array of
    {!doorkeeper_slots} hashes, and the plan goes in when the key's hash
    is already there.  A statement run once — every ad hoc statement
    with a fresh literal — never takes a slot of the LRU list, so it is
    never promoted and then evicted.  A key whose entry a stale epoch
    drops is recorded at once, so its recompile is admitted on its first
    [add]: the statement has already proved its reuse.

    One table, one LRU list and the doorkeeper sit under one leveled
    {!Sb_conc.Lock} at {!Sb_conc.Level.plan_cache}; eviction is strict
    LRU over the whole capacity — no wholesale reset.  The table, list,
    doorkeeper and counters are one instrumented field ([plan_cache])
    for the race detector. *)

type 'a node = {
  n_key : string;
  mutable n_value : 'a;
  mutable n_epoch : int;
  mutable n_prev : 'a node option;  (** toward most-recently-used *)
  mutable n_next : 'a node option;  (** toward least-recently-used *)
}

type 'a t = {
  lock : Sb_conc.Lock.t;
  tbl : (string, 'a node) Hashtbl.t;
  mutable mru : 'a node option;
  mutable lru : 'a node option;
  capacity : int;  (** max resident entries *)
  seen : int array;
      (** the doorkeeper: slot [h mod doorkeeper_slots] holds the last
          key hash [h] recorded there, [-1] when none *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  resident : int;
}

let doorkeeper_slots = 4096

let create ?(capacity = 1024) () : 'a t =
  if capacity <= 0 then invalid_arg "Plan_cache.create: capacity must be positive";
  {
    lock = Sb_conc.Lock.create ~name:"core.plan_cache" ~level:Sb_conc.Level.plan_cache;
    tbl = Hashtbl.create (2 * capacity);
    mru = None;
    lru = None;
    capacity;
    seen = Array.make doorkeeper_slots (-1);
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
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
(* LRU list                                                            *)
(* ------------------------------------------------------------------ *)

(* all list surgery runs under the lock *)

let unlink (t : 'a t) node =
  (match node.n_prev with
  | Some p -> p.n_next <- node.n_next
  | None -> t.mru <- node.n_next);
  (match node.n_next with
  | Some nx -> nx.n_prev <- node.n_prev
  | None -> t.lru <- node.n_prev);
  node.n_prev <- None;
  node.n_next <- None

let push_front (t : 'a t) node =
  node.n_prev <- None;
  node.n_next <- t.mru;
  (match t.mru with
  | Some old -> old.n_prev <- Some node
  | None -> t.lru <- Some node);
  t.mru <- Some node

let locked (t : 'a t) ~site ~write f =
  Sb_conc.Lock.with_lock t.lock (fun () ->
      Sb_conc.Discipline.access_of ~owner:(Sb_conc.Lock.id t.lock) ~field:"plan_cache"
        ~site ~write;
      f ())

(* [Hashtbl.hash] is never negative, so [-1] marks an empty slot *)
let slot h = h land (doorkeeper_slots - 1)
let record (t : 'a t) h = t.seen.(slot h) <- h

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

(** [find t ~epoch key] is the cached value compiled at [epoch], if
    any.  An entry from an older epoch is dropped and counted as an
    invalidation (the lookup reports a miss), and its key is recorded in
    the doorkeeper. *)
let find (t : 'a t) ~(epoch : int) (key : string) : 'a option =
  locked t ~site:"Plan_cache.find" ~write:true @@ fun () ->
  match Hashtbl.find_opt t.tbl key with
  | Some node when node.n_epoch = epoch ->
    unlink t node;
    push_front t node;
    t.hits <- t.hits + 1;
    Some node.n_value
  | Some node ->
    unlink t node;
    Hashtbl.remove t.tbl key;
    record t (Hashtbl.hash key);
    t.invalidations <- t.invalidations + 1;
    t.misses <- t.misses + 1;
    None
  | None ->
    t.misses <- t.misses + 1;
    None

(** Refreshes a resident [key]; inserts a new one only when the
    doorkeeper holds its hash, and records the hash otherwise.  Evicts
    the LRU entry when over capacity. *)
let add (t : 'a t) ~(epoch : int) (key : string) (value : 'a) : unit =
  locked t ~site:"Plan_cache.add" ~write:true @@ fun () ->
  (match Hashtbl.find_opt t.tbl key with
  | Some node ->
    (* a concurrent compiler won the race: keep one entry *)
    node.n_value <- value;
    node.n_epoch <- epoch;
    unlink t node;
    push_front t node
  | None ->
    let h = Hashtbl.hash key in
    if t.seen.(slot h) <> h then record t h
    else begin
      let node =
        { n_key = key; n_value = value; n_epoch = epoch; n_prev = None; n_next = None }
      in
      Hashtbl.replace t.tbl key node;
      push_front t node
    end);
  while Hashtbl.length t.tbl > t.capacity do
    match t.lru with
    | None -> Hashtbl.reset t.tbl (* unreachable *)
    | Some victim ->
      unlink t victim;
      Hashtbl.remove t.tbl victim.n_key;
      t.evictions <- t.evictions + 1
  done

let stats (t : 'a t) : stats =
  locked t ~site:"Plan_cache.stats" ~write:false @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = t.invalidations;
    resident = Hashtbl.length t.tbl;
  }
