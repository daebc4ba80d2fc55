(** Buffer manager.

    Core's buffer manager mediates all page access.  Here the "disk" is an
    in-memory store of pages per file; what matters for reproducing the
    paper's cost behaviour is the {e accounting}: a page access that misses
    the (bounded, LRU) cache counts as a physical read, and evicting a
    dirty page counts as a physical write.  The optimizer's cost model and
    the experiment harness read these counters.

    Concurrency contract (the multi-session server relies on it): every
    operation that touches the frame cache, the file table or the stats
    runs under the pool lock — a leveled {!Sb_conc.Lock} at
    {!Sb_conc.Level.buffer_pool}, checked by the discipline layer: it
    may be taken under the catalog lock (DDL), and the pool takes no
    other lock under it.  The frame cache and the stats are
    instrumented shared fields ([buffer_pool.frames] /
    [buffer_pool.stats]) for lockset race detection.  Page {e contents}
    are not protected here — writers must be serialized above (the
    server takes its writer lock around DML/DDL statements). *)

type file_id = int

type stats = {
  mutable logical_reads : int;
  mutable physical_reads : int;
  mutable physical_writes : int;
  mutable evictions : int;
}

(* Cached frames sit on an intrusive doubly-linked recency list, oldest
   first: a touch relinks a frame at the new end in O(1), and eviction
   walks from the old end to the first unpinned frame. *)
type frame = {
  page : Page.t;
  f_file : file_id;
  f_page_no : int;
  mutable pins : int;
  mutable older : frame;
  mutable newer : frame;
}

type file = {
  mutable pages : Page.t array;  (** the backing "disk" *)
  mutable npages : int;
  page_size : int;
}

type t = {
  capacity : int;
  lock : Sb_conc.Lock.t;  (** guards files, cache, recency list and stats *)
  files : (file_id, file) Hashtbl.t;
  cache : (file_id * int, frame) Hashtbl.t;
  lru : frame;
      (** sentinel of the recency list: [lru.newer] is the oldest
          cached frame, [lru.older] the most recently used *)
  mutable next_file : file_id;
  stats : stats;
  mutable faults : Sb_resil.Faults.t;
}

let sentinel () =
  let rec s =
    { page = Page.create ~size:0 (-1); f_file = -1; f_page_no = -1; pins = 0;
      older = s; newer = s }
  in
  s

let unlink f =
  f.older.newer <- f.newer;
  f.newer.older <- f.older;
  f.older <- f;
  f.newer <- f

(* makes [f] the most recently used frame *)
let push_newest t f =
  let last = t.lru.older in
  f.older <- last;
  f.newer <- t.lru;
  last.newer <- f;
  t.lru.older <- f

let create ?(capacity = 256) () =
  {
    capacity;
    lock =
      Sb_conc.Lock.create ~name:"storage.buffer_pool"
        ~level:Sb_conc.Level.buffer_pool;
    files = Hashtbl.create 16;
    cache = Hashtbl.create (2 * capacity);
    lru = sentinel ();
    next_file = 0;
    stats = { logical_reads = 0; physical_reads = 0; physical_writes = 0; evictions = 0 };
    faults = Sb_resil.Faults.none;
  }

let locked t f = Sb_conc.Lock.with_lock t.lock f

(* the pool's instrumented shared fields, named per pool *)
let watch_frames t ~site ~write =
  Sb_conc.Discipline.access_of ~owner:(Sb_conc.Lock.id t.lock) ~field:"buffer_pool.frames"
    ~site ~write

let watch_stats t ~site ~write =
  Sb_conc.Discipline.access_of ~owner:(Sb_conc.Lock.id t.lock) ~field:"buffer_pool.stats"
    ~site ~write

let set_faults t f = locked t (fun () -> t.faults <- f)
let faults t = locked t (fun () -> t.faults)

let stats t = t.stats

let reset_stats t =
  locked t @@ fun () ->
  watch_stats t ~site:"Buffer_pool.reset_stats" ~write:true;
  t.stats.logical_reads <- 0;
  t.stats.physical_reads <- 0;
  t.stats.physical_writes <- 0;
  t.stats.evictions <- 0

let create_file ?(page_size = Page.default_size) t =
  locked t @@ fun () ->
  watch_frames t ~site:"Buffer_pool.create_file" ~write:true;
  let id = t.next_file in
  t.next_file <- id + 1;
  Hashtbl.replace t.files id { pages = [||]; npages = 0; page_size };
  id

let drop_file t id =
  locked t @@ fun () ->
  watch_frames t ~site:"Buffer_pool.drop_file" ~write:true;
  Hashtbl.remove t.files id;
  Hashtbl.filter_map_inplace
    (fun _ frame ->
      if frame.f_file = id then begin
        unlink frame;
        None
      end
      else Some frame)
    t.cache

(* callers hold the lock *)
let get_file t id =
  match Hashtbl.find_opt t.files id with
  | Some f -> f
  | None ->
    Sb_resil.Err.fail Sb_resil.Err.Storage "Buffer_pool: unknown file %d" id

let page_count t id =
  locked t (fun () ->
      watch_frames t ~site:"Buffer_pool.page_count" ~write:false;
      (get_file t id).npages)

(* Evict the least-recently-used unpinned frame while the pool is over
   capacity; when every frame is pinned, give up silently.  Dirty pages
   are "written back" (they already live in the file array; we just
   count the write and clear the flag).  Runs under the lock. *)
let maybe_evict t =
  let rec oldest_unpinned f =
    if f == t.lru then None
    else if f.pins = 0 then Some f
    else oldest_unpinned f.newer
  in
  let rec go () =
    if Hashtbl.length t.cache > t.capacity then
      match oldest_unpinned t.lru.newer with
      | None -> ()
      | Some frame ->
        if frame.page.Page.dirty then begin
          t.stats.physical_writes <- t.stats.physical_writes + 1;
          frame.page.Page.dirty <- false
        end;
        t.stats.evictions <- t.stats.evictions + 1;
        unlink frame;
        Hashtbl.remove t.cache (frame.f_file, frame.f_page_no);
        go ()
  in
  go ()

(* caches [page] as the most recently used frame *)
let new_frame t page file_id page_no ~pins =
  let rec f = { page; f_file = file_id; f_page_no = page_no; pins; older = f; newer = f } in
  push_newest t f;
  Hashtbl.replace t.cache (file_id, page_no) f;
  f

let pin_raw t file_id page_no =
  locked t @@ fun () ->
  watch_frames t ~site:"Buffer_pool.pin" ~write:true;
  watch_stats t ~site:"Buffer_pool.pin" ~write:true;
  t.stats.logical_reads <- t.stats.logical_reads + 1;
  match Hashtbl.find_opt t.cache (file_id, page_no) with
  | Some frame ->
    frame.pins <- frame.pins + 1;
    unlink frame;
    push_newest t frame;
    frame.page
  | None ->
    let f = get_file t file_id in
    if page_no < 0 || page_no >= f.npages then
      Sb_resil.Err.fail Sb_resil.Err.Storage
        "Buffer_pool.pin: page %d/%d out of range" file_id page_no;
    t.stats.physical_reads <- t.stats.physical_reads + 1;
    let frame = new_frame t f.pages.(page_no) file_id page_no ~pins:1 in
    maybe_evict t;
    frame.page

let pin t file_id page_no =
  Sb_resil.Faults.guard t.faults ~site:"buffer.pin" (fun () ->
      pin_raw t file_id page_no)

let unpin t file_id page_no =
  locked t @@ fun () ->
  watch_frames t ~site:"Buffer_pool.unpin" ~write:true;
  match Hashtbl.find_opt t.cache (file_id, page_no) with
  | Some frame when frame.pins > 0 -> frame.pins <- frame.pins - 1
  | _ -> ()

let with_page t file_id page_no f =
  let page = pin t file_id page_no in
  Fun.protect ~finally:(fun () -> unpin t file_id page_no) (fun () -> f page)

let resident t =
  locked t @@ fun () ->
  watch_frames t ~site:"Buffer_pool.resident" ~write:false;
  let rec walk f acc =
    if f == t.lru then acc else walk f.older ((f.f_file, f.f_page_no) :: acc)
  in
  walk t.lru.older []

(** Simulated process death: every file and cached frame vanishes (the
    "disk" here is volatile memory — durability comes from the WAL).
    File ids stay monotonic so stale handles can never alias a new
    file. *)
let discard_all t =
  locked t @@ fun () ->
  watch_frames t ~site:"Buffer_pool.discard_all" ~write:true;
  Hashtbl.reset t.files;
  Hashtbl.reset t.cache;
  t.lru.older <- t.lru;
  t.lru.newer <- t.lru

(** Appends a fresh page to [file_id] and returns its page number. *)
let alloc_page t file_id =
  locked t @@ fun () ->
  watch_frames t ~site:"Buffer_pool.alloc_page" ~write:true;
  let f = get_file t file_id in
  let page_no = f.npages in
  let page = Page.create ~size:f.page_size page_no in
  if f.npages >= Array.length f.pages then begin
    let cap = max 8 (2 * Array.length f.pages) in
    let pages =
      Array.init cap (fun i -> if i < f.npages then f.pages.(i) else page)
    in
    f.pages <- pages
  end;
  f.pages.(page_no) <- page;
  f.npages <- f.npages + 1;
  ignore (new_frame t page file_id page_no ~pins:0 : frame);
  maybe_evict t;
  page_no
