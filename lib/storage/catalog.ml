(** The catalog: tables, views, attachments, and the extension
    registries of one database instance.

    Views are stored as their Hydrogen text plus optional column renames;
    the language processor (which owns the parser) expands them.  Keeping
    the definition textual here keeps Core independent of Corona, matching
    the paper's layering.

    Concurrency contract: lookups and DDL both run under the catalog
    lock — a leveled {!Sb_conc.Lock} at {!Sb_conc.Level.catalog}, which
    the discipline checker enforces: the buffer pool ({!Sb_conc.Level.buffer_pool})
    may be acquired {e under} it (DDL touches storage while holding the
    catalog), never the other way around.  The WAL's level also sits
    below the catalog's, but the log is written only after the catalog
    lock is released.  Every definition change (and every statistics refresh)
    bumps the {e epoch} counter; the plan cache compares a cached plan's
    compile-time epoch against the current one, so DDL invalidates
    shared plans without the catalog knowing the cache exists.  The
    epoch and the definition maps are instrumented shared fields
    ([catalog.epoch] / [catalog.defs]) for lockset race detection. *)

type view_def = {
  view_name : string;
  view_text : string;  (** the defining query, Hydrogen text *)
  view_columns : string list option;  (** optional column renames *)
}

type t = {
  pool : Buffer_pool.t;
  lock : Sb_conc.Lock.t;  (** guards tables/views maps and the epoch *)
  datatypes : Datatype.registry;
  storage_managers : Storage_manager.registry;
  access_methods : Access_method.registry;
  tables : (string, Table_store.t) Hashtbl.t;
  views : (string, view_def) Hashtbl.t;
  mutable epoch : int;
      (** bumped by every DDL statement and statistics refresh *)
  mutable site_of : string -> string;
      (** simulated-distribution hook: site where a table lives *)
  mutable faults : Sb_resil.Faults.t;
  wal : Wal.t;
      (** the instance's write-ahead log; sessions sharing a catalog
          share the log, which is what makes group commit work *)
  metrics : Sb_obs.Metrics.t;  (** the database's one metrics registry *)
}

let norm = String.lowercase_ascii

(* buffer-pool pages of every database *)
let pool_capacity = 256

let create () =
  let t =
    {
      pool = Buffer_pool.create ~capacity:pool_capacity ();
      lock = Sb_conc.Lock.create ~name:"storage.catalog" ~level:Sb_conc.Level.catalog;
      datatypes = Datatype.create_registry ();
      storage_managers = Storage_manager.create_registry ();
      access_methods = Access_method.create_registry ();
      tables = Hashtbl.create 16;
      views = Hashtbl.create 16;
      epoch = 0;
      site_of = (fun _ -> "local");
      faults = Sb_resil.Faults.none;
      wal = Wal.create ();
      metrics = Sb_obs.Metrics.create ();
    }
  in
  Storage_manager.register t.storage_managers Heap_file.factory;
  Storage_manager.register t.storage_managers Fixed_file.factory;
  Access_method.register t.access_methods Access_method.btree_kind;
  Access_method.register t.access_methods Access_method.unique_constraint_kind;
  t

let locked t f = Sb_conc.Lock.with_lock t.lock f

(* the two instrumented shared fields of the catalog, named per catalog *)
let watch_epoch t ~site ~write =
  Sb_conc.Discipline.access_of ~owner:(Sb_conc.Lock.id t.lock) ~field:"catalog.epoch" ~site
    ~write

let watch_defs t ~site ~write =
  Sb_conc.Discipline.access_of ~owner:(Sb_conc.Lock.id t.lock) ~field:"catalog.defs" ~site
    ~write

let epoch t =
  locked t (fun () ->
      watch_epoch t ~site:"Catalog.epoch" ~write:false;
      t.epoch)

let bump_epoch t =
  locked t (fun () ->
      watch_epoch t ~site:"Catalog.bump_epoch" ~write:true;
      t.epoch <- t.epoch + 1)

let set_faults t f =
  locked t (fun () -> t.faults <- f);
  Buffer_pool.set_faults t.pool f;
  Wal.set_faults t.wal f

let faults t = locked t (fun () -> t.faults)

(* unlocked internals, shared by the locked public operations *)
let find_table_u t name = Hashtbl.find_opt t.tables (norm name)
let find_view_u t name = Hashtbl.find_opt t.views (norm name)
let table_exists_u t name = Hashtbl.mem t.tables (norm name)
let view_exists_u t name = Hashtbl.mem t.views (norm name)

let find_table t name =
  Sb_resil.Faults.guard t.faults ~site:"catalog.lookup" (fun () ->
      locked t (fun () ->
          watch_defs t ~site:"Catalog.find_table" ~write:false;
          find_table_u t name))

let find_view t name =
  locked t (fun () ->
      watch_defs t ~site:"Catalog.find_view" ~write:false;
      find_view_u t name)

let table_exists t name =
  locked t (fun () ->
      watch_defs t ~site:"Catalog.table_exists" ~write:false;
      table_exists_u t name)

let view_exists t name =
  locked t (fun () ->
      watch_defs t ~site:"Catalog.view_exists" ~write:false;
      view_exists_u t name)

let table_names t =
  locked t (fun () ->
      watch_defs t ~site:"Catalog.table_names" ~write:false;
      Hashtbl.fold (fun _ tab acc -> tab.Table_store.name :: acc) t.tables [])
  |> List.sort String.compare

let view_names t =
  locked t (fun () ->
      watch_defs t ~site:"Catalog.view_names" ~write:false;
      Hashtbl.fold (fun _ v acc -> v.view_name :: acc) t.views [])
  |> List.sort String.compare

exception Catalog_error of string

let error fmt = Fmt.kstr (fun s -> raise (Catalog_error s)) fmt

(** Creates a table.  [storage] names a registered storage manager
    (default ["heap"]). *)
let create_table t ?(storage = "heap") ~name ~(schema : Schema.t) () =
  locked t @@ fun () ->
  watch_defs t ~site:"Catalog.create_table" ~write:true;
  watch_epoch t ~site:"Catalog.create_table" ~write:true;
  if table_exists_u t name || view_exists_u t name then
    error "table or view %s already exists" name;
  let factory =
    match Storage_manager.find t.storage_managers storage with
    | Some f -> f
    | None -> error "unknown storage manager %s" storage
  in
  if not (factory.Storage_manager.supports schema) then
    error "storage manager %s cannot store schema of %s" storage name;
  let instance = factory.Storage_manager.create ~pool:t.pool ~schema in
  let table =
    Table_store.create ~name ~schema ~storage:instance ~storage_kind:storage
      ~registry:t.datatypes
  in
  (* declared UNIQUE columns are enforced by constraint attachments —
     constraints are attachments in Core's architecture [LIND87] *)
  Array.iteri
    (fun i col ->
      if col.Schema.col_unique then begin
        let am =
          Access_method.unique_constraint_kind.Access_method.kind_create
            ~name:(Fmt.str "%s_%s_unique" name col.Schema.col_name)
            ~schema ~columns:[ i ] ~registry:t.datatypes
        in
        Table_store.attach table am
      end)
    schema;
  Hashtbl.replace t.tables (norm name) table;
  t.epoch <- t.epoch + 1;
  table

let drop_table t name =
  locked t @@ fun () ->
  watch_defs t ~site:"Catalog.drop_table" ~write:true;
  watch_epoch t ~site:"Catalog.drop_table" ~write:true;
  match find_table_u t name with
  | None -> error "no such table %s" name
  | Some _ ->
    Hashtbl.remove t.tables (norm name);
    t.epoch <- t.epoch + 1

let create_view t ~name ~text ?columns () =
  locked t @@ fun () ->
  watch_defs t ~site:"Catalog.create_view" ~write:true;
  watch_epoch t ~site:"Catalog.create_view" ~write:true;
  if table_exists_u t name || view_exists_u t name then
    error "table or view %s already exists" name;
  Hashtbl.replace t.views (norm name)
    { view_name = name; view_text = text; view_columns = columns };
  t.epoch <- t.epoch + 1

let drop_view t name =
  locked t @@ fun () ->
  watch_defs t ~site:"Catalog.drop_view" ~write:true;
  watch_epoch t ~site:"Catalog.drop_view" ~write:true;
  if not (view_exists_u t name) then error "no such view %s" name;
  Hashtbl.remove t.views (norm name);
  t.epoch <- t.epoch + 1

(** Creates an index (attachment) of a registered [kind] on [table]. *)
let create_index t ~name ~table ~kind ~columns =
  locked t @@ fun () ->
  watch_defs t ~site:"Catalog.create_index" ~write:true;
  watch_epoch t ~site:"Catalog.create_index" ~write:true;
  let tab =
    match find_table_u t table with
    | Some tab -> tab
    | None -> error "no such table %s" table
  in
  let k =
    match Access_method.find t.access_methods kind with
    | Some k -> k
    | None -> error "unknown access method kind %s" kind
  in
  let positions =
    List.map
      (fun col ->
        match Schema.find_index tab.Table_store.schema col with
        | Some i -> i
        | None -> error "no column %s in %s" col table)
      columns
  in
  let am =
    k.Access_method.kind_create ~name ~schema:tab.Table_store.schema
      ~columns:positions ~registry:t.datatypes
  in
  (* fault site "<kind>.search" (e.g. "btree.search"): the plan is read
     at probe time, so faults installed after CREATE INDEX still apply *)
  let am =
    {
      am with
      Access_method.am_search =
        (fun probe ->
          Sb_resil.Faults.guard t.faults ~site:(kind ^ ".search") (fun () ->
              am.Access_method.am_search probe));
    }
  in
  Table_store.attach tab am;
  t.epoch <- t.epoch + 1;
  am

let drop_index t ~table ~name =
  locked t @@ fun () ->
  watch_defs t ~site:"Catalog.drop_index" ~write:true;
  watch_epoch t ~site:"Catalog.drop_index" ~write:true;
  match find_table_u t table with
  | None -> error "no such table %s" table
  | Some tab ->
    Table_store.detach tab name;
    t.epoch <- t.epoch + 1

let analyze_all t =
  locked t (fun () ->
      watch_defs t ~site:"Catalog.analyze_all" ~write:false;
      watch_epoch t ~site:"Catalog.analyze_all" ~write:true;
      Hashtbl.iter (fun _ tab -> ignore (Table_store.analyze tab)) t.tables;
      t.epoch <- t.epoch + 1)

(** A consistent snapshot of every table's contents (sorted by name),
    the payload of a fuzzy checkpoint. *)
let snapshot_tables t : (string * Tuple.t list) list =
  locked t (fun () ->
      watch_defs t ~site:"Catalog.snapshot_tables" ~write:false;
      Hashtbl.fold
        (fun _ tab acc ->
          let rows = Table_store.scan tab |> Seq.map snd |> List.of_seq in
          (tab.Table_store.name, rows) :: acc)
        t.tables [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Simulated process death: every table, view and buffered page
    vanishes.  The WAL's stable region is all that survives; recovery
    rebuilds the instance from it. *)
let reset_storage t =
  locked t @@ fun () ->
  watch_defs t ~site:"Catalog.reset_storage" ~write:true;
  watch_epoch t ~site:"Catalog.reset_storage" ~write:true;
  Hashtbl.reset t.tables;
  Hashtbl.reset t.views;
  Buffer_pool.discard_all t.pool;
  t.epoch <- t.epoch + 1
