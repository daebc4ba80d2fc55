(** Pluggable storage managers.

    Core's data management extension architecture [LIND87] lets a DBC add
    new storage methods for tables.  A storage manager is an object that
    owns the bytes of one table; the rest of the system addresses records
    only through record ids and the operations below.  Managers register a
    {!factory} by name; `CREATE TABLE ... USING <name>` selects one. *)

(** Record identifier: stable address of a record within its table. *)
type rid = { rid_page : int; rid_slot : int }

let compare_rid a b =
  match Int.compare a.rid_page b.rid_page with
  | 0 -> Int.compare a.rid_slot b.rid_slot
  | c -> c

let pp_rid ppf r = Fmt.pf ppf "(%d,%d)" r.rid_page r.rid_slot

(** One storage-manager instance holds one table's records. *)
type instance = {
  sm_kind : string;
  insert : Tuple.t -> rid;
  delete : rid -> bool;
  update : rid -> Tuple.t -> bool;
  fetch : rid -> Tuple.t option;
  scan_page : int -> Row_codec.sink -> (int -> unit) -> unit;
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

type registry = (string, factory) Hashtbl.t

let create_registry () : registry = Hashtbl.create 4

let register (reg : registry) (f : factory) =
  if Hashtbl.mem reg f.factory_name then
    Sb_resil.Err.fail Sb_resil.Err.Storage
      "Storage_manager.register: duplicate %s" f.factory_name;
  Hashtbl.add reg f.factory_name f

let find (reg : registry) name = Hashtbl.find_opt reg name

let names (reg : registry) =
  Hashtbl.fold (fun k _ acc -> k :: acc) reg [] |> List.sort String.compare
