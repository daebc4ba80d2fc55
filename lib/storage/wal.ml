(** The write-ahead log.

    An append-only log of value-based (logical) records — begin / update
    / commit / abort / ddl / checkpoint — each stamped with a
    monotonically increasing LSN and a CRC-32 over its serialized
    payload.  The log has two regions: a {e volatile tail} (records
    appended but not yet forced) and a {e stable prefix} (records that
    survive a crash).  {!flush} moves the whole tail to the stable
    region in one step, so a commit that forces the log also forces
    every record queued before it — group commit for free when several
    sessions share one log.

    Crash simulation is driven by {!Sb_resil.Faults}: {!append} consults
    site [wal.append] (a crash there loses the in-flight record
    entirely), {!flush} consults [wal.flush] (a crash there simulates a
    {e torn write} — the oldest pending record reaches stable storage
    with a corrupted CRC, which recovery must detect and truncate), and
    {!checkpoint} consults [checkpoint] before anything durable happens.

    The "disk" is in-memory, like the rest of Core's storage, but the
    stable region round-trips through {!save_file}/{!load_file} so a
    real process can persist its log and recover after [kill -9]. *)

module Faults = Sb_resil.Faults
module Err = Sb_resil.Err

type record =
  | Begin of int
  | Commit of int
  | Abort of int
  | Update of {
      u_txn : int;
      u_table : string;
      u_before : Tuple.t option;  (** [None] for an insert *)
      u_after : Tuple.t option;  (** [None] for a delete *)
    }
  | Ddl of string  (** an auto-committed DDL statement, as Hydrogen text *)
  | Checkpoint of {
      ck_ddl : string list;  (** full DDL history, in execution order *)
      ck_tables : (string * Tuple.t list) list;  (** table snapshots *)
    }

(* one stable-or-volatile log entry: the payload is serialized at append
   time so the CRC covers exactly the bytes a real log would write *)
type logged = { l_lsn : int; l_crc : int; l_bytes : string }

(* --- CRC-32 (IEEE 802.3 polynomial, table-driven, in a native int) --- *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 (s : string) : int =
  let c = ref 0xFFFFFFFF in
  for k = 0 to String.length s - 1 do
    c := crc_table.((!c lxor Char.code (String.unsafe_get s k)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* --- the byte format: each record is one Row_codec tuple whose first
   field is an INT tag; tuple images nest as Row_codec strings --- *)

let image = function None -> Value.Null | Some row -> Value.String (Row_codec.encode row)

let encode (r : record) : string =
  let str s = Value.String s in
  let counted l = Value.Int (List.length l) :: List.map str l in
  Row_codec.encode
    (match r with
    | Begin txn -> [| Int 0; Int txn |]
    | Commit txn -> [| Int 1; Int txn |]
    | Abort txn -> [| Int 2; Int txn |]
    | Update u -> [| Int 3; Int u.u_txn; String u.u_table; image u.u_before; image u.u_after |]
    | Ddl text -> [| Int 4; String text |]
    | Checkpoint { ck_ddl; ck_tables } ->
      Array.of_list
        (Value.Int 5 :: counted ck_ddl
        @ List.concat_map
            (fun (name, rows) -> str name :: counted (List.map Row_codec.encode rows))
            ck_tables))

(* [None] for bytes that are not a record: corrupt Row_codec bytes or a
   tuple of the wrong shape (which raises [Exit] here) *)
let decode (bytes : string) : record option =
  let image : Value.t -> _ =
    function Null -> None | String s -> Some (Row_codec.decode s) | _ -> raise Exit
  in
  let rec strings n acc : Value.t list -> _ = function
    | rest when n = 0 -> (List.rev acc, rest)
    | String s :: rest -> strings (n - 1) (s :: acc) rest
    | _ -> raise Exit
  in
  let counted : Value.t list -> _ = function Int n :: rest -> strings n [] rest | _ -> raise Exit in
  let rec tables : Value.t list -> _ = function
    | [] -> []
    | String name :: rest ->
      let rows, rest = counted rest in
      (name, List.map Row_codec.decode rows) :: tables rest
    | _ -> raise Exit
  in
  try
    match Array.to_list (Row_codec.decode bytes) with
    | [ Int 0; Int txn ] -> Some (Begin txn)
    | [ Int 1; Int txn ] -> Some (Commit txn)
    | [ Int 2; Int txn ] -> Some (Abort txn)
    | [ Int 3; Int u_txn; String u_table; b; a ] ->
      Some (Update { u_txn; u_table; u_before = image b; u_after = image a })
    | [ Int 4; String text ] -> Some (Ddl text)
    | Int 5 :: fields ->
      let ck_ddl, rest = counted fields in
      Some (Checkpoint { ck_ddl; ck_tables = tables rest })
    | _ -> None
  with Exit | Err.Error _ -> None

(* the DDL history after [r] *)
let history h = function
  | Ddl text -> text :: h
  | Checkpoint { ck_ddl; _ } -> List.rev ck_ddl
  | Begin _ | Commit _ | Abort _ | Update _ -> h

type t = {
  lock : Sb_conc.Lock.t;
      (** level {!Sb_conc.Level.wal}: no storage lock is held when it is
          taken (the buffer pool never calls into the log); only an
          installed fault plan's lock (and, on an injected fault, the
          registry it counts into) nests inside *)
  mutable next_lsn : int;
  mutable next_txn : int;
  mutable stable : logged list;  (** newest first *)
  mutable volatile : logged list;  (** newest first *)
  mutable needs_recovery : bool;
  mutable checkpoint_every : int;  (** commits per checkpoint; 0 = off *)
  mutable commits_since_checkpoint : int;
  mutable ddl_history : string list;  (** newest first *)
  mutable faults : Faults.t;
  mutable sink : (unit -> unit) option;
      (** called after every successful flush/checkpoint, outside the
          log's lock — the server's file-persistence hook *)
  mutable n_appends : int;
  mutable n_flushes : int;
  mutable n_flushed_records : int;
  mutable n_checkpoints : int;
  mutable n_commits : int;
  mutable n_aborts : int;
}

let create () =
  {
    lock = Sb_conc.Lock.create ~name:"storage.wal" ~level:Sb_conc.Level.wal;
    next_lsn = 1;
    next_txn = 1;
    stable = [];
    volatile = [];
    needs_recovery = false;
    checkpoint_every = 0;
    commits_since_checkpoint = 0;
    ddl_history = [];
    faults = Faults.none;
    sink = None;
    n_appends = 0;
    n_flushes = 0;
    n_flushed_records = 0;
    n_checkpoints = 0;
    n_commits = 0;
    n_aborts = 0;
  }

let locked t f = Sb_conc.Lock.with_lock t.lock f

(* The race detector watches the log state as one instrumented field:
   every read or write of the LSN counters / regions records the locks
   held at the access site. *)
let watch t ~site ~write =
  Sb_conc.Discipline.access_of ~owner:(Sb_conc.Lock.id t.lock) ~field:"wal.log" ~site ~write
let set_faults t f = locked t (fun () -> t.faults <- f)
let set_sink t sink = locked t (fun () -> t.sink <- sink)

let needs_recovery t =
  locked t (fun () ->
      watch t ~site:"Wal.needs_recovery" ~write:false;
      t.needs_recovery)

let set_needs_recovery t v =
  locked t (fun () ->
      watch t ~site:"Wal.set_needs_recovery" ~write:true;
      t.needs_recovery <- v)

let set_checkpoint_every t n =
  locked t (fun () ->
      watch t ~site:"Wal.set_checkpoint_every" ~write:true;
      t.checkpoint_every <- n)

let checkpoint_due t =
  locked t @@ fun () ->
  watch t ~site:"Wal.checkpoint_due" ~write:true;
  if t.checkpoint_every <= 0 then false
  else begin
    t.commits_since_checkpoint <- t.commits_since_checkpoint + 1;
    let due = t.commits_since_checkpoint >= t.checkpoint_every in
    if due then t.commits_since_checkpoint <- 0;
    due
  end

let current_lsn t =
  locked t (fun () ->
      watch t ~site:"Wal.current_lsn" ~write:false;
      t.next_lsn - 1)

(** Appends one record to the volatile tail and returns its LSN.  Site
    [wal.append]: a crash here loses the record — it was never
    serialized. *)
let append t (r : record) : int =
  locked t @@ fun () ->
  watch t ~site:"Wal.append" ~write:true;
  Faults.guard t.faults ~site:"wal.append" (fun () -> ());
  let bytes = encode r in
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  t.volatile <- { l_lsn = lsn; l_crc = crc32 bytes; l_bytes = bytes } :: t.volatile;
  t.n_appends <- t.n_appends + 1;
  (match r with
  | Commit _ -> t.n_commits <- t.n_commits + 1
  | Abort _ -> t.n_aborts <- t.n_aborts + 1
  | Begin _ | Update _ -> ()
  | Ddl _ | Checkpoint _ -> t.ddl_history <- history t.ddl_history r);
  lsn

(** A fresh transaction id (its [Begin] record is appended). *)
let begin_txn t : int =
  let txn =
    locked t (fun () ->
        watch t ~site:"Wal.begin_txn" ~write:true;
        let txn = t.next_txn in
        t.next_txn <- txn + 1;
        txn)
  in
  ignore (append t (Begin txn));
  txn

(* corrupt a CRC so the torn record is detected, never misread *)
let torn l = { l with l_crc = l.l_crc lxor 0xFFFFFFFF }

(** Forces the volatile tail to the stable region (one consult of site
    [wal.flush] covers every pending record — group commit).  A crash
    here simulates a torn write: the oldest pending record lands in the
    stable region with a corrupted CRC and everything behind it is
    lost. *)
let flush t : unit =
  let sink =
    locked t @@ fun () ->
    watch t ~site:"Wal.flush" ~write:true;
    if t.volatile = [] then None
    else begin
      (match Faults.guard t.faults ~site:"wal.flush" (fun () -> ()) with
      | () -> ()
      | exception Faults.Crashed site ->
        (match List.rev t.volatile with
        | oldest :: _ -> t.stable <- torn oldest :: t.stable
        | [] -> ());
        raise (Faults.Crashed site));
      let n = List.length t.volatile in
      t.stable <- t.volatile @ t.stable;
      t.volatile <- [];
      t.n_flushes <- t.n_flushes + 1;
      t.n_flushed_records <- t.n_flushed_records + n;
      t.sink
    end
  in
  (* the persistence sink runs outside the log's lock *)
  Option.iter (fun sink -> sink ()) sink

(** The crash itself: the volatile tail vanishes; the stable region is
    all that survives.  Recovery is required before further use. *)
let crash t : unit =
  locked t @@ fun () ->
  watch t ~site:"Wal.crash" ~write:true;
  t.volatile <- [];
  t.needs_recovery <- true

(* the readable prefix of [entries] (oldest first) and the number of
   entries cut: it ends at the first torn entry or non-record *)
let readable entries : (int * record) list * int =
  let rec go acc = function
    | [] -> (List.rev acc, 0)
    | l :: rest -> (
      match if crc32 l.l_bytes = l.l_crc then decode l.l_bytes else None with
      | Some r -> go ((l.l_lsn, r) :: acc) rest
      | None -> (List.rev acc, 1 + List.length rest))
  in
  go [] entries

(** The stable region, oldest first, truncated at the first record that
    is torn or does not decode.  Returns the readable records and the
    number of truncated entries. *)
let stable_records t : (int * record) list * int =
  locked t @@ fun () ->
  watch t ~site:"Wal.stable_records" ~write:false;
  readable (List.rev t.stable)

(** Transactions whose [Commit] record made it to the readable stable
    prefix — the set recovery must restore exactly. *)
let committed_txns t : int list =
  let records, _ = stable_records t in
  List.filter_map (function _, Commit txn -> Some txn | _ -> None) records

(** Takes a checkpoint: the full DDL history plus the caller's table
    snapshots become one record, the log is forced, and on success the
    stable region is compacted down to just the checkpoint (records
    before it are no longer needed).  Site [checkpoint] is consulted
    before anything durable happens, so a crash there leaves the old
    log fully intact. *)
let checkpoint t ~(tables : (string * Tuple.t list) list) : unit =
  locked t (fun () -> Faults.guard t.faults ~site:"checkpoint" (fun () -> ()));
  let ck_ddl = locked t (fun () -> List.rev t.ddl_history) in
  let lsn = append t (Checkpoint { ck_ddl; ck_tables = tables }) in
  flush t;
  let sink =
    locked t (fun () ->
        watch t ~site:"Wal.checkpoint" ~write:true;
        t.stable <- List.filter (fun l -> l.l_lsn >= lsn) t.stable;
        t.n_checkpoints <- t.n_checkpoints + 1;
        t.sink)
  in
  Option.iter (fun sink -> sink ()) sink

(* --- introspection (the shell's \wal, tests, metrics) --- *)

type stats = {
  s_lsn : int;  (** highest LSN assigned *)
  s_stable : int;  (** records in the stable region *)
  s_pending : int;  (** records in the volatile tail *)
  s_appends : int;
  s_flushes : int;
  s_flushed_records : int;
  s_checkpoints : int;
  s_commits : int;
  s_aborts : int;
  s_needs_recovery : bool;
  s_next_txn : int;
}

let stats t : stats =
  locked t @@ fun () ->
  watch t ~site:"Wal.stats" ~write:false;
  {
    s_lsn = t.next_lsn - 1;
    s_stable = List.length t.stable;
    s_pending = List.length t.volatile;
    s_appends = t.n_appends;
    s_flushes = t.n_flushes;
    s_flushed_records = t.n_flushed_records;
    s_checkpoints = t.n_checkpoints;
    s_commits = t.n_commits;
    s_aborts = t.n_aborts;
    s_needs_recovery = t.needs_recovery;
    s_next_txn = t.next_txn;
  }

(* --- file persistence (the TCP server's --wal-file) --- *)

let to_hex (s : string) : string =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let of_hex (s : string) : string option =
  if String.length s mod 2 <> 0 then None
  else
    try
      Some
        (String.init
           (String.length s / 2)
           (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> None

(** Writes the stable region to [path] (atomically, via a rename), so a
    restarted process can {!load_file} and recover. *)
let save_file t (path : string) : unit =
  let header, lines =
    locked t (fun () ->
        ( Printf.sprintf "SBWAL2 %d %d" t.next_lsn t.next_txn,
          List.rev_map
            (fun l -> Printf.sprintf "%d %d %s" l.l_lsn l.l_crc (to_hex l.l_bytes))
            t.stable ))
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (header ^ "\n");
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  close_out oc;
  Sys.rename tmp path

(** Loads a previously saved log into [t]'s stable region (replacing
    it) and flags recovery as required when any records were read.
    Unreadable lines end the load — everything after a torn line is
    gone, exactly as with an in-memory torn write — and the DDL history
    is rebuilt from the readable prefix.  A file without an [SBWAL2]
    header is a structured [Storage] error that leaves [t] as it was. *)
let load_file t (path : string) : int =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let header, body =
    match List.rev !lines with header :: body -> (header, body) | [] -> ("", [])
  in
  let next_lsn, next_txn =
    match Scanf.sscanf_opt header "SBWAL2 %d %d%!" (fun lsn txn -> (lsn, txn)) with
    | Some header -> header
    | None -> Err.fail Err.Storage "%s is not an SBWAL2 log (header %S)" path header
  in
  let parse line =
    match String.split_on_char ' ' line with
    | [ lsn; crc; hex ] -> (
      match (int_of_string_opt lsn, int_of_string_opt crc, of_hex hex) with
      | Some lsn, Some crc, Some bytes -> Some { l_lsn = lsn; l_crc = crc; l_bytes = bytes }
      | _ -> None)
    | _ -> None
  in
  let rec take acc = function
    | [] -> List.rev acc
    | line :: rest -> (
      match parse line with
      | Some l -> take (l :: acc) rest
      | None -> List.rev acc)
  in
  let records = take [] body in
  let ddl = List.fold_left (fun h (_, r) -> history h r) [] (fst (readable records)) in
  locked t (fun () ->
      t.stable <- List.rev records;
      t.volatile <- [];
      t.next_lsn <- max next_lsn (1 + List.fold_left (fun m l -> max m l.l_lsn) 0 records);
      t.next_txn <- max next_txn t.next_txn;
      t.ddl_history <- ddl;
      t.needs_recovery <- t.stable <> [];
      List.length records)
