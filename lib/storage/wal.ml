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
type logged = { l_lsn : int; l_crc : int32; l_bytes : string }

(* --- CRC-32 (IEEE 802.3 polynomial, table-driven) --- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 (s : string) : int32 =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let encode (r : record) : string = Marshal.to_string r []
let decode (bytes : string) : record = Marshal.from_string bytes 0

type t = {
  lock : Sb_conc.Lock.t;
      (** level {!Sb_conc.Level.wal}: no storage lock is held when it is
          taken (the buffer pool never calls into the log); only an
          installed fault plan's lock (and, on an injected fault, the
          registry it counts into) nests inside *)
  mutable enabled : bool;
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
    enabled = true;
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

let enabled t =
  locked t (fun () ->
      watch t ~site:"Wal.enabled" ~write:false;
      t.enabled)

let set_enabled t on =
  locked t (fun () ->
      watch t ~site:"Wal.set_enabled" ~write:true;
      t.enabled <- on)

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

(** Appends one record to the volatile tail and returns its LSN (0 when
    the log is disabled).  Site [wal.append]: a crash here loses the
    record — it was never serialized. *)
let append t (r : record) : int =
  locked t @@ fun () ->
  watch t ~site:"Wal.append" ~write:true;
  if not t.enabled then 0
  else begin
    Faults.guard t.faults ~site:"wal.append" (fun () -> ());
    let bytes = encode r in
    let lsn = t.next_lsn in
    t.next_lsn <- lsn + 1;
    t.volatile <- { l_lsn = lsn; l_crc = crc32 bytes; l_bytes = bytes } :: t.volatile;
    t.n_appends <- t.n_appends + 1;
    (match r with
    | Commit _ -> t.n_commits <- t.n_commits + 1
    | Abort _ -> t.n_aborts <- t.n_aborts + 1
    | Ddl text -> t.ddl_history <- text :: t.ddl_history
    | Checkpoint { ck_ddl; _ } -> t.ddl_history <- List.rev ck_ddl
    | Begin _ | Update _ -> ());
    lsn
  end

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
let torn l = { l with l_crc = Int32.lognot l.l_crc }

(** Forces the volatile tail to the stable region (one consult of site
    [wal.flush] covers every pending record — group commit).  A crash
    here simulates a torn write: the oldest pending record lands in the
    stable region with a corrupted CRC and everything behind it is
    lost. *)
let flush t : unit =
  let sink =
    locked t @@ fun () ->
    watch t ~site:"Wal.flush" ~write:true;
    if (not t.enabled) || t.volatile = [] then None
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

(** The stable region, oldest first, truncated at the first record whose
    CRC does not match its bytes (a torn write).  Returns the readable
    records and the number of truncated entries. *)
let stable_records t : (int * record) list * int =
  locked t @@ fun () ->
  watch t ~site:"Wal.stable_records" ~write:false;
  let all = List.rev t.stable in
  let rec go acc = function
    | [] -> (List.rev acc, 0)
    | l :: rest ->
      if crc32 l.l_bytes = l.l_crc then go ((l.l_lsn, decode l.l_bytes) :: acc) rest
      else (List.rev acc, 1 + List.length rest)
  in
  go [] all

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
  if not (enabled t) then ()
  else begin
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
  end

(* --- introspection (the shell's \wal, tests, metrics) --- *)

type stats = {
  s_enabled : bool;
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
    s_enabled = t.enabled;
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
        ( Printf.sprintf "SBWAL1 %d %d" t.next_lsn t.next_txn,
          List.rev_map
            (fun l -> Printf.sprintf "%d %ld %s" l.l_lsn l.l_crc (to_hex l.l_bytes))
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
    gone, exactly as with an in-memory torn write. *)
let load_file t (path : string) : int =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  let next_lsn, next_txn, body =
    match lines with
    | header :: body -> (
      match String.split_on_char ' ' header with
      | [ "SBWAL1"; lsn; txn ] ->
        ( Option.value ~default:1 (int_of_string_opt lsn),
          Option.value ~default:1 (int_of_string_opt txn),
          body )
      | _ -> (1, 1, []))
    | [] -> (1, 1, [])
  in
  let parse line =
    match String.split_on_char ' ' line with
    | [ lsn; crc; hex ] -> (
      match (int_of_string_opt lsn, Int32.of_string_opt crc, of_hex hex) with
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
  locked t (fun () ->
      t.stable <- List.rev records;
      t.volatile <- [];
      t.next_lsn <- max next_lsn (1 + List.fold_left (fun m l -> max m l.l_lsn) 0 records);
      t.next_txn <- max next_txn t.next_txn;
      (* rebuild the DDL history from the readable prefix *)
      t.ddl_history <- [];
      List.iter
        (fun l ->
          if crc32 l.l_bytes = l.l_crc then
            match decode l.l_bytes with
            | Ddl text -> t.ddl_history <- text :: t.ddl_history
            | Checkpoint { ck_ddl; _ } -> t.ddl_history <- List.rev ck_ddl
            | _ -> ())
        (List.rev t.stable);
      t.needs_recovery <- t.stable <> [];
      List.length records)
