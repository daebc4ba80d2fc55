(** The write-ahead log.

    An append-only log of value-based (logical) records — commit / ddl /
    checkpoint — each stamped with a monotonically increasing LSN and a
    CRC-32 over its serialized payload.  A statement is a transaction,
    and it reaches the log only when it commits: one [Commit] record
    holding every row change it made.  The log has two regions: a
    {e volatile tail} (records appended but not yet forced) and a
    {e stable prefix} (records that survive a crash).  {!flush} moves
    the whole tail to the stable region in one step, so a commit that
    forces the log also forces every record queued before it — group
    commit for free when several sessions share one log.

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

type change = {
  c_table : string;
  c_before : Tuple.t option;  (** [None] for an insert *)
  c_after : Tuple.t option;  (** [None] for a delete *)
}

type record =
  | Commit of change list  (** oldest first *)
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

(* --- the byte format: each record is one Row_codec record, written a
   field at a time.  Its first field is an INT tag, and row images are
   inline fields, never nested records:
   - Commit: 0, then per change its table and two images, each either
     NULL (no row) or the row's width followed by its fields;
   - Ddl: 1 and the text;
   - Checkpoint: 2, the DDL count and texts, then per table its name,
     width, row count and every row's fields. --- *)

let image_fields = function None -> 1 | Some row -> 1 + Array.length row
let width = function [] -> 0 | row :: _ -> Array.length row

let encode (r : record) : string =
  let buf = Buffer.create 64 in
  let field = Row_codec.add_field buf in
  let fields row = Array.iter field row in
  let image = function None -> field Null | Some row -> field (Int (Array.length row)); fields row in
  (match r with
  | Commit changes ->
    Row_codec.add_count buf
      (List.fold_left (fun n c -> n + 1 + image_fields c.c_before + image_fields c.c_after) 1 changes);
    field (Int 0);
    List.iter
      (fun c ->
        field (String c.c_table);
        image c.c_before;
        image c.c_after)
      changes
  | Ddl text ->
    Row_codec.add_count buf 2;
    field (Int 1);
    field (String text)
  | Checkpoint { ck_ddl; ck_tables } ->
    Row_codec.add_count buf
      (List.fold_left
         (fun n (_, rows) -> n + 3 + (width rows * List.length rows))
         (2 + List.length ck_ddl) ck_tables);
    field (Int 2);
    field (Int (List.length ck_ddl));
    List.iter (fun text -> field (String text)) ck_ddl;
    List.iter
      (fun (name, rows) ->
        let w = width rows in
        field (String name);
        field (Int w);
        field (Int (List.length rows));
        List.iter
          (fun row ->
            if Array.length row <> w then invalid_arg "Wal.checkpoint: rows of unequal width";
            fields row)
          rows)
      ck_tables);
  Buffer.contents buf

(* [None] for bytes that are not a record: corrupt Row_codec bytes or
   fields of the wrong shape (which raise [Exit] here) *)
let decode (bytes : string) : record option =
  try
    let a = Row_codec.decode bytes in
    let pos = ref 0 in
    let left () = Array.length a - !pos in
    let next () =
      if left () = 0 then raise Exit;
      incr pos;
      a.(!pos - 1)
    in
    let str () = match next () with String s -> s | _ -> raise Exit in
    (* a count or width no more than the fields left *)
    let count () = match next () with Int n when n >= 0 && n <= left () -> n | _ -> raise Exit in
    let row w =
      if w > left () then raise Exit;
      pos := !pos + w;
      Array.sub a (!pos - w) w
    in
    let image () = match next () with Null -> None | Int w when w >= 0 -> Some (row w) | _ -> raise Exit in
    let rec until_end acc f = if left () = 0 then List.rev acc else until_end (f () :: acc) f in
    let record =
      match next () with
      | Int 0 ->
        Commit
          (until_end [] (fun () ->
               let c_table = str () in
               let c_before = image () in
               let c_after = image () in
               { c_table; c_before; c_after }))
      | Int 1 -> Ddl (str ())
      | Int 2 ->
        let ck_ddl = List.init (count ()) (fun _ -> str ()) in
        let ck_tables =
          until_end [] (fun () ->
              let name = str () in
              let w = count () in
              (name, List.init (count ()) (fun _ -> row w)))
        in
        Checkpoint { ck_ddl; ck_tables }
      | _ -> raise Exit
    in
    if left () = 0 then Some record else None
  with Exit | Err.Error _ -> None

(* the DDL history after [r] *)
let history h = function
  | Ddl text -> text :: h
  | Checkpoint { ck_ddl; _ } -> List.rev ck_ddl
  | Commit _ -> h

type t = {
  lock : Sb_conc.Lock.t;
      (** level {!Sb_conc.Level.wal}: no storage lock is held when it is
          taken (the buffer pool never calls into the log); only an
          installed fault plan's lock (and, on an injected fault, the
          registry it counts into) nests inside *)
  mutable next_lsn : int;
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
}

let create () =
  {
    lock = Sb_conc.Lock.create ~name:"storage.wal" ~level:Sb_conc.Level.wal;
    next_lsn = 1;
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
  | Ddl _ | Checkpoint _ -> t.ddl_history <- history t.ddl_history r);
  lsn

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

(** The LSNs of the [Commit] records in the readable stable prefix —
    the transactions recovery must restore exactly. *)
let commits t : int list =
  let records, _ = stable_records t in
  List.filter_map (function lsn, Commit _ -> Some lsn | _ -> None) records

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
  s_needs_recovery : bool;
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
    s_needs_recovery = t.needs_recovery;
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
        ( Printf.sprintf "SBWAL3 %d" t.next_lsn,
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
    is rebuilt from the readable prefix.  A file that cannot be read or
    has no [SBWAL3] header is a structured [Storage] error that leaves
    [t] as it was. *)
let load_file t (path : string) : int =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> Err.fail Err.Storage "cannot read the log %s (%s)" path msg
  in
  let header, body =
    match String.split_on_char '\n' text with header :: body -> (header, body) | [] -> ("", [])
  in
  let next_lsn =
    match Scanf.sscanf_opt header "SBWAL3 %d%!" Fun.id with
    | Some lsn -> lsn
    | None -> Err.fail Err.Storage "%s is not an SBWAL3 log (header %S)" path header
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
      t.ddl_history <- ddl;
      t.needs_recovery <- t.stable <> [];
      List.length records)
