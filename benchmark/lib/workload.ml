(** What every workload provides: its schema and data as SQL, a
    deterministic statement stream, and a plain-OCaml reference for each
    statement's answer.  Everything is generated from the seed; the
    engine sees only SQL text and host-variable bindings. *)

open Sb_storage

type stmt = {
  text : string;
  hosts : (string * Value.t) list;  (** bound on the session before submit *)
  write : bool;  (** DML; everything else is a SELECT *)
  ordered : bool;  (** the answer is compared in order (ORDER BY) *)
  expected : unit -> Answer.t;
      (** evaluates the reference; called only after the timed window *)
}

type t = {
  setup : string list;  (** DDL, load, session SETs and ANALYZE, in order *)
  tables : string list;
  read_only : bool;
      (** no statement writes, so an answer depends only on the
          statement's text and bindings and may be memoized *)
  setup_runs : int;
      (** set-ups per untraced run, about a second's worth; [setup_s] is
          their median *)
  warmup : int;  (** statements run before timing starts *)
  replay : int;  (** statements the counted and traced replays cover *)
  next : unit -> stmt;  (** the stream: each call yields the next statement *)
  state : unit -> (string * Answer.t) list;
      (** queries over the whole database with their expected answers
          after every statement drawn so far; the durability check *)
}

(** Multi-row INSERTs of at most 500 rows each. *)
let inserts ~table (rows : string list) =
  let stmt chunk =
    Printf.sprintf "INSERT INTO %s VALUES %s" table
      (String.concat ", " (List.rev chunk))
  in
  let rec go acc chunk n = function
    | [] -> List.rev (if chunk = [] then acc else stmt chunk :: acc)
    | r :: rest when n = 500 -> go (stmt chunk :: acc) [ r ] 1 rest
    | r :: rest -> go acc (r :: chunk) (n + 1) rest
  in
  go [] [] 0 rows

(** Deals statement classes from [deck] in blocks: each block is the
    whole deck in a seeded shuffled order, so the mix is exact at every
    block boundary and does not vary with the seed. *)
let dealer rng deck =
  let deck = Array.of_list deck in
  let n = Array.length deck in
  let pos = ref n in
  fun () ->
    if !pos = n then begin
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = deck.(i) in
        deck.(i) <- deck.(j);
        deck.(j) <- x
      done;
      pos := 0
    end;
    incr pos;
    deck.(!pos - 1)

let query ?(hosts = []) ?(ordered = false) text expected =
  { text; hosts; write = false; ordered; expected }

let write text expected = { text; hosts = []; write = true; ordered = false; expected }
