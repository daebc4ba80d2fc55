(** [oltp]: point reads beside writes on a table that fits the buffer
    pool.  Reads go through cached plans and B-tree probes; every write
    is a WAL transaction (append, commit, flush) and every 1000 commits
    a checkpoint snapshots the tables.

    The reference is a model of the database kept by the generator: it
    applies each write as it is drawn, so a read's expected answer is
    known when the read is drawn — the loop is closed and statements run
    in stream order. *)

open Sb_storage

let accounts = 10_000
let branches = 100
let cities = [| "Almaden"; "Yorktown"; "Zurich"; "Haifa"; "Tokyo" |]
let owner k = Printf.sprintf "owner%05d" k
let bname b = Printf.sprintf "branch%02d" b
let point_read = "SELECT owner, balance FROM account WHERE k = :k"

let key_join =
  "SELECT a.balance, b.bname, b.city FROM account a, branch b WHERE a.k = :k \
   AND a.branch = b.b"

let make ~seed : Workload.t =
  let rng = Random.State.make [| seed; 1 |] in
  let balance = Array.init accounts (fun _ -> Random.State.int rng 100_000) in
  let branch_of = Array.init accounts (fun _ -> Random.State.int rng branches) in
  let city = Array.init branches (fun _ -> cities.(Random.State.int rng 5)) in
  let setup =
    [
      "CREATE TABLE account (k INT NOT NULL UNIQUE, owner STRING, balance INT, \
       branch INT)";
      "CREATE TABLE branch (b INT NOT NULL UNIQUE, bname STRING, city STRING)";
      "CREATE TABLE history (hid INT NOT NULL, k INT, delta INT)";
    ]
    @ Workload.inserts ~table:"account"
        (List.init accounts (fun k ->
             Printf.sprintf "(%d, '%s', %d, %d)" k (owner k) balance.(k)
               branch_of.(k)))
    @ Workload.inserts ~table:"branch"
        (List.init branches (fun b ->
             Printf.sprintf "(%d, '%s', '%s')" b (bname b) city.(b)))
    @ [
        "CREATE INDEX account_k ON account (k)";
        "CREATE INDEX branch_b ON branch (b)";
        "ANALYZE";
        "SET wal_checkpoint = 1000";
      ]
  in
  let history = ref [] and next_hid = ref 0 in
  let one row () = Answer.of_rows ~ordered:false [ row ] in
  (* per 20 statements: 10 point reads, 3 key joins, 4 updates, 3 inserts *)
  let deal =
    Workload.dealer rng (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) [ (0, 10); (1, 3); (2, 4); (3, 3) ])
  in
  let next () : Workload.stmt =
    let k = Random.State.int rng accounts in
    let hosts = [ ("k", Value.Int k) ] in
    match deal () with
    | 0 ->
      Workload.query ~hosts point_read
        (one [| Value.String (owner k); Value.Int balance.(k) |])
    | 1 ->
      let b = branch_of.(k) in
      Workload.query ~hosts key_join
        (one [| Value.Int balance.(k); Value.String (bname b); Value.String city.(b) |])
    | 2 ->
      let d = Random.State.int rng 1001 - 500 in
      balance.(k) <- balance.(k) + d;
      Workload.write
        (Printf.sprintf "UPDATE account SET balance = balance + %d WHERE k = %d" d k)
        (fun () -> Answer.affected 1)
    | _ ->
      let d = Random.State.int rng 1001 - 500 and hid = !next_hid in
      incr next_hid;
      history := [| Value.Int hid; Value.Int k; Value.Int d |] :: !history;
      Workload.write
        (Printf.sprintf "INSERT INTO history VALUES (%d, %d, %d)" hid k d)
        (fun () -> Answer.affected 1)
  in
  let state () =
    [
      ( "SELECT k, balance FROM account",
        Answer.of_rows ~ordered:false
          (List.init accounts (fun k -> [| Value.Int k; Value.Int balance.(k) |])) );
      ("SELECT hid, k, delta FROM history", Answer.of_rows ~ordered:false !history);
    ]
  in
  {
    Workload.setup;
    tables = [ "account"; "branch"; "history" ];
    read_only = false;
    setup_runs = 11;
    warmup = 500;
    replay = 5000;
    next;
    state;
  }
