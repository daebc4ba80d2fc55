(** [analytic]: scans, joins and aggregates over a fact table about 2.3
    times the 256-page buffer pool, so every scan misses and evicts.  Six
    statement texts with host variables: after warm-up every plan is
    cached, and the time goes to the batch operators, heap scans, row
    decoding and the buffer pool.

    The reference evaluates each class with a loop over the generated
    rows; its time is also the hardware floor the executor is compared
    with ([qes.floor_ratio]). *)

open Sb_storage

let fact_rows = 50_000
let dim_rows = 5_000
let flags = [| "A"; "B"; "C"; "D"; "E" |]
let regions = [| "north"; "south"; "east"; "west"; "central"; "coast"; "hills"; "plain" |]

type fact = { id : int; d : int; qty : int; price : int; flag : string }
type dim = { grp : int; region : string; weight : int }

let classes =
  [|
    "SELECT flag, count(*), sum(qty), max(price) FROM fact WHERE qty > :lo GROUP BY \
     flag";
    "SELECT d.region, count(*), sum(f.qty) FROM fact f, dim d WHERE f.d = d.d AND \
     d.grp < :g GROUP BY d.region";
    "SELECT id, d, qty FROM fact WHERE price = :p";
    "SELECT count(*) FROM fact WHERE price < :p";
    "SELECT DISTINCT qty FROM fact WHERE d < :dk";
    "SELECT id, price FROM fact WHERE flag = :fl ORDER BY price DESC, id LIMIT 10";
  |]

(* group rows by [key], folding each group's [init]/[step] accumulator *)
let group_by facts ~keep ~key ~init ~step =
  let h = Hashtbl.create 16 in
  Array.iter
    (fun f ->
      if keep f then
        let k = key f in
        let acc = Option.value ~default:init (Hashtbl.find_opt h k) in
        Hashtbl.replace h k (step acc f))
    facts;
  Hashtbl.fold (fun k acc rows -> (k, acc) :: rows) h []

let make ~seed : Workload.t =
  let rng = Random.State.make [| seed; 3 |] in
  let dims =
    Array.init dim_rows (fun _ ->
        {
          grp = Random.State.int rng 50;
          region = regions.(Random.State.int rng (Array.length regions));
          weight = Random.State.int rng 100;
        })
  in
  let facts =
    Array.init fact_rows (fun id ->
        {
          id;
          d = Random.State.int rng dim_rows;
          qty = 1 + Random.State.int rng 100;
          price = Random.State.int rng 10_000;
          flag = flags.(Random.State.int rng (Array.length flags));
        })
  in
  let setup =
    [
      "CREATE TABLE dim (d INT NOT NULL UNIQUE, grp INT, region STRING, weight INT)";
      "CREATE TABLE fact (id INT NOT NULL, d INT, qty INT, price INT, flag STRING)";
    ]
    @ Workload.inserts ~table:"dim"
        (List.init dim_rows (fun d ->
             let x = dims.(d) in
             Printf.sprintf "(%d, %d, '%s', %d)" d x.grp x.region x.weight))
    @ Workload.inserts ~table:"fact"
        (Array.to_list
           (Array.map
              (fun f ->
                Printf.sprintf "(%d, %d, %d, %d, '%s')" f.id f.d f.qty f.price f.flag)
              facts))
    @ [ "ANALYZE" ]
  in
  let int n = Value.Int n in
  let bag rows = Answer.of_rows ~ordered:false rows in
  let reference cls v =
    match cls with
    | 0 ->
      bag
        (List.map
           (fun (fl, (n, s, m)) -> [| Value.String fl; int n; int s; int m |])
           (group_by facts
              ~keep:(fun f -> f.qty > v)
              ~key:(fun f -> f.flag)
              ~init:(0, 0, min_int)
              ~step:(fun (n, s, m) f -> (n + 1, s + f.qty, max m f.price))))
    | 1 ->
      bag
        (List.map
           (fun (r, (n, s)) -> [| Value.String r; int n; int s |])
           (group_by facts
              ~keep:(fun f -> dims.(f.d).grp < v)
              ~key:(fun f -> dims.(f.d).region)
              ~init:(0, 0)
              ~step:(fun (n, s) f -> (n + 1, s + f.qty))))
    | 2 ->
      bag
        (Array.fold_left
           (fun rows f -> if f.price = v then [| int f.id; int f.d; int f.qty |] :: rows else rows)
           [] facts)
    | 3 ->
      bag
        [ [| int (Array.fold_left (fun n f -> if f.price < v then n + 1 else n) 0 facts) |] ]
    | 4 ->
      let seen = Array.make 101 false in
      Array.iter (fun f -> if f.d < v then seen.(f.qty) <- true) facts;
      bag
        (List.filter_map
           (fun q -> if seen.(q) then Some [| int q |] else None)
           (List.init 101 Fun.id))
    | _ ->
      let fl = flags.(v) in
      let hits = List.filter (fun f -> f.flag = fl) (Array.to_list facts) in
      let top =
        List.sort
          (fun a b -> if a.price <> b.price then compare b.price a.price else compare a.id b.id)
          hits
      in
      Answer.of_rows ~ordered:true
        (List.filteri (fun i _ -> i < 10) top
        |> List.map (fun f -> [| int f.id; int f.price |]))
  in
  (* each class's host variable and a value for it *)
  let binding cls =
    let r n = Random.State.int rng n in
    match cls with
    | 0 -> ("lo", 10 * r 10)
    | 1 -> ("g", 5 * (1 + r 10))
    | 2 -> ("p", r 10_000)
    | 3 -> ("p", 1000 * (1 + r 10))
    | 4 -> ("dk", 500 * (1 + r 10))
    | _ -> ("fl", r (Array.length flags))
  in
  (* warm-up is two whole blocks, so every plan is cached before timing *)
  let deal = Workload.dealer rng (List.init 6 Fun.id) in
  let next () : Workload.stmt =
    let cls = deal () in
    let name, v = binding cls in
    let value = if cls = 5 then Value.String flags.(v) else int v in
    Workload.query ~hosts:[ (name, value) ] ~ordered:(cls = 5) classes.(cls)
      (fun () -> reference cls v)
  in
  let sum f = Array.fold_left (fun s x -> s + f x) 0 in
  let state () =
    [
      ( "SELECT count(*), sum(qty), sum(price) FROM fact",
        bag [ [| int fact_rows; int (sum (fun f -> f.qty) facts); int (sum (fun f -> f.price) facts) |] ] );
      ( "SELECT count(*), sum(grp), sum(weight) FROM dim",
        bag [ [| int dim_rows; int (sum (fun x -> x.grp) dims); int (sum (fun x -> x.weight) dims) |] ] );
    ]
  in
  {
    Workload.setup;
    tables = [ "fact"; "dim" ];
    read_only = true;
    setup_runs = 3;
    warmup = 12;
    replay = 100;
    next;
    state;
  }
