(** [adhoc]: compile-heavy queries over the paper's parts/supply tables.
    Every statement carries a literal no earlier statement used, so each
    one misses the plan cache and pays parse, QGM build, rewrite and
    STAR optimization; the tables are tiny, so execution shows the
    executor's fixed cost per statement.

    The reference evaluates each of the six templates with nested loops
    over the generated rows. *)

open Sb_storage

type part = { partno : int; onhand : int; ptype : string }
type quote = {
  q_partno : int;
  price_text : string;  (** the literal the load inserts *)
  price : float;
  order_qty : int;
  supplier : string;
}
type supplier = { sname : string; city : string; rating : int }

let types = [| "CPU"; "DISK"; "RAM" |]
let cities = [| "Almaden"; "Yorktown"; "Zurich"; "Haifa" |]

(* the literal no other statement shares: a price threshold whose digits
   past the cents encode the statement's sequence number *)
let unique_price rng seq =
  Printf.sprintf "%d.%02d%06d" (Random.State.int rng 100) (Random.State.int rng 100)
    (seq mod 1_000_000)

let make ~seed : Workload.t =
  let rng = Random.State.make [| seed; 2 |] in
  let parts =
    Array.init 20 (fun i ->
        {
          partno = i + 1;
          onhand = Random.State.int rng 1000;
          ptype = types.(i mod Array.length types);
        })
  in
  let suppliers =
    Array.init 9 (fun i ->
        {
          sname = Printf.sprintf "s%d" (i + 1);
          city = cities.(Random.State.int rng (Array.length cities));
          rating = 1 + Random.State.int rng 5;
        })
  in
  let quotes =
    Array.init 40 (fun i ->
        let cents = 100 + Random.State.int rng 9900 in
        let price_text = Printf.sprintf "%d.%02d" (cents / 100) (cents mod 100) in
        {
          q_partno = 1 + (i mod 20);
          price_text;
          price = float_of_string price_text;
          order_qty = 1 + Random.State.int rng 200;
          supplier = suppliers.(Random.State.int rng 9).sname;
        })
  in
  let setup =
    [
      "CREATE TABLE inventory (partno INT NOT NULL UNIQUE, onhand_qty INT, type \
       STRING)";
      "CREATE TABLE quotations (partno INT NOT NULL, price FLOAT, order_qty INT, \
       supplier STRING)";
      "CREATE TABLE suppliers (sname STRING NOT NULL UNIQUE, city STRING, rating \
       INT)";
    ]
    @ Workload.inserts ~table:"inventory"
        (Array.to_list
           (Array.map
              (fun p -> Printf.sprintf "(%d, %d, '%s')" p.partno p.onhand p.ptype)
              parts))
    @ Workload.inserts ~table:"quotations"
        (Array.to_list
           (Array.map
              (fun q ->
                Printf.sprintf "(%d, %s, %d, '%s')" q.q_partno q.price_text q.order_qty
                  q.supplier)
              quotes))
    @ Workload.inserts ~table:"suppliers"
        (Array.to_list
           (Array.map
              (fun s -> Printf.sprintf "('%s', '%s', %d)" s.sname s.city s.rating)
              suppliers))
    @ [
        "CREATE VIEW cpu_parts AS SELECT partno, onhand_qty FROM inventory WHERE \
         type = 'CPU'";
        "ANALYZE";
      ]
  in
  let part_of n = parts.(n - 1) in
  let supplier_of name = Option.get (Array.find_opt (fun s -> s.sname = name) suppliers) in
  let quotes_l = Array.to_list quotes in
  let quotes_of n = List.filter (fun q -> q.q_partno = n) quotes_l in
  let cpu_parts = List.filter (fun p -> p.ptype = "CPU") (Array.to_list parts) in
  let bag rows = Answer.of_rows ~ordered:false rows in
  let seq = ref 0 in
  let deal = Workload.dealer rng (List.init 6 Fun.id) in
  let next () : Workload.stmt =
    let p = unique_price rng !seq in
    incr seq;
    let pf = float_of_string p in
    let cheap () = List.filter (fun q -> q.price < pf) quotes_l in
    match deal () with
    | 0 ->
      (* the paper's section 4 query: a correlated IN subquery *)
      Workload.query
        (Printf.sprintf
           "SELECT partno, price, order_qty FROM quotations q1 WHERE q1.partno IN \
            (SELECT partno FROM inventory q3 WHERE q3.onhand_qty < q1.order_qty \
            AND q3.type = 'CPU') AND q1.price < %s"
           p)
        (fun () ->
          bag
            (List.filter_map
               (fun q ->
                 let i = part_of q.q_partno in
                 if i.onhand < q.order_qty && i.ptype = "CPU" then
                   Some [| Value.Int q.q_partno; Value.Float q.price; Value.Int q.order_qty |]
                 else None)
               (cheap ())))
    | 1 ->
      let qty = Random.State.int rng 1000 in
      Workload.query
        (Printf.sprintf
           "SELECT q.supplier, q.price FROM quotations q WHERE EXISTS (SELECT \
            i.partno FROM inventory i WHERE i.partno = q.partno AND i.onhand_qty > \
            %d) AND q.price < %s"
           qty p)
        (fun () ->
          bag
            (List.filter_map
               (fun q ->
                 if (part_of q.q_partno).onhand > qty then
                   Some [| Value.String q.supplier; Value.Float q.price |]
                 else None)
               (cheap ())))
    | 2 ->
      Workload.query
        (Printf.sprintf
           "SELECT i.partno, q.price, s.city, r.supplier FROM inventory i, \
            quotations q, suppliers s, quotations r WHERE i.partno = q.partno AND \
            q.supplier = s.sname AND r.partno = q.partno AND r.price > q.price AND \
            q.price < %s"
           p)
        (fun () ->
          bag
            (List.concat_map
               (fun q ->
                 let s = supplier_of q.supplier in
                 List.filter_map
                   (fun r ->
                     if r.price > q.price then
                       Some
                         [|
                           Value.Int q.q_partno;
                           Value.Float q.price;
                           Value.String s.city;
                           Value.String r.supplier;
                         |]
                     else None)
                   (quotes_of q.q_partno))
               (cheap ())))
    | 3 ->
      Workload.query
        (Printf.sprintf
           "SELECT c.partno, count(*), min(q.price) FROM cpu_parts c, quotations q \
            WHERE c.partno = q.partno AND q.price < %s GROUP BY c.partno HAVING \
            count(*) > 1"
           p)
        (fun () ->
          let cheap = cheap () in
          bag
            (List.filter_map
               (fun c ->
                 match List.filter (fun q -> q.q_partno = c.partno) cheap with
                 | ([] | [ _ ]) -> None
                 | qs ->
                   let lo =
                     List.fold_left (fun m q -> Float.min m q.price) infinity qs
                   in
                   Some
                     [| Value.Int c.partno; Value.Int (List.length qs); Value.Float lo |])
               cpu_parts))
    | 4 ->
      let qty = Random.State.int rng 1000 in
      Workload.query
        (Printf.sprintf
           "SELECT partno FROM inventory WHERE onhand_qty > %d UNION SELECT \
            partno FROM quotations WHERE price < %s"
           qty p)
        (fun () ->
          let from_parts =
            List.filter_map
              (fun i -> if i.onhand > qty then Some i.partno else None)
              (Array.to_list parts)
          in
          bag
            (List.map
               (fun n -> [| Value.Int n |])
               (List.sort_uniq compare
                  (from_parts @ List.map (fun q -> q.q_partno) (cheap ())))))
    | _ ->
      let rating = 1 + Random.State.int rng 5 in
      Workload.query
        (Printf.sprintf
           "SELECT c.partno, c.onhand_qty, s.sname, i.type FROM cpu_parts c, \
            quotations q, suppliers s, inventory i WHERE c.partno = q.partno AND \
            q.supplier = s.sname AND i.partno = q.partno AND s.rating >= %d AND \
            q.price < %s"
           rating p)
        (fun () ->
          bag
            (List.filter_map
               (fun q ->
                 let i = part_of q.q_partno and s = supplier_of q.supplier in
                 if i.ptype = "CPU" && s.rating >= rating then
                   Some
                     [|
                       Value.Int i.partno;
                       Value.Int i.onhand;
                       Value.String s.sname;
                       Value.String i.ptype;
                     |]
                 else None)
               (cheap ())))
  in
  let state () =
    [
      ( "SELECT partno, onhand_qty, type FROM inventory",
        bag
          (Array.to_list
             (Array.map
                (fun p -> [| Value.Int p.partno; Value.Int p.onhand; Value.String p.ptype |])
                parts)) );
      ( "SELECT partno, price, order_qty, supplier FROM quotations",
        bag
          (List.map
             (fun q ->
               [|
                 Value.Int q.q_partno;
                 Value.Float q.price;
                 Value.Int q.order_qty;
                 Value.String q.supplier;
               |])
             quotes_l) );
      ( "SELECT sname, city, rating FROM suppliers",
        bag
          (Array.to_list
             (Array.map
                (fun s -> [| Value.String s.sname; Value.String s.city; Value.Int s.rating |])
                suppliers)) );
    ]
  in
  {
    Workload.setup;
    tables = [ "inventory"; "quotations"; "suppliers" ];
    read_only = true;
    setup_runs = 101;
    warmup = 500;
    replay = 5000;
    next;
    state;
  }
