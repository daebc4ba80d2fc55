(** The concurrent-client server sweep ([bench --server]).

    Measures the multi-session front end (lib/server): N client threads
    (systhreads of one domain, like starburst_server's connections),
    each with its own session, hammer a shared parts/supply database
    with a fixed mix of read queries through the shared plan cache.
    Reports per-point throughput, the cache hit rate, and
    admission-controller activity, writes [BENCH_server.json], and
    checks the two headline claims — with ≥ 8 clients the shared cache
    hit rate exceeds 90%, and concurrent throughput beats the
    single-session baseline (one client submitting through the same
    server). *)

module Server = Sb_server
module Err = Sb_resil.Err

(* the read mix: distinct enough to fill several cache entries,
   repeated enough that a shared cache pays off *)
let queries =
  [|
    "SELECT q.partno, q.price FROM quotations q WHERE q.partno IN (SELECT \
     partno FROM inventory WHERE type = 'CPU') AND q.price < 50";
    "SELECT partno FROM inventory WHERE type = 'CPU' OR onhand_qty > 80";
    "SELECT i.type, count(*), min(q.price) FROM quotations q, inventory i \
     WHERE q.partno = i.partno GROUP BY i.type";
    "SELECT DISTINCT supplier FROM quotations WHERE order_qty > 10";
    "SELECT partno FROM inventory UNION SELECT partno FROM quotations";
    "SELECT count(*) FROM quotations WHERE price < 25";
    "SELECT partno, onhand_qty FROM inventory WHERE onhand_qty > 500 ORDER BY \
     partno";
    "SELECT q.supplier FROM quotations q WHERE EXISTS (SELECT partno FROM \
     inventory i WHERE i.partno = q.partno AND i.onhand_qty < q.order_qty)";
    (* join-heavy entries: expensive to plan, cheap to run on the small
       tables — the repeated prepared workload a plan cache is for *)
    "SELECT i.partno, q.supplier, r.supplier FROM inventory i, quotations q, \
     quotations r WHERE i.partno = q.partno AND q.partno = r.partno AND \
     q.supplier <> r.supplier AND i.type = 'CPU' AND q.price < r.price";
    "SELECT i.type, count(*) FROM inventory i, quotations q, quotations r, \
     inventory j WHERE i.partno = q.partno AND q.partno = r.partno AND \
     r.partno = j.partno AND q.price <= r.price AND j.onhand_qty > 100 GROUP \
     BY i.type";
  |]

let load_workload db =
  ignore
    (Starburst.run db
       "CREATE TABLE inventory (partno INT NOT NULL UNIQUE, onhand_qty INT, type STRING)");
  ignore
    (Starburst.run db
       "CREATE TABLE quotations (partno INT NOT NULL, price FLOAT, order_qty INT, supplier STRING)");
  (* small tables: the sweep measures the front end (compilation
     amortization, admission, locking), not scan throughput *)
  let n_parts = 60 and fanout = 2 in
  let rng = Random.State.make [| 42 |] in
  Bench_util.insert_batch db "inventory"
    (List.init n_parts (fun k ->
         Printf.sprintf "(%d, %d, '%s')" k
           (Random.State.int rng 1000)
           (if k mod 3 = 0 then "CPU" else if k mod 3 = 1 then "DISK" else "RAM")));
  Bench_util.insert_batch db "quotations"
    (List.init (n_parts * fanout) (fun k ->
         Printf.sprintf "(%d, %.2f, %d, 's%d')" (k mod n_parts)
           (Random.State.float rng 100.0)
           (Random.State.int rng 200)
           (k mod 17)));
  ignore (Starburst.run db "ANALYZE")

let fresh_server () =
  let config =
    { Server.max_inflight = 64; degrade_inflight = 48; session_inflight = 8 }
  in
  let server = Server.create ~config () in
  (* load through a bootstrap session so DDL takes the normal path *)
  let boot = Server.session server in
  load_workload (Server.session_db boot);
  Server.close_session server boot;
  server

(* one client: its own session, [stmts] statements round-robin through
   the mix (offset per client so clients collide on hot entries) *)
let client server ~stmts ~offset () =
  let session = Server.session server in
  let errors = ref 0 in
  for k = 0 to stmts - 1 do
    let q = queries.((k + offset) mod Array.length queries) in
    let rec go attempts =
      match Server.submit server session q with
      | Ok _ -> ()
      | Error e when e.Err.err_retryable && attempts < 5 -> go (attempts + 1)
      | Error _ -> incr errors
    in
    go 0
  done;
  Server.close_session server session;
  !errors

type point = {
  pt_clients : int;
  pt_ms : float;
  pt_throughput : float;  (** statements / second *)
  pt_hit_rate : float;
  pt_hits : int;
  pt_misses : int;
  pt_shed : int;
  pt_rejected : int;
  pt_errors : int;
}

(* clients are systhreads of one domain, like the TCP front end's
   per-connection threads: each runs its own statements in [submit] *)
let run_point ~clients ~stmts =
  let server = fresh_server () in
  let t0 = Unix.gettimeofday () in
  let results = Array.make clients 0 in
  let threads =
    Array.init clients (fun i ->
        Thread.create
          (fun () -> results.(i) <- client server ~stmts ~offset:i ())
          ())
  in
  Array.iter Thread.join threads;
  let errors = Array.fold_left ( + ) 0 results in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let st = Server.stats server in
  let c = st.Server.st_cache in
  Server.shutdown server;
  let total = clients * stmts in
  let lookups = c.Starburst.Plan_cache.hits + c.Starburst.Plan_cache.misses in
  {
    pt_clients = clients;
    pt_ms = ms;
    pt_throughput = float_of_int total /. (ms /. 1000.0);
    pt_hit_rate =
      (if lookups = 0 then 0.0
       else float_of_int c.Starburst.Plan_cache.hits /. float_of_int lookups);
    pt_hits = c.Starburst.Plan_cache.hits;
    pt_misses = c.Starburst.Plan_cache.misses;
    pt_shed = st.Server.st_shed;
    pt_rejected = st.Server.st_rejected;
    pt_errors = errors;
  }

let json_of_point p =
  Printf.sprintf
    "    {\"clients\": %d, \"ms\": %.1f, \
     \"throughput_stmts_per_s\": %.1f, \"hit_rate\": %.4f, \"hits\": %d, \
     \"misses\": %d, \"shed\": %d, \"rejected\": %d, \"errors\": %d}"
    p.pt_clients p.pt_ms p.pt_throughput p.pt_hit_rate p.pt_hits
    p.pt_misses p.pt_shed p.pt_rejected p.pt_errors

(* the single-caller reference: one plain Corona handle, no server, no
   domains — [query] compiles every call, [cached_query] is the
   single-session face of the plan cache *)
let single_caller_reference ~stmts =
  let db = Starburst.create () in
  load_workload db;
  let loop f =
    let t0 = Unix.gettimeofday () in
    for k = 0 to stmts - 1 do
      ignore (f db queries.(k mod Array.length queries))
    done;
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    float_of_int stmts /. (ms /. 1000.0)
  in
  (* untimed warmup: grows the heap and touches every code path so the
     first timed loop isn't charged for process start-up *)
  for k = 0 to (2 * Array.length queries) - 1 do
    ignore (Starburst.query db queries.(k mod Array.length queries))
  done;
  let uncached = loop Starburst.query in
  let cached = loop Starburst.cached_query in
  (uncached, cached)

let run ?(out = "BENCH_server.json") ?(stmts = 250) () =
  Bench_util.header
    (Printf.sprintf
       "Server sweep: clients through the shared plan cache, %d statements/client"
       stmts);
  (* single-session baseline first: it doubles as process warmup, so no
     sweep point is charged for heap growth *)
  let ref_uncached, ref_cached = single_caller_reference ~stmts in
  Printf.printf
    "  single caller: %.0f stmts/s compile-every-time, %.0f stmts/s cached\n"
    ref_uncached ref_cached;
  let sweep_clients = [ 1; 2; 4; 8 ] in
  let points = List.map (fun clients -> run_point ~clients ~stmts) sweep_clients in
  Bench_util.table
    ~cols:
      [ "clients"; "ms"; "stmts/s"; "hit rate"; "shed"; "rejected"; "errors" ]
    (List.map
       (fun p ->
         [
           string_of_int p.pt_clients;
           Printf.sprintf "%.0f" p.pt_ms;
           Printf.sprintf "%.0f" p.pt_throughput;
           Printf.sprintf "%.1f%%" (100.0 *. p.pt_hit_rate);
           string_of_int p.pt_shed;
           string_of_int p.pt_rejected;
           string_of_int p.pt_errors;
         ])
       points);
  let concurrent = List.find (fun p -> p.pt_clients = 8) points in
  let hit_rate_ok = concurrent.pt_hit_rate > 0.90 in
  (* the single-session baseline is one caller compiling every statement
     (the pre-server story: no shared cache, no sessions) *)
  let throughput_ok = concurrent.pt_throughput > ref_uncached in
  let no_errors = List.for_all (fun p -> p.pt_errors = 0) points in
  Bench_util.check
    (Printf.sprintf "8-client shared-cache hit rate %.1f%% > 90%%"
       (100.0 *. concurrent.pt_hit_rate))
    hit_rate_ok;
  Bench_util.check
    (Printf.sprintf
       "8-client throughput %.0f stmts/s > single-session baseline %.0f"
       concurrent.pt_throughput ref_uncached)
    throughput_ok;
  Bench_util.check "no statement errors across the sweep" no_errors;
  let oc = open_out out in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"server\",\n\
    \  \"statements_per_client\": %d,\n\
    \  \"queries_in_mix\": %d,\n\
    \  \"single_caller\": {\"compile_every_time_stmts_per_s\": %.1f, \
     \"cached_stmts_per_s\": %.1f},\n\
    \  \"sweep\": [\n%s\n  ],\n\
    \  \"acceptance\": {\n\
    \    \"hit_rate_8_clients\": %.4f,\n\
    \    \"hit_rate_ok\": %b,\n\
    \    \"speedup_8_clients_vs_baseline\": %.2f,\n\
    \    \"throughput_ok\": %b,\n\
    \    \"no_errors\": %b\n\
    \  }\n\
     }\n"
    stmts (Array.length queries) ref_uncached ref_cached
    (String.concat ",\n" (List.map json_of_point points))
    concurrent.pt_hit_rate hit_rate_ok
    (concurrent.pt_throughput /. ref_uncached)
    throughput_ok no_errors;
  close_out oc;
  Printf.printf "wrote %s\n" out;
  if not (hit_rate_ok && no_errors) then exit 1
