(** The vectorized-executor sweep ([bench --qes]).

    Compares the tuple-at-a-time and batch-at-a-time QES engines on the
    same compiled plans: scan, filter, hash-join and hash-aggregation
    micro-benchmarks plus a 5-way join macro.  Each plan is compiled
    once; [SET vectorized] then flips the engine between timed runs, so
    the comparison isolates execution (no parse/rewrite/optimize noise)
    and both engines interpret byte-identical plans.  Every point is
    also cross-checked for bag equality before it is timed.  Writes
    [BENCH_qes.json] and checks two claims, each a ratio taken in the
    same process: the vectorized hash-join micro-benchmark runs at
    >= 2x the tuple-engine throughput, and the vectorized filter — a
    page-at-a-time scan decoding only the columns it needs, with a
    compiled predicate — at >= 1.3x. *)

let qes_db ~big_rows ~dim_rows () =
  let db = Starburst.create () in
  ignore
    (Starburst.run db
       "CREATE TABLE big (k INT NOT NULL, v INT, grp INT)");
  ignore (Starburst.run db "CREATE TABLE dim (k INT NOT NULL, w INT, grp INT)");
  let rng = Random.State.make [| 42 |] in
  Bench_util.insert_batch db "big"
    (List.init big_rows (fun i ->
         Printf.sprintf "(%d, %d, %d)" (i mod dim_rows)
           (Random.State.int rng 1000)
           (i mod 100)));
  (* grp fans out 100 ways, so the self-join on it emits 100 rows per
     probe: the join micro-benchmark is emission-bound, not scan-bound *)
  Bench_util.insert_batch db "dim"
    (List.init dim_rows (fun i ->
         Printf.sprintf "(%d, %d, %d)" i
           (Random.State.int rng 1000)
           (i mod (dim_rows / 100))));
  ignore (Starburst.run db "ANALYZE");
  db

type point = {
  pt_name : string;
  pt_rows : int;  (** result rows (identical under both engines) *)
  pt_tuple_ms : float;
  pt_vec_ms : float;
}

let speedup p = if p.pt_vec_ms > 0.0 then p.pt_tuple_ms /. p.pt_vec_ms else 0.0

let set_engine db on =
  ignore (Starburst.run db (if on then "SET vectorized = on" else "SET vectorized = off"))

let sorted_rows rows = List.sort Sb_storage.Tuple.compare rows

(* compile once, check bag equality across engines, then time both *)
let run_point db ~name ~reps text =
  let plan = Starburst.compile_text db text in
  set_engine db false;
  let tuple_rows = Starburst.run_plan db plan in
  set_engine db true;
  let vec_rows = Starburst.run_plan db plan in
  if
    not
      (List.equal
         (fun a b -> Sb_storage.Tuple.compare a b = 0)
         (sorted_rows tuple_rows) (sorted_rows vec_rows))
  then begin
    Printf.printf "  [DEVIATION] %s: engines disagree on the result bag\n" name;
    exit 1
  end;
  set_engine db false;
  let tuple_ms = Bench_util.time_ms ~reps (fun () -> Starburst.run_plan db plan) in
  set_engine db true;
  let vec_ms = Bench_util.time_ms ~reps (fun () -> Starburst.run_plan db plan) in
  { pt_name = name; pt_rows = List.length tuple_rows;
    pt_tuple_ms = tuple_ms; pt_vec_ms = vec_ms }

let json_of_point p =
  Printf.sprintf
    "    {\"name\": \"%s\", \"rows\": %d, \"tuple_ms\": %.2f, \"vec_ms\": \
     %.2f, \"speedup\": %.2f}"
    p.pt_name p.pt_rows p.pt_tuple_ms p.pt_vec_ms (speedup p)

let run ?(out = "BENCH_qes.json") ?(big_rows = 60_000) ?(dim_rows = 10_000)
    ?(reps = 7) () =
  Bench_util.header
    (Printf.sprintf
       "QES engine sweep: tuple-at-a-time vs vectorized, %d/%d-row tables, \
        median of %d"
       big_rows dim_rows reps);
  let db = qes_db ~big_rows ~dim_rows () in
  let points =
    [
      run_point db ~name:"scan" ~reps "SELECT k, v, grp FROM big";
      run_point db ~name:"filter" ~reps "SELECT k FROM big WHERE v < 500";
      run_point db ~name:"count-dim" ~reps "SELECT count(*) FROM dim";
      run_point db ~name:"count-big" ~reps "SELECT count(*) FROM big";
      run_point db ~name:"hash-join" ~reps
        "SELECT count(*) FROM dim a, dim b WHERE a.grp = b.grp";
      run_point db ~name:"join-project" ~reps
        "SELECT b.k, d.w FROM big b, dim d WHERE b.k = d.k AND d.w < 900";
      run_point db ~name:"aggregate" ~reps
        "SELECT grp, count(*), min(v) FROM big GROUP BY grp";
      run_point db ~name:"join-5way" ~reps
        "SELECT a.k, e.w FROM dim a, dim b, dim c, dim d, dim e WHERE a.k = \
         b.k AND b.k = c.k AND c.k = d.k AND d.k = e.k AND a.w < 800";
    ]
  in
  Bench_util.table
    ~cols:[ "benchmark"; "rows"; "tuple ms"; "vectorized ms"; "speedup" ]
    (List.map
       (fun p ->
         [
           p.pt_name;
           string_of_int p.pt_rows;
           Bench_util.ms p.pt_tuple_ms;
           Bench_util.ms p.pt_vec_ms;
           Printf.sprintf "%.2fx" (speedup p);
         ])
       points);
  let gate name floor =
    let p = List.find (fun p -> p.pt_name = name) points in
    let ok = speedup p >= floor in
    Bench_util.check
      (Printf.sprintf "%s vectorized throughput %.2fx >= %gx tuple engine" name
         (speedup p) floor)
      ok;
    (speedup p, ok)
  in
  let hj, hj_ok = gate "hash-join" 2.0 in
  let filter, filter_ok = gate "filter" 1.3 in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"qes\",\n\
    \  \"big_rows\": %d,\n\
    \  \"dim_rows\": %d,\n\
    \  \"reps\": %d,\n\
    \  \"sweep\": [\n%s\n  ],\n\
    \  \"acceptance\": {\n\
    \    \"hash_join_speedup\": %.2f,\n\
    \    \"hash_join_ok\": %b,\n\
    \    \"filter_speedup\": %.2f,\n\
    \    \"filter_ok\": %b\n\
    \  }\n\
     }\n"
    big_rows dim_rows reps
    (String.concat ",\n" (List.map json_of_point points))
    hj hj_ok filter filter_ok;
  close_out oc;
  Printf.printf "wrote %s\n" out;
  if not (hj_ok && filter_ok) then exit 1
