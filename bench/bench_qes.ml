(** The executor sweep ([bench --qes]).

    Times the QES on compiled plans: scan, filter, hash-join and
    hash-aggregation micro-benchmarks plus a 5-way join macro.  Each
    plan is compiled once and run [reps] times, so the numbers isolate
    execution (no parse/rewrite/optimize noise).

    Three points are gated against a same-process {e floor}: a
    hand-written OCaml loop computing the same answer over the same
    rows, decoded into plain arrays outside the timed region.  Each
    floor's answer is checked equal to the engine's before anything is
    timed, and each gate bounds [engine_ms / floor_ms] — a ratio taken
    in one process, so it holds on any machine.  The bounds sit where
    the retired engine-vs-engine gates would have tripped (hash join
    >= 2x, filter >= 1.3x, aggregate >= 1.6x the tuple-at-a-time
    engine): the floor ratio measured with the tuple engine still
    present, scaled by its speedup over that gate.  Writes
    [BENCH_qes.json] and exits 1 when a gate fails. *)

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

(* --- floors: the same answers from hand-written loops --- *)

(* one INT column of every row of [table], in storage order *)
let int_column db table col =
  Array.of_list
    (List.map
       (fun (r : Sb_storage.Tuple.t) -> Sb_storage.Value.as_int r.(0))
       (Starburst.query db (Printf.sprintf "SELECT %s FROM %s" col table)))

let int_rows l = List.map (fun xs -> Array.of_list (List.map (fun x -> Sb_storage.Value.Int x) xs)) l

(* the filter point: k of every big row with v < 500 *)
let filter_floor db =
  let k = int_column db "big" "k" and v = int_column db "big" "v" in
  fun () ->
    let out = ref [] in
    for i = Array.length k - 1 downto 0 do
      if v.(i) < 500 then out := [ k.(i) ] :: !out
    done;
    int_rows !out

(* the hash-join point (a count-star of the grp self-join on dim): build a
   bucket of row indices per key, then visit every match of every probe *)
let hash_join_floor db =
  let grp = int_column db "dim" "grp" in
  fun () ->
    let buckets = Hashtbl.create 256 in
    Array.iteri
      (fun i g ->
        Hashtbl.replace buckets g (i :: Option.value ~default:[] (Hashtbl.find_opt buckets g)))
      grp;
    let count = ref 0 in
    Array.iter
      (fun g ->
        List.iter (fun _ -> incr count) (Option.value ~default:[] (Hashtbl.find_opt buckets g)))
      grp;
    int_rows [ [ !count ] ]

(* the aggregate point: count-star and min(v) per grp of big *)
let aggregate_floor db =
  let grp = int_column db "big" "grp" and v = int_column db "big" "v" in
  fun () ->
    let groups = Hashtbl.create 128 in
    Array.iteri
      (fun i g ->
        match Hashtbl.find_opt groups g with
        | Some (n, m) ->
          incr n;
          if v.(i) < !m then m := v.(i)
        | None -> Hashtbl.replace groups g (ref 1, ref v.(i)))
      grp;
    int_rows (Hashtbl.fold (fun g (n, m) acc -> [ g; !n; !m ] :: acc) groups [])

(* --- the sweep --- *)

type point = {
  pt_name : string;
  pt_rows : int;
  pt_engine_ms : float;
  pt_floor_ms : float option;  (** gated points only *)
}

let floor_ratio p =
  match p.pt_floor_ms with
  | Some f when f > 0.0 -> p.pt_engine_ms /. f
  | _ -> 0.0

let same_bag a b =
  let sorted = List.sort Sb_storage.Tuple.compare in
  List.equal (fun x y -> Sb_storage.Tuple.compare x y = 0) (sorted a) (sorted b)

(* compile once; with a floor, check its answer, then time both *)
let run_point db ?floor ~name ~reps text =
  let plan = Starburst.compile_text db text in
  let rows = Starburst.run_plan db plan in
  Option.iter
    (fun f ->
      if not (same_bag rows (f ())) then begin
        Printf.printf "  [DEVIATION] %s: the engine and its floor disagree\n" name;
        exit 1
      end)
    floor;
  let engine_ms = Bench_util.time_ms ~reps (fun () -> Starburst.run_plan db plan) in
  let floor_ms = Option.map (fun f -> Bench_util.time_ms ~reps f) floor in
  { pt_name = name; pt_rows = List.length rows; pt_engine_ms = engine_ms;
    pt_floor_ms = floor_ms }

let json_of_point p =
  Printf.sprintf "    {\"name\": \"%s\", \"rows\": %d, \"engine_ms\": %.2f%s}" p.pt_name
    p.pt_rows p.pt_engine_ms
    (match p.pt_floor_ms with
    | Some f -> Printf.sprintf ", \"floor_ms\": %.3f, \"floor_ratio\": %.2f" f (floor_ratio p)
    | None -> "")

(* engine_ms / floor_ms bounds; see the module comment *)
let gates =
  [ ("hash-join", "hash_join", 17.27); ("filter", "filter", 2.32); ("aggregate", "aggregate", 7.42) ]

let run ?(out = "BENCH_qes.json") ?(big_rows = 60_000) ?(dim_rows = 10_000)
    ?(reps = 7) () =
  Bench_util.header
    (Printf.sprintf "QES sweep: %d/%d-row tables, median of %d" big_rows dim_rows reps);
  let db = qes_db ~big_rows ~dim_rows () in
  let points =
    [
      run_point db ~name:"scan" ~reps "SELECT k, v, grp FROM big";
      run_point db ~floor:(filter_floor db) ~name:"filter" ~reps
        "SELECT k FROM big WHERE v < 500";
      run_point db ~name:"count-dim" ~reps "SELECT count(*) FROM dim";
      run_point db ~name:"count-big" ~reps "SELECT count(*) FROM big";
      run_point db ~floor:(hash_join_floor db) ~name:"hash-join" ~reps
        "SELECT count(*) FROM dim a, dim b WHERE a.grp = b.grp";
      run_point db ~name:"join-project" ~reps
        "SELECT b.k, d.w FROM big b, dim d WHERE b.k = d.k AND d.w < 900";
      run_point db ~floor:(aggregate_floor db) ~name:"aggregate" ~reps
        "SELECT grp, count(*), min(v) FROM big GROUP BY grp";
      run_point db ~name:"join-5way" ~reps
        "SELECT a.k, e.w FROM dim a, dim b, dim c, dim d, dim e WHERE a.k = \
         b.k AND b.k = c.k AND c.k = d.k AND d.k = e.k AND a.w < 800";
    ]
  in
  Bench_util.table
    ~cols:[ "benchmark"; "rows"; "engine ms"; "floor ms"; "engine/floor" ]
    (List.map
       (fun p ->
         [
           p.pt_name;
           string_of_int p.pt_rows;
           Bench_util.ms p.pt_engine_ms;
           (match p.pt_floor_ms with Some f -> Printf.sprintf "%.3f" f | None -> "-");
           (match p.pt_floor_ms with Some _ -> Printf.sprintf "%.2f" (floor_ratio p) | None -> "-");
         ])
       points);
  let results =
    List.map
      (fun (name, key, bound) ->
        let r = floor_ratio (List.find (fun p -> p.pt_name = name) points) in
        let ok = r <= bound in
        Bench_util.check (Printf.sprintf "%s engine/floor %.2f <= %g" name r bound) ok;
        (key, r, bound, ok))
      gates
  in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"qes\",\n\
    \  \"big_rows\": %d,\n\
    \  \"dim_rows\": %d,\n\
    \  \"reps\": %d,\n\
    \  \"sweep\": [\n%s\n  ],\n\
    \  \"acceptance\": {\n%s\n  }\n\
     }\n"
    big_rows dim_rows reps
    (String.concat ",\n" (List.map json_of_point points))
    (String.concat ",\n"
       (List.map
          (fun (key, r, bound, ok) ->
            Printf.sprintf
              "    \"%s_floor_ratio\": %.2f,\n    \"%s_bound\": %g,\n    \"%s_ok\": %b" key r
              key bound key ok)
          results));
  close_out oc;
  Printf.printf "wrote %s\n" out;
  if List.exists (fun (_, _, _, ok) -> not ok) results then exit 1
