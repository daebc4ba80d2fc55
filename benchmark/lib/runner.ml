(** The benchmark's runs.  Each sets up one workload on a fresh
    [Sb_server] with the default configuration, drives it closed-loop
    from one client (each statement is submitted only after the previous
    reply), checks every answer against the workload's reference after
    timing ends, and reports the metrics.

    Two kinds of run:
    - untraced ([trace = false]): the end-to-end metrics of a timed
      window of [seconds];
    - traced ([trace = true]): the per-layer metrics.  A counted window
      of the workload's [replay] statements goes through the server with
      tracing off and supplies the layers' counters; then a fresh server
      replays the same statements on one thread, making the calls the
      server makes and recording each as a span. *)

open Sb_storage
module Server = Sb_server
module Corona = Starburst.Corona
module Plan_cache = Starburst.Plan_cache
module Exec = Sb_qes.Exec
module Plan = Sb_optimizer.Plan
module Star = Sb_optimizer.Star
module Generator = Sb_optimizer.Generator
module Limits = Sb_resil.Limits
module Err = Sb_resil.Err

let now = Spans.now
let since t0 = Int64.sub (now ()) t0
let to_s ns = Int64.to_float ns /. 1e9
let to_ms ns = Int64.to_float ns /. 1e6
let to_us ns = Int64.to_float ns /. 1e3
let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

let workloads =
  [ ("oltp", Oltp.make); ("adhoc", Adhoc.make); ("analytic", Analytic.make) ]

(** Capacity of the buffer pool [Sb_server.create] gets from
    [Catalog.create]'s default, for the page-count report. *)
let pool_pages = 256

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let end_to_end_units =
  [
    ("throughput_stmts_per_s", "stmts/s");
    ("p50_ms", "ms");
    ("p90_ms", "ms");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

let per_layer_units =
  [
    ("server.shed_ratio", "ratio");
    ("plan_cache.hit_rate", "ratio");
    ("plan_cache.lookup_us", "us");
    ("parse.us_per_stmt", "us");
    ("build.us_per_stmt", "us");
    ("rewrite.us_per_stmt", "us");
    ("rewrite.fires_per_stmt", "count");
    ("rewrite.fire_ratio", "ratio");
    ("optimize.us_per_stmt", "us");
    ("optimize.plans_per_stmt", "count");
    ("optimize.pruned_ratio", "ratio");
    ("optimize.join_pairs_per_stmt", "count");
    ("execute.us_per_stmt", "us");
    ("qes.scan_share", "ratio");
    ("qes.rows_scanned_per_row_out", "ratio");
    ("qes.batches_per_stmt", "count");
    ("qes.floor_ratio", "ratio");
    ("dml.us_per_write", "us");
    ("pool.hit_rate", "ratio");
    ("pool.reads_per_stmt", "count");
    ("pool.evictions_per_stmt", "count");
    ("wal.appends_per_write", "count");
    ("wal.flushes_per_write", "count");
    ("wal.checkpoints", "count");
    ("recovery.ms", "ms");
    ("gc.minor_words_per_stmt", "words");
    ("gc.major_per_kstmt", "count");
    ("trace.coverage", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

(* metrics in the declared order, each with its declared unit *)
let metrics units values =
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some value -> { name; unit_; value }
      | None -> invalid_arg ("metric not measured: " ^ name))
    units

(* ------------------------------------------------------------------ *)
(* Driving the server                                                  *)
(* ------------------------------------------------------------------ *)

type served = { srv : Server.t; sess : Server.session }

let clip s = if String.length s <= 120 then s else String.sub s 0 117 ^ "..."

let submit_exn s sql =
  match Server.submit s.srv s.sess sql with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "%s: %s" (clip sql) (Err.to_string e))

(** A fresh server with the workload's schema and data; returns it with
    the set-up time (server start, DDL, load, ANALYZE). *)
let start (w : Workload.t) =
  let t0 = now () in
  let srv = Server.create () in
  let s = { srv; sess = Server.session srv } in
  List.iter (fun sql -> ignore (submit_exn s sql)) w.setup;
  (s, to_s (since t0))

(* what the loop keeps per statement: small, so the benchmark's own heap
   stays out of the program's peak *)
type sample = {
  ns : int64;  (** wall time around [Sb_server.submit] *)
  write : bool;
  got : (Answer.t, string) result;
}

let bind db (st : Workload.stmt) =
  List.iter (fun (name, v) -> Corona.bind_host db name v) st.hosts

let run_one s (st : Workload.stmt) =
  bind (Server.session_db s.sess) st;
  let t0 = now () in
  let r = Server.submit s.srv s.sess st.text in
  let ns = since t0 in
  let got =
    match r with
    | Ok res -> Ok (Answer.of_result ~ordered:st.ordered res)
    | Error e -> Error (Err.to_string e)
  in
  { ns; write = st.write; got }

(** Closed loop: draws and runs statements until [stop count elapsed]. *)
let drive s (w : Workload.t) ~stop =
  let t0 = now () in
  let rec go n acc =
    if stop n (since t0) then Array.of_list (List.rev acc)
    else go (n + 1) (run_one s (w.next ()) :: acc)
  in
  go 0 []

let count n k _ = k >= n
let busy_ns samples = Array.fold_left (fun acc x -> Int64.add acc x.ns) 0L samples

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

type verdict = { attempted : int; failed : int; problems : string list }

let verdict checks =
  List.fold_left
    (fun v problem ->
      match problem with
      | None -> { v with attempted = v.attempted + 1 }
      | Some p ->
        { attempted = v.attempted + 1; failed = v.failed + 1; problems = p :: v.problems })
    { attempted = 0; failed = 0; problems = [] }
    checks

let merge vs =
  {
    attempted = List.fold_left (fun n v -> n + v.attempted) 0 vs;
    failed = List.fold_left (fun n v -> n + v.failed) 0 vs;
    problems = List.concat_map (fun v -> List.rev v.problems) vs;
  }

let compare_answer ~what got expected =
  match got with
  | Error msg -> Some (Printf.sprintf "%s failed: %s" what msg)
  | Ok a when Answer.equal a expected -> None
  | Ok a ->
    Some
      (Printf.sprintf "wrong answer to %s: got %s, expected %s" what (Answer.to_string a)
         (Answer.to_string expected))

(** Compares each answer in [got] with its reference.  [w] is a fresh
    copy of the workload: its stream is re-drawn in step with [got], so
    the statements need not be kept during the run.  A read-only
    workload's answers depend only on text and bindings, so its
    references are memoized. *)
let check_answers (w : Workload.t) (got : (Answer.t, string) result array) =
  let memo = Hashtbl.create 64 in
  let expected (st : Workload.stmt) =
    if not w.read_only then st.expected ()
    else
      let key = (st.text, st.hosts) in
      match Hashtbl.find_opt memo key with
      | Some a -> a
      | None ->
        let a = st.expected () in
        Hashtbl.add memo key a;
        a
  in
  verdict
    (Array.to_list
       (Array.map
          (fun r ->
            let st = w.next () in
            compare_answer ~what:(clip st.text) r (expected st))
          got))

(** Runs the workload's whole-database queries against its model. *)
let check_state ~what s (w : Workload.t) =
  verdict
    (List.map
       (fun (sql, expected) ->
         let got =
           match Server.submit s.srv s.sess sql with
           | Ok r -> Ok (Answer.of_result ~ordered:false r)
           | Error e -> Error (Err.to_string e)
         in
         compare_answer ~what:(Printf.sprintf "%s state: %s" what sql) got expected)
       (w.state ()))

(** Simulated crash, then recovery from the stable log; every
    acknowledged write must be back.  Returns the recovery time. *)
let crash_and_recover s (w : Workload.t) =
  Recovery.crash ~catalog:(Server.catalog s.srv);
  let t0 = now () in
  ignore (Server.recover s.srv : Recovery.stats);
  let ms = to_ms (since t0) in
  (ms, check_state ~what:"recovered" s w)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let git_revision () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  let packed ref_ =
    Option.bind (read ".git/packed-refs") (fun text ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ rev; r ] when r = ref_ -> Some rev
            | _ -> None)
          (String.split_on_char '\n' text))
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" ref_) with
    | Some rev -> rev
    | None -> Option.value ~default:"unknown" (packed ref_))
  | Some rev -> rev
  | None -> "unknown"

let print_header ~workload ~seed =
  Printf.printf "sb_bench workload=%s seed=%d nproc=%d ocaml=%s revision=%s\n" workload
    seed
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_revision ())

let print_pages s (w : Workload.t) =
  List.iter
    (fun table ->
      match Catalog.find_table (Server.catalog s.srv) table with
      | Some t ->
        Printf.printf "table %-10s %6d rows %5d pages (buffer pool %d pages)\n" table
          (Table_store.tuple_count t) (Table_store.page_count t) pool_pages
      | None -> ())
    w.tables

let json_number f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let json_line ~correct ~attempted ~failed ms =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
              m.unit_)
          ms))

(* ------------------------------------------------------------------ *)
(* The untraced run: end-to-end metrics                                *)
(* ------------------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile a 50.

(** Slices of the timed window are about this long. *)
let slice_ns = 100_000_000L

(** The timed window: [seconds] of statements in slices of {!slice_ns},
    each tagged with the core's speed ({!Speed.tagged}). *)
let timed_window s w ~seconds =
  let stop = Int64.add (now ()) (Int64.of_int (seconds * 1_000_000_000)) in
  let rec go acc =
    if Int64.compare (now ()) stop >= 0 then List.rev acc
    else
      go (Speed.tagged (fun () -> drive s w ~stop:(fun _ elapsed -> elapsed >= slice_ns)) :: acc)
  in
  go []

let untraced ~(make : unit -> Workload.t) ~seconds =
  let w = make () in
  let first_setup, (s, first_setup_s) = Speed.tagged (fun () -> start w) in
  print_pages s w;
  let warm = drive s w ~stop:(count w.warmup) in
  let slices = timed_window s w ~seconds in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let window = Array.concat (List.map snd slices) in
  let fast_slices = Speed.at_speed slices in
  let timed = Array.concat fast_slices in
  let answers =
    check_answers (make ()) (Array.map (fun x -> x.got) (Array.append warm window))
  in
  let state = check_state ~what:"final" s w in
  let recovery_ms, recovered = crash_and_recover s w in
  Server.shutdown s.srv;
  Printf.printf
    "window: %d statements in %d s; timings from %d statements in %d of %d slices at \
     the core's fast speed (probe %.1f us); recovery %.1f ms\n"
    (Array.length window) seconds (Array.length timed) (List.length fast_slices)
    (List.length slices)
    (to_us (Speed.fast slices))
    recovery_ms;
  (* more set-ups, each on a fresh server; like the timings, set-up time
     comes from those run at the core's fast speed *)
  let setups =
    (first_setup, first_setup_s)
    :: List.init (w.setup_runs - 1) (fun _ ->
           let probe, (s, t) = Speed.tagged (fun () -> start w) in
           Server.shutdown s.srv;
           (probe, t))
  in
  let ms = Array.map (fun x -> to_ms x.ns) timed in
  Array.sort Float.compare ms;
  ( merge [ answers; state; recovered ],
    metrics end_to_end_units
      [
        ( "throughput_stmts_per_s",
          ratio (float_of_int (Array.length timed)) (to_s (busy_ns timed)) );
        ("p50_ms", percentile ms 50.);
        ("p90_ms", percentile ms 90.);
        ("setup_s", median (Speed.at_speed setups));
        ("peak_heap_mb", float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.);
      ] )

(* ------------------------------------------------------------------ *)
(* The traced run: per-layer metrics                                   *)
(* ------------------------------------------------------------------ *)

(* what the replay counts at the layer boundaries *)
type layer_counts = {
  mutable queries : int;
  mutable writes : int;
  mutable compiles : int;
  mutable fired : int;  (** rewrite rules fired ... *)
  mutable examined : int;  (** ... of those examined *)
  mutable generated : int;  (** STAR plans generated ... *)
  mutable pruned : int;  (** ... and pruned *)
  mutable pairs : int;  (** join pairs enumerated *)
  mutable scanned : int;
  mutable out : int;
  mutable batches : int;
  mutable scan_ns : int64;  (** inclusive time of scan operators ... *)
  mutable root_ns : int64;  (** ... and of whole plans *)
}

(* inclusive time of the scan operators: a scan's time already holds
   everything below it *)
let rec scan_ns lookup (p : Plan.plan) =
  match p.Plan.op with
  | Plan.Scan _ | Plan.Idx_access _ | Plan.Idx_and _ -> (
    match lookup p with Some (st : Exec.op_stats) -> st.Exec.os_ns | None -> 0L)
  | _ -> List.fold_left (fun acc q -> Int64.add acc (scan_ns lookup q)) 0L p.Plan.inputs

(** One statement the way the server runs it, each layer call a span:
    a SELECT looks up the plan cache and, on a miss, parses, builds,
    rewrites, optimizes and caches; then it executes.  DML parses and
    runs the statement. *)
let traced_stmt spans c (db : Corona.t) ~i (st : Workload.stmt) : Corona.result =
  let span name f = Spans.with_span spans ~stmt:i name f in
  if st.write then begin
    c.writes <- c.writes + 1;
    span "stmt" (fun () ->
        let stmt = span "parse" (fun () -> Corona.Parser.statement st.text) in
        span "dml" (fun () -> Corona.run_statement db stmt))
  end
  else begin
    c.queries <- c.queries + 1;
    let opt = db.Corona.optimizer in
    let sctx = opt.Generator.sctx in
    let gen0 = sctx.Star.plans_generated
    and pruned0 = sctx.Star.plans_pruned
    and pairs0 = opt.Generator.enum_pairs in
    let counters = Exec.fresh_counters () in
    let compile ~epoch key =
      sctx.Star.governor <- Some (Limits.start db.Corona.limits);
      let wq = span "parse" (fun () -> Corona.parse db st.text) in
      let g = span "build" (fun () -> Corona.build_qgm db wq) in
      let rw = span "rewrite" (fun () -> Corona.rewrite db g) in
      let plan = span "optimize" (fun () -> Corona.refine_plan db (Corona.optimize db g)) in
      let p =
        {
          Corona.prep_text = st.text;
          prep_columns =
            List.map
              (fun hc -> hc.Corona.Qgm.hc_name)
              (Corona.Qgm.top_box g).Corona.Qgm.b_head;
          prep_plan = plan;
        }
      in
      span "plan_cache.add" (fun () -> Plan_cache.add db.Corona.plan_cache ~epoch key p);
      (p, Some rw)
    in
    let p, rw, rows, lookup =
      span "stmt" (fun () ->
          let epoch = Catalog.epoch db.Corona.catalog in
          let key, hit =
            span "plan_cache.find" (fun () ->
                let key = Corona.plan_cache_key db st.text in
                (key, Plan_cache.find db.Corona.plan_cache ~epoch key))
          in
          let p, rw = match hit with Some p -> (p, None) | None -> compile ~epoch key in
          let rows, lookup =
            span "execute" (fun () ->
                Exec.run_analyzed ~hosts:db.Corona.hosts ~counters
                  ~gov:(Limits.start db.Corona.limits) db.Corona.exec_db p.Corona.prep_plan)
          in
          (p, rw, rows, lookup))
    in
    Option.iter
      (fun (rw : Corona.Engine.stats) ->
        c.compiles <- c.compiles + 1;
        c.fired <- c.fired + rw.Corona.Engine.rules_fired;
        c.examined <- c.examined + rw.Corona.Engine.rules_examined)
      rw;
    c.generated <- c.generated + sctx.Star.plans_generated - gen0;
    c.pruned <- c.pruned + sctx.Star.plans_pruned - pruned0;
    c.pairs <- c.pairs + opt.Generator.enum_pairs - pairs0;
    c.scanned <- c.scanned + counters.Exec.c_scanned;
    c.out <- c.out + counters.Exec.c_output;
    c.batches <- c.batches + counters.Exec.c_batches;
    c.scan_ns <- Int64.add c.scan_ns (scan_ns lookup p.Corona.prep_plan);
    Option.iter
      (fun (root : Exec.op_stats) -> c.root_ns <- Int64.add c.root_ns root.Exec.os_ns)
      (lookup p.Corona.prep_plan);
    Corona.Rows { columns = p.Corona.prep_columns; rows }
  end

(* the counters the untraced window reads before and after *)
type server_counts = {
  admitted : int;
  shed : int;
  hits : int;
  misses : int;
  logical : int;
  physical : int;
  evictions : int;
  appends : int;
  flushes : int;
  checkpoints : int;
  minor_words : float;
  majors : int;
}

let server_counts s =
  let st = Server.stats s.srv in
  let pool = Buffer_pool.stats (Server.catalog s.srv).Catalog.pool in
  let wal = Server.wal_stats s.srv in
  let gc = Gc.quick_stat () in
  {
    admitted = st.Server.st_admitted;
    shed = st.Server.st_shed;
    hits = st.Server.st_cache.Plan_cache.hits;
    misses = st.Server.st_cache.Plan_cache.misses;
    logical = pool.Buffer_pool.logical_reads;
    physical = pool.Buffer_pool.physical_reads;
    evictions = pool.Buffer_pool.evictions;
    appends = wal.Wal.s_appends;
    flushes = wal.Wal.s_flushes;
    checkpoints = wal.Wal.s_checkpoints;
    minor_words = gc.Gc.minor_words;
    majors = gc.Gc.major_collections;
  }

(** The hardware floor: the reference's own time for the reads of the
    replayed statements, unmemoized. *)
let floor_ns (w : Workload.t) =
  for _ = 1 to w.warmup do
    ignore (w.next () : Workload.stmt)
  done;
  let total = ref 0L in
  for _ = 1 to w.replay do
    let st = w.next () in
    if not st.write then begin
      let t0 = now () in
      ignore (st.expected () : Answer.t);
      total := Int64.add !total (since t0)
    end
  done;
  !total

let traced ~(make : unit -> Workload.t) ~trace_out =
  (* the counted window, tracing off *)
  let w = make () in
  let s, _ = start w in
  print_pages s w;
  let warm = drive s w ~stop:(count w.warmup) in
  let before = server_counts s in
  let window = drive s w ~stop:(count w.replay) in
  let after = server_counts s in
  let answers =
    check_answers (make ()) (Array.map (fun x -> x.got) (Array.append warm window))
  in
  let state = check_state ~what:"final" s w in
  let recovery_ms, recovered = crash_and_recover s w in
  Server.shutdown s.srv;
  (* the traced replay of the same statements on a fresh server *)
  let w' = make () in
  let s', _ = start w' in
  let warm' = drive s' w' ~stop:(count w'.warmup) in
  let db = Server.session_db s'.sess in
  let spans = Spans.create () in
  let c =
    {
      queries = 0;
      writes = 0;
      compiles = 0;
      fired = 0;
      examined = 0;
      generated = 0;
      pruned = 0;
      pairs = 0;
      scanned = 0;
      out = 0;
      batches = 0;
      scan_ns = 0L;
      root_ns = 0L;
    }
  in
  let replayed =
    Array.init w'.replay (fun i ->
        let st = w'.next () in
        bind db st;
        try Ok (Answer.of_result ~ordered:st.ordered (traced_stmt spans c db ~i st))
        with e -> Error (Printexc.to_string e))
  in
  Server.shutdown s'.srv;
  let replay_check =
    check_answers (make ()) (Array.append (Array.map (fun x -> x.got) warm') replayed)
  in
  let floor = floor_ns (make ()) in
  Spans.write_chrome spans trace_out;
  Printf.printf "trace: %d spans written to %s\n" spans.Spans.next_id trace_out;
  (* self time and calls per span name; coverage is the leaves' share *)
  let by_name = Hashtbl.create 16 in
  let stmt_ns = ref 0L and leaf_ns = ref 0L in
  List.iter
    (fun ((sp : Spans.span), self) ->
      let tot, n = Option.value ~default:(0L, 0) (Hashtbl.find_opt by_name sp.Spans.name) in
      Hashtbl.replace by_name sp.Spans.name (Int64.add tot self, n + 1);
      if sp.Spans.name = "stmt" then stmt_ns := Int64.add !stmt_ns (Spans.dur sp)
      else leaf_ns := Int64.add !leaf_ns self)
    (Spans.self_times spans);
  let get name = Option.value ~default:(0L, 0) (Hashtbl.find_opt by_name name) in
  let self name = fst (get name) and calls name = snd (get name) in
  let per_stmt name = to_us (self name) /. float_of_int w'.replay in
  let d f = f after - f before in
  let logical = d (fun x -> x.logical) and physical = d (fun x -> x.physical) in
  let writes = Array.fold_left (fun k x -> if x.write then k + 1 else k) 0 window in
  let n = Array.length window in
  Printf.printf
    "counts: plan_cache hits=%d misses=%d; pool logical_reads=%d physical_reads=%d \
     evictions=%d; wal appends=%d flushes=%d checkpoints=%d; replay rows_scanned=%d \
     rows_out=%d rewrite_fires=%d\n"
    (d (fun x -> x.hits))
    (d (fun x -> x.misses))
    logical physical
    (d (fun x -> x.evictions))
    (d (fun x -> x.appends))
    (d (fun x -> x.flushes))
    (d (fun x -> x.checkpoints))
    c.scanned c.out c.fired;
  Printf.printf "self time per layer, replay of %d statements:\n" w'.replay;
  List.iter
    (fun name ->
      Printf.printf "  %-16s %5.1f%%  %d call(s)\n" name
        (100. *. ratio (Int64.to_float (self name)) (Int64.to_float !stmt_ns))
        (calls name))
    [
      "plan_cache.find";
      "parse";
      "build";
      "rewrite";
      "optimize";
      "plan_cache.add";
      "execute";
      "dml";
      "stmt";
    ];
  ( merge [ answers; state; recovered; replay_check ],
    metrics per_layer_units
      [
        ("server.shed_ratio", ratio_i (d (fun x -> x.shed)) (d (fun x -> x.admitted)));
        ( "plan_cache.hit_rate",
          ratio_i (d (fun x -> x.hits)) (d (fun x -> x.hits + x.misses)) );
        ( "plan_cache.lookup_us",
          ratio (to_us (self "plan_cache.find")) (float_of_int (calls "plan_cache.find")) );
        ("parse.us_per_stmt", per_stmt "parse");
        ("build.us_per_stmt", per_stmt "build");
        ("rewrite.us_per_stmt", per_stmt "rewrite");
        ("rewrite.fires_per_stmt", ratio_i c.fired c.compiles);
        ("rewrite.fire_ratio", ratio_i c.fired c.examined);
        ("optimize.us_per_stmt", per_stmt "optimize");
        ("optimize.plans_per_stmt", ratio_i c.generated c.compiles);
        ("optimize.pruned_ratio", ratio_i c.pruned c.generated);
        ("optimize.join_pairs_per_stmt", ratio_i c.pairs c.compiles);
        ("execute.us_per_stmt", per_stmt "execute");
        ("qes.scan_share", ratio (Int64.to_float c.scan_ns) (Int64.to_float c.root_ns));
        ("qes.rows_scanned_per_row_out", ratio_i c.scanned c.out);
        ("qes.batches_per_stmt", ratio_i c.batches c.queries);
        ("qes.floor_ratio", ratio (Int64.to_float (self "execute")) (Int64.to_float floor));
        ("dml.us_per_write", ratio (to_us (self "dml")) (float_of_int c.writes));
        ("pool.hit_rate", 1. -. ratio_i physical logical);
        ("pool.reads_per_stmt", ratio_i physical n);
        ("pool.evictions_per_stmt", ratio_i (d (fun x -> x.evictions)) n);
        ("wal.appends_per_write", ratio_i (d (fun x -> x.appends)) writes);
        ("wal.flushes_per_write", ratio_i (d (fun x -> x.flushes)) writes);
        ("wal.checkpoints", float_of_int (d (fun x -> x.checkpoints)));
        ("recovery.ms", recovery_ms);
        ("gc.minor_words_per_stmt", (after.minor_words -. before.minor_words) /. float_of_int n);
        ("gc.major_per_kstmt", 1000. *. ratio_i (d (fun x -> x.majors)) n);
        ("trace.coverage", ratio (Int64.to_float !leaf_ns) (Int64.to_float !stmt_ns));
        ( "trace.overhead_ratio",
          ratio (Int64.to_float !stmt_ns) (Int64.to_float (busy_ns window)) );
      ] )

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Settings that change what the program does; a run under any of them
    would not measure the program as shipped. *)
let forbidden_env = [ "STARBURST_PARANOID"; "STARBURST_LOCKCHECK"; "STARBURST_LIMITS" ]

(** Prints every metric and the verdict, then the JSON result line;
    true when every check passed. *)
let report ~workload ~seed (v : verdict) (ms : metric list) =
  List.iter (fun m -> Printf.printf "metric %-30s %14.4f %s\n" m.name m.value m.unit_) ms;
  List.iteri (fun i p -> if i < 10 then Printf.printf "problem: %s\n" p) v.problems;
  let correct = v.failed = 0 in
  Printf.printf "%s %s seed %d: %d checked, %d failed\n"
    (if correct then "PASS" else "FAIL")
    workload seed v.attempted v.failed;
  print_endline (json_line ~correct ~attempted:v.attempted ~failed:v.failed ms);
  correct

(** The command: runs [workload] from [seed] and prints its report;
    returns the exit code.  [trace_out] names the span file of a traced
    run. *)
let main ~workload ~seed ~seconds ~trace ~trace_out =
  match List.filter (fun v -> Sys.getenv_opt v <> None) forbidden_env with
  | _ :: _ as set ->
    Printf.eprintf "sb_bench: refusing to run with %s set\n" (String.concat ", " set);
    2
  | [] -> (
    match List.assoc_opt workload workloads with
    | None ->
      Printf.eprintf "sb_bench: unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map fst workloads));
      2
    | Some make ->
      print_header ~workload ~seed;
      let make () = make ~seed in
      let v, ms =
        if trace then traced ~make ~trace_out:(trace_out ()) else untraced ~make ~seconds
      in
      if report ~workload ~seed v ms then 0 else 1)
