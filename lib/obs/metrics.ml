(** The metrics registry: named counters and log-scale latency
    histograms with a Prometheus-style text dump.

    Counters and histograms are created on demand ({!add_counters} /
    {!observe_named} get-or-create by name) so independent subsystems —
    the rewrite engine, the plan optimizer, the query evaluation
    system — share one registry and one output path.  Metric names
    follow Prometheus conventions ([a-z_] with a unit suffix);
    an optional label renders as [name{label="value"}]. *)

type counter = { c_name : string; c_label : (string * string) option; mutable c_value : int }

(** Log-scale histogram: bucket [i] counts observations in
    [(base^i-1, base^i]] with a fixed bucket count; the last bucket is
    +Inf.  Base 2 over nanoseconds spans 1ns .. ~1.2s in 31 buckets. *)
type histogram = {
  h_name : string;
  h_label : (string * string) option;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
}

(* both tables are keyed by (name, label) *)
type t = {
  counters : (string * (string * string) option, counter) Hashtbl.t;
  histograms : (string * (string * string) option, histogram) Hashtbl.t;
}

let n_buckets = 32

(* One registry is shared by every pipeline layer and, under the
   multi-session server, by statements running on several domains at
   once.  Mutation volume is a handful of updates per statement, so a
   single module-level lock keeps every registry domain-safe without
   per-metric overhead.  Level {!Sb_conc.Level.metrics} is the top of
   the hierarchy: any subsystem may bump a counter while holding its
   own lock, and nothing nests inside this one. *)
let lock = Sb_conc.Lock.create ~name:"obs.metrics" ~level:Sb_conc.Level.metrics
let locked f = Sb_conc.Lock.with_lock lock f

let create () = { counters = Hashtbl.create 64; histograms = Hashtbl.create 16 }

(* get-or-create; the caller holds [lock] *)
let counter_unlocked t name label =
  match Hashtbl.find_opt t.counters (name, label) with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_label = label; c_value = 0 } in
    Hashtbl.replace t.counters (name, label) c;
    c

let counter ?label t name : counter =
  locked (fun () -> counter_unlocked t name label)

(** Adds every [(name, label, n)] with [n > 0] in one locked pass: a
    statement's worth of counters costs one lock round-trip. *)
let add_counters t entries =
  locked @@ fun () ->
  List.iter
    (fun (name, label, n) ->
      if n > 0 then
        let c = counter_unlocked t name label in
        c.c_value <- c.c_value + n)
    entries

(** Sets a counter to an absolute value — for mirroring an externally
    maintained monotone count (e.g. the lock-discipline counters). *)
let set c v = locked (fun () -> c.c_value <- v)

let counter_value c = c.c_value

(* get-or-create; the caller holds [lock] *)
let histogram_unlocked t name label =
  match Hashtbl.find_opt t.histograms (name, label) with
  | Some h -> h
  | None ->
    let h =
      {
        h_name = name;
        h_label = label;
        h_buckets = Array.make n_buckets 0;
        h_count = 0;
        h_sum = 0.0;
      }
    in
    Hashtbl.replace t.histograms (name, label) h;
    h

let histogram ?label t name : histogram =
  locked (fun () -> histogram_unlocked t name label)

(** Bucket index for [v]: log2-scaled, clamped to the bucket range.
    Bucket [i] has upper bound [2^i] (the last bucket is +Inf). *)
let bucket_index h (v : float) =
  if v <= 1.0 then 0
  else
    let i = int_of_float (ceil (Float.log2 v)) in
    min i (Array.length h.h_buckets - 1)

(** Looks up (or creates) a histogram and records [v] under one lock. *)
let observe_named ?label t name v =
  locked @@ fun () ->
  let h = histogram_unlocked t name label in
  let i = bucket_index h v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum

(** Counts in bucket order, paired with each bucket's inclusive upper
    bound (the last is [infinity]). *)
let histogram_buckets h =
  Array.to_list
    (Array.mapi
       (fun i n ->
         let ub =
           if i = Array.length h.h_buckets - 1 then infinity
           else Float.pow 2.0 (float_of_int i)
         in
         (ub, n))
       h.h_buckets)

let clear t =
  locked @@ fun () ->
  Hashtbl.iter (fun _ c -> c.c_value <- 0) t.counters;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_buckets 0 (Array.length h.h_buckets) 0;
      h.h_count <- 0;
      h.h_sum <- 0.0)
    t.histograms

(* ------------------------------------------------------------------ *)
(* Prometheus-style text dump                                          *)
(* ------------------------------------------------------------------ *)

let render_label = function
  | None -> ""
  | Some (k, v) -> Printf.sprintf "{%s=\"%s\"}" k v

let render_label_with extra = function
  | None -> Printf.sprintf "{%s}" extra
  | Some (k, v) -> Printf.sprintf "{%s=\"%s\",%s}" k v extra

let float_bound ub =
  if ub = infinity then "+Inf"
  else if Float.is_integer ub && Float.abs ub < 1e15 then
    Printf.sprintf "%.0f" ub
  else Printf.sprintf "%g" ub

(** Prometheus text exposition: counters as [# TYPE name counter]
    samples, histograms as cumulative [_bucket{le=...}] series plus
    [_sum] and [_count]. *)
let dump t =
  locked @@ fun () ->
  let buf = Buffer.create 1024 in
  let by_key tbl =
    Hashtbl.fold (fun k x acc -> (k, x) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let seen_type = Hashtbl.create 8 in
  let type_line name kind =
    if not (Hashtbl.mem seen_type name) then begin
      Hashtbl.replace seen_type name ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun c ->
      type_line c.c_name "counter";
      Buffer.add_string buf
        (Printf.sprintf "%s%s %d\n" c.c_name (render_label c.c_label) c.c_value))
    (by_key t.counters);
  List.iter
    (fun h ->
      type_line h.h_name "histogram";
      let cumulative = ref 0 in
      List.iter
        (fun (ub, n) ->
          cumulative := !cumulative + n;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" h.h_name
               (render_label_with
                  (Printf.sprintf "le=\"%s\"" (float_bound ub))
                  h.h_label)
               !cumulative))
        (histogram_buckets h);
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %g\n" h.h_name (render_label h.h_label) h.h_sum);
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" h.h_name (render_label h.h_label)
           h.h_count))
    (by_key t.histograms);
  Buffer.contents buf
