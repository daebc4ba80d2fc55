type outcome = Transient | Permanent | Crash

exception Crashed of string

type site = {
  mutable s_calls : int;
  mutable s_fail_on : (int * outcome) list;
  mutable s_prob : float;
  mutable s_outcome : outcome;
}

type t = {
  f_on : bool;
  f_seed : int;
  f_lock : Sb_conc.Lock.t;
      (** one fault plan may be consulted from several domains at once
          (the plan is installed on a shared catalog); the lock keeps
          per-site ordinals and the PRNG coherent.  Level
          {!Sb_conc.Level.faults}: consulted from inside the WAL and
          buffer-pool locks, holds nothing further itself *)
  f_rng : Random.State.t;
  f_sites : (string, site) Hashtbl.t;
  mutable f_prob : float;
  mutable f_outcome : outcome;
  mutable f_metrics : Sb_obs.Metrics.t option;
  mutable f_vclock_ns : int64;
  mutable f_injected : int;
  mutable f_retried : int;
  f_max_retries : int;
  f_backoff_base_ns : int64;
  f_backoff_cap_ns : int64;
}

let make ~on ~seed ~max_retries ~base ~cap =
  {
    f_on = on;
    f_seed = seed;
    f_lock = Sb_conc.Lock.create ~name:"resil.faults" ~level:Sb_conc.Level.faults;
    f_rng = Random.State.make [| seed |];
    f_sites = Hashtbl.create 16;
    f_prob = 0.;
    f_outcome = Transient;
    f_metrics = None;
    f_vclock_ns = 0L;
    f_injected = 0;
    f_retried = 0;
    f_max_retries = max_retries;
    f_backoff_base_ns = base;
    f_backoff_cap_ns = cap;
  }

let none = make ~on:false ~seed:0 ~max_retries:0 ~base:0L ~cap:0L

let create ?(seed = 42) ?(max_retries = 5) ?(backoff_base_ns = 1_000_000L)
    ?(backoff_cap_ns = 100_000_000L) () =
  make ~on:true ~seed ~max_retries ~base:backoff_base_ns ~cap:backoff_cap_ns

let enabled t = t.f_on
let seed t = t.f_seed

(* consults observed so far at [site] (the crash fuzzer's scout pass
   reads these to enumerate every reachable crash ordinal) *)
let calls t site =
  Sb_conc.Lock.with_lock t.f_lock @@ fun () ->
  match Hashtbl.find_opt t.f_sites site with
  | Some s -> s.s_calls
  | None -> 0
let injected t = t.f_injected
let retried t = t.f_retried
let vclock_ns t = t.f_vclock_ns

let site_of t name =
  match Hashtbl.find_opt t.f_sites name with
  | Some s -> s
  | None ->
      let s =
        { s_calls = 0; s_fail_on = []; s_prob = 0.; s_outcome = Transient }
      in
      Hashtbl.add t.f_sites name s;
      s

let fail_nth t ?(outcome = Transient) ~site ordinals =
  let s = site_of t site in
  s.s_fail_on <- s.s_fail_on @ List.map (fun n -> (n, outcome)) ordinals

let fail_prob t ?(outcome = Transient) ?site p =
  match site with
  | None ->
      t.f_prob <- p;
      t.f_outcome <- outcome
  | Some name ->
      let s = site_of t name in
      s.s_prob <- p;
      s.s_outcome <- outcome

let set_metrics t m = t.f_metrics <- Some m

let bump t name site =
  match t.f_metrics with
  | None -> ()
  | Some m -> Sb_obs.Metrics.add_counters m [ (name, Some ("site", site), 1) ]

(* Each consult advances the per-site ordinal, so a retried call is a
   fresh consult: a probability plan can fail the retry again, and an
   ordinal plan trips once. *)
let should_fail t name =
  Sb_conc.Lock.with_lock t.f_lock @@ fun () ->
  let s = site_of t name in
  s.s_calls <- s.s_calls + 1;
  match List.assoc_opt s.s_calls s.s_fail_on with
  | Some o -> Some o
  | None ->
      let p, o =
        if s.s_prob > 0. then (s.s_prob, s.s_outcome) else (t.f_prob, t.f_outcome)
      in
      if p > 0. && Random.State.float t.f_rng 1.0 < p then Some o else None

let backoff_ns t attempt =
  let d = Int64.shift_left t.f_backoff_base_ns (min attempt 20) in
  if Int64.compare d t.f_backoff_cap_ns > 0 then t.f_backoff_cap_ns else d

let guard t ~site f =
  if not t.f_on then f ()
  else
    let counted g = Sb_conc.Lock.with_lock t.f_lock g in
    let rec attempt n =
      match should_fail t site with
      | None -> f ()
      | Some o -> (
          counted (fun () -> t.f_injected <- t.f_injected + 1);
          bump t "sb_faults_injected_total" site;
          match o with
          | Crash ->
              (* a simulated process death: the caller must atomically
                 discard all volatile state before surfacing an error *)
              bump t "sb_faults_crashes_total" site;
              raise (Crashed site)
          | Permanent ->
              Err.fail Storage "injected permanent fault at %s" site
          | Transient ->
              if n >= t.f_max_retries then (
                bump t "sb_fault_retries_exhausted_total" site;
                Err.fail ~retryable:true Storage
                  "transient fault at %s persisted after %d retries" site
                  t.f_max_retries)
              else (
                counted (fun () ->
                    t.f_retried <- t.f_retried + 1;
                    t.f_vclock_ns <- Int64.add t.f_vclock_ns (backoff_ns t n));
                bump t "sb_fault_retries_total" site;
                attempt (n + 1)))
    in
    attempt 0
