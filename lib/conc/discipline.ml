(** Lock-discipline checking: leveled-lock ordering, per-domain held
    stacks, Eraser-style lockset race detection, and deadlock-cycle
    analysis over the observed lock-acquisition graph.

    The checker is a zero-cost no-op by default, like [Sb_obs.Trace]:
    every instrumented operation ({!Lock.lock}, {!Rwlock.with_read},
    {!access}) pays one branch on the {!armed} flag and nothing else.
    Armed (tests, [fuzz_main --races], [STARBURST_LOCKCHECK=1]) it
    maintains, per domain, the stack of locks currently held and
    enforces:

    - {b level ordering} — acquiring a lock whose {!Level} is not
      strictly greater than every currently-held lock's level is a
      diagnosed inversion naming both locks;
    - {b re-entrancy} — acquiring a lock this domain already holds
      (which would self-deadlock on OCaml's non-reentrant [Mutex]) is
      diagnosed {e before} the blocking call, so strict mode surfaces
      an exception instead of a hang;
    - {b unlock-without-lock} — releasing a lock the domain does not
      hold.

    Independently it refines, per instrumented shared field, a
    {e candidate lockset} — the intersection of the locks held at every
    access once a second domain has touched the field (the Eraser
    algorithm, Savage et al. 1997).  A field whose candidate set
    empties while writes are involved is reported with both access
    sites and the domains involved.

    Finally, every armed acquisition records an edge
    [held-lock → acquired-lock] in a global acquisition graph;
    {!cycles} runs cycle detection over it, reporting potential
    deadlocks that never fired.

    Caveats: held stacks are {e per domain} ([Domain.DLS]), so the
    checker understands domains, not sys-threads — the TCP front end's
    thread-per-connection loop must run with the checker disarmed.
    Arm and disarm only from quiescent points (no instrumented lock
    held anywhere), or the stacks start out wrong. *)

type kind = Order | Reentry | Unlock | Race

let kind_name = function
  | Order -> "lock-order inversion"
  | Reentry -> "re-entrant acquisition"
  | Unlock -> "unlock without lock"
  | Race -> "lockset race"

type diag = {
  d_kind : kind;
  d_subject : string;  (** the lock or field the diagnosis is about *)
  d_msg : string;
}

exception Violation of diag

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

(* one entry of a domain's held-lock stack *)
type held = { h_id : int; h_name : string; h_level : int }

let dls : held list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let armed_flag = Atomic.make false
let strict_flag = Atomic.make false
let armed () = Atomic.get armed_flag

(* Global detector state, guarded by [mu] — the one raw mutex of the
   system that cannot check itself.  It is a strict leaf: no code path
   acquires anything while holding it, so it can be taken while holding
   any instrumented lock without risking deadlock. *)
let mu = Mutex.create ()

let with_mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let diag_seen : (string, unit) Hashtbl.t = Hashtbl.create 16
let diag_list : diag list ref = ref [] (* newest first, deduplicated *)

(* lock name -> declared level, as observed at first armed acquisition *)
let registry : (string, int) Hashtbl.t = Hashtbl.create 16

(* acquisition graph: (held lock name, acquired lock name) *)
let edge_tbl : (string * string, unit) Hashtbl.t = Hashtbl.create 64

(* Eraser per-field state.  [fs_cand = None] means "all locks" — the
   candidate set is only materialized once the field leaves its
   initial exclusive (single-domain) state, so single-threaded
   initialization without locks never poisons the refinement. *)
type fstate = {
  mutable fs_excl : int option;  (** owning domain while exclusive *)
  mutable fs_cand : (int * string) list option;  (** candidate lockset *)
  mutable fs_domains : int list;  (** sorted distinct accessor domains *)
  mutable fs_written : bool;
  mutable fs_last_site : string;
  mutable fs_last_domain : int;
  mutable fs_reported : bool;
}

let fields : (string, fstate) Hashtbl.t = Hashtbl.create 32

(* monotone event counters, exported as sb_lock_* / sb_race_* metrics *)
let n_acquisitions = ref 0
let n_order = ref 0
let n_reentry = ref 0
let n_unlock = ref 0
let n_accesses = ref 0
let n_races = ref 0

(* ------------------------------------------------------------------ *)
(* Arming                                                              *)
(* ------------------------------------------------------------------ *)

let arm ?(strict = false) () =
  Atomic.set strict_flag strict;
  Atomic.set armed_flag true

let disarm () = Atomic.set armed_flag false

(** Arms the checker when [STARBURST_LOCKCHECK] is set ([1]/[on]/[true];
    [strict] additionally raises {!Violation} at the violation site). *)
let arm_from_env () =
  match Sys.getenv_opt "STARBURST_LOCKCHECK" with
  | Some ("1" | "on" | "true" | "yes") -> arm ()
  | Some "strict" -> arm ~strict:true ()
  | _ -> ()

(** Clears every report, the graph, the field table and the counters —
    plus the calling domain's own held stack.  Call from a quiescent
    point only. *)
let reset () =
  Domain.DLS.get dls := [];
  with_mu (fun () ->
      Hashtbl.reset diag_seen;
      diag_list := [];
      Hashtbl.reset registry;
      Hashtbl.reset edge_tbl;
      Hashtbl.reset fields;
      n_acquisitions := 0;
      n_order := 0;
      n_reentry := 0;
      n_unlock := 0;
      n_accesses := 0;
      n_races := 0)

let diags () = List.rev !diag_list

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let counter_of = function
  | Order -> n_order
  | Reentry -> n_reentry
  | Unlock -> n_unlock
  | Race -> n_races

let report kind subject msg =
  let d = { d_kind = kind; d_subject = subject; d_msg = msg } in
  with_mu (fun () ->
      incr (counter_of kind);
      if not (Hashtbl.mem diag_seen msg) then begin
        Hashtbl.replace diag_seen msg ();
        diag_list := d :: !diag_list
      end);
  if Atomic.get strict_flag then raise (Violation d)

(* ------------------------------------------------------------------ *)
(* Lock instrumentation (called by Lock / Rwlock when armed)           *)
(* ------------------------------------------------------------------ *)

(** Called {e before} the blocking acquisition, so strict mode can
    refuse a self-deadlocking re-entrant lock instead of hanging. *)
let acquiring ~id ~name ~level =
  let st = Domain.DLS.get dls in
  let held = !st in
  with_mu (fun () ->
      incr n_acquisitions;
      if not (Hashtbl.mem registry name) then Hashtbl.replace registry name level;
      List.iter
        (fun h ->
          if h.h_name <> name then Hashtbl.replace edge_tbl (h.h_name, name) ())
        held);
  (if List.exists (fun h -> h.h_id = id) held then
     report Reentry name
       (Fmt.str
          "re-entrant acquisition of %s (level %d): this domain already \
           holds it"
          name level)
   else
     match held with
     | [] -> ()
     | h0 :: _ ->
       let worst =
         List.fold_left
           (fun a h -> if h.h_level >= a.h_level then h else a)
           h0 held
       in
       if level <= worst.h_level then
         report Order name
           (Fmt.str
              "lock-order inversion: acquiring %s (level %d) while holding \
               %s (level %d)"
              name level worst.h_name worst.h_level));
  st := { h_id = id; h_name = name; h_level = level } :: !st

let released ~id ~name =
  let st = Domain.DLS.get dls in
  if List.exists (fun h -> h.h_id = id) !st then begin
    let rec drop = function
      | [] -> []
      | h :: rest -> if h.h_id = id then rest else h :: drop rest
    in
    st := drop !st
  end
  else
    report Unlock name
      (Fmt.str "unlock of %s by a domain that does not hold it" name)

(** The calling domain's held stack, innermost first (diagnostics,
    tests). *)
let held_locks () = List.map (fun h -> h.h_name) !(Domain.DLS.get dls)

(* One id space for every {!Lock} and {!Rwlock}: re-entrancy is
   detected by id, so a lock and an rwlock must never share one. *)
let next_lock_id = Atomic.make 0
let fresh_lock_id () = Atomic.fetch_and_add next_lock_id 1

(* ------------------------------------------------------------------ *)
(* Eraser lockset refinement                                           *)
(* ------------------------------------------------------------------ *)

let intersect cand now =
  List.filter (fun (id, _) -> List.exists (fun (id', _) -> id' = id) now) cand

(** Records one access to the instrumented shared [field] from source
    location [site].  No-op unless {!armed}. *)
let access ~field ~site ~write =
  if armed () then begin
    let now =
      List.map (fun h -> (h.h_id, h.h_name)) !(Domain.DLS.get dls)
    in
    let dom = (Domain.self () :> int) in
    let race =
      with_mu (fun () ->
          incr n_accesses;
          match Hashtbl.find_opt fields field with
          | None ->
            Hashtbl.replace fields field
              {
                fs_excl = Some dom;
                fs_cand = None;
                fs_domains = [ dom ];
                fs_written = write;
                fs_last_site = site;
                fs_last_domain = dom;
                fs_reported = false;
              };
            None
          | Some fs ->
            let prev_site = fs.fs_last_site
            and prev_dom = fs.fs_last_domain in
            fs.fs_written <- fs.fs_written || write;
            fs.fs_last_site <- site;
            fs.fs_last_domain <- dom;
            if not (List.mem dom fs.fs_domains) then
              fs.fs_domains <- List.sort compare (dom :: fs.fs_domains);
            (match fs.fs_excl with
            | Some d when d = dom -> None (* exclusive: no refinement *)
            | _ ->
              fs.fs_excl <- None;
              fs.fs_cand <-
                Some
                  (match fs.fs_cand with
                  | None -> now
                  | Some cand -> intersect cand now);
              if fs.fs_cand = Some [] && fs.fs_written && not fs.fs_reported
              then begin
                fs.fs_reported <- true;
                Some (prev_site, prev_dom, fs.fs_domains)
              end
              else None))
    in
    match race with
    | None -> ()
    | Some (prev_site, prev_dom, doms) ->
      report Race field
        (Fmt.str
           "lockset race on %s: candidate lockset empty after %s at %s \
            (domain %d) vs access at %s (domain %d); domains involved: %s"
           field
           (if write then "write" else "read")
           site dom prev_site prev_dom
           (String.concat ", " (List.map string_of_int doms)))
  end

(** [access_of ~owner ~field] is {!access} to the field [field#owner]:
    an object with instrumented fields names them after one of its own
    locks' id, so that two instances — two databases' buffer pools,
    each touched by its own domain under its own lock — are two fields,
    not one.  The name is built only when armed. *)
let access_of ~owner ~field ~site ~write =
  if armed () then access ~field:(Printf.sprintf "%s#%d" field owner) ~site ~write

(* ------------------------------------------------------------------ *)
(* Graph queries                                                       *)
(* ------------------------------------------------------------------ *)

(** Observed acquisition edges [(held, acquired)], sorted. *)
let edges () =
  with_mu (fun () -> Hashtbl.fold (fun e () acc -> e :: acc) edge_tbl [])
  |> List.sort compare

(** Cycles in the acquisition graph — potential deadlocks that never
    fired.  Each cycle is its node list rotated so the least name comes
    first; the result is sorted and duplicate rotations are removed. *)
let cycles () =
  let es = edges () in
  let nodes =
    List.concat_map (fun (a, b) -> [ a; b ]) es |> List.sort_uniq compare
  in
  let succ n = List.filter_map (fun (a, b) -> if a = n then Some b else None) es in
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  (* [path] is the current DFS stack, innermost first *)
  let rec dfs path node =
    if List.mem node path then begin
      let rec take acc = function
        | [] -> acc
        | x :: _ when x = node -> x :: acc
        | x :: rest -> take (x :: acc) rest
      in
      let cyc = take [] path in
      let least = List.fold_left min (List.hd cyc) cyc in
      let rec rotate c =
        if List.hd c = least then c else rotate (List.tl c @ [ List.hd c ])
      in
      let cyc = rotate cyc in
      let key = String.concat ">" cyc in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        out := cyc :: !out
      end
    end
    else List.iter (dfs (node :: path)) (succ node)
  in
  List.iter (dfs []) nodes;
  List.sort compare !out

(** The acquisition graph in Graphviz DOT form (sorted, suitable as a
    CI artifact). *)
let graph_dot () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph lock_acquisition {\n";
  Buffer.add_string buf "  rankdir=TB;\n";
  let levels =
    with_mu (fun () -> Hashtbl.fold (fun n l acc -> (n, l) :: acc) registry [])
    |> List.sort compare
  in
  List.iter
    (fun (name, level) ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [label=\"%s\\nlevel %d\"];\n" name name level))
    levels;
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf (Printf.sprintf "  \"%s\" -> \"%s\";\n" a b))
    (edges ());
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reports and counters                                                *)
(* ------------------------------------------------------------------ *)

(** Counter snapshot in metric form ([sb_lock_*] / [sb_race_*]). *)
let metric_counters () =
  with_mu (fun () ->
      [
        ("sb_lock_acquisitions_total", !n_acquisitions);
        ("sb_lock_order_violations_total", !n_order);
        ("sb_lock_reentrant_total", !n_reentry);
        ("sb_lock_unlock_unheld_total", !n_unlock);
        ("sb_lock_names_total", Hashtbl.length registry);
        ("sb_lock_edges_total", Hashtbl.length edge_tbl);
        ("sb_race_accesses_total", !n_accesses);
        ("sb_race_fields_total", Hashtbl.length fields);
        ("sb_race_reports_total", !n_races);
      ])

(** The deterministic discipline report: observed hierarchy, the sorted
    acquisition graph, cycle count, instrumented fields, and every
    (deduplicated, sorted) diagnosis.  Contains no event counts or
    timings, so two runs over the same workload render byte-identical
    reports — CI diffs it. *)
let report_text () =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "lock-discipline report\n";
  add "  armed: %s\n" (if armed () then "yes" else "no");
  let hierarchy =
    with_mu (fun () -> Hashtbl.fold (fun n l acc -> (l, n) :: acc) registry [])
    |> List.sort compare
  in
  add "  hierarchy (level  lock):\n";
  List.iter (fun (l, n) -> add "    %3d  %s\n" l n) hierarchy;
  add "  acquisition-order edges (held -> acquired):\n";
  List.iter (fun (a, b) -> add "    %s -> %s\n" a b) (edges ());
  let cys = cycles () in
  add "  potential deadlock cycles: %d\n" (List.length cys);
  List.iter (fun c -> add "    %s -> %s\n" (String.concat " -> " c) (List.hd c)) cys;
  let fnames =
    with_mu (fun () -> Hashtbl.fold (fun f _ acc -> f :: acc) fields [])
    |> List.sort compare
  in
  add "  instrumented fields: %d\n" (List.length fnames);
  List.iter (fun f -> add "    %s\n" f) fnames;
  let ds = diags () in
  let by_kind k = List.filter (fun d -> d.d_kind = k) ds in
  let dump_kind k =
    let sorted =
      List.sort compare (List.map (fun d -> d.d_msg) (by_kind k))
    in
    add "  %s reports: %d\n" (kind_name k) (List.length sorted);
    List.iter (fun m -> add "    %s\n" m) sorted
  in
  dump_kind Race;
  dump_kind Order;
  dump_kind Reentry;
  dump_kind Unlock;
  Buffer.contents buf
