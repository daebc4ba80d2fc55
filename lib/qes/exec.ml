(** The Query Evaluation System (section 7).

    Plans are interpreted against the database through an algebraic,
    stream-based interface.  The hot operators — base scans, filters,
    projections, sorts, hash aggregation, set operations and hash/merge
    joins — execute {e batch-at-a-time}: they exchange columnar row
    batches of up to {!Batch.capacity} rows with per-batch selection
    vectors (see {!Batch}), charged to the governor and accounted at
    batch granularity.  Operators without a vectorized body — and the
    plan root — keep the original lazy [Tuple.t Seq.t] interface;
    {!Batch.of_seq} / {!Batch.to_seq} adapt at every boundary, chosen
    node by node via {!Sb_optimizer.Plan.batch_capable}, so the two
    engines compose freely within one plan and the tuple-at-a-time
    engine survives as a differential oracle ([SET vectorized = off]).

    Join {e methods} (nested-loop, sort-merge, hash) are control
    structures; join {e kinds} (regular, exists, op-ALL, scalar,
    DBC set-predicates, and extension kinds such as left-outer) are the
    functions performed during the join — a single operator handles many
    kinds, and new kinds register in {!register_join_kind}.  Extension
    kinds see materialized [Tuple.t]s under both engines, so existing
    registrations run unchanged.

    Subqueries — correlated or not — run through a single uniform
    {e evaluate-on-demand} mechanism: an inner plan is (re)evaluated
    only when its correlation parameters change, with a cache keyed on
    the parameter values.

    Runtime failures raise structured {!Sb_resil.Err} values with stage
    [Exec]. *)

open Sb_storage
module Ast = Sb_hydrogen.Ast
module Functions = Sb_hydrogen.Functions
module Err = Sb_resil.Err
open Sb_optimizer.Plan

let error fmt = Fmt.kstr (fun s -> raise (Err.Error (Err.make Err.Exec s))) fmt

(* ------------------------------------------------------------------ *)
(* Execution context                                                   *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable c_scanned : int;  (** tuples read from base tables *)
  mutable c_index_probes : int;
  mutable c_shipped : int;
  mutable c_sorted : int;
  mutable c_sub_evals : int;  (** subquery (re)materializations *)
  mutable c_sub_cache_hits : int;
  mutable c_or_branch_evals : int;
  mutable c_fixpoint_rounds : int;
  mutable c_batches : int;  (** batches emitted by vectorized operators *)
  mutable c_output : int;
}

let fresh_counters () =
  {
    c_scanned = 0;
    c_index_probes = 0;
    c_shipped = 0;
    c_sorted = 0;
    c_sub_evals = 0;
    c_sub_cache_hits = 0;
    c_or_branch_evals = 0;
    c_fixpoint_rounds = 0;
    c_batches = 0;
    c_output = 0;
  }

(** An extension join kind: given the outer tuple, the (filtered by
    equi-columns, if hash/merge) inner tuples, and the kind predicate
    over the concatenated row, produce output rows. *)
type kind_impl =
  outer:Tuple.t ->
  inners:Tuple.t list ->
  pred:(Tuple.t -> bool option) ->
  inner_width:int ->
  Tuple.t list

type db = {
  x_cat : Catalog.t;
  x_fns : Functions.t;
  x_kinds : (string, kind_impl) Hashtbl.t;  (** extension join kinds *)
  mutable x_demand_cache : bool;
      (** evaluate-on-demand correlation caching (on by default; the
          bench harness turns it off to measure its effect) *)
  mutable x_vectorized : bool;
      (** batch-at-a-time execution of capable operators (on by
          default; [SET vectorized = off] selects the tuple-at-a-time
          engine, the differential-testing oracle) *)
}

let make_db ~catalog ~functions =
  { x_cat = catalog; x_fns = functions; x_kinds = Hashtbl.create 4;
    x_demand_cache = true; x_vectorized = true }

let register_join_kind db name impl = Hashtbl.replace db.x_kinds name impl

(* physical-identity keyed caches for subquery / TEMP materializations *)
type cache_entry = {
  ce_key : Obj.t;
  ce_table : (Value.t list, Obj.t) Hashtbl.t;
}

(** Per-operator runtime accounting for EXPLAIN ANALYZE: rows produced
    (across all re-evaluations, e.g. of a join's inner), batches
    emitted (0 for tuple-at-a-time operators), and inclusive elapsed
    time.  Row counts are exact under both engines. *)
type op_stats = {
  mutable os_rows : int;
  mutable os_batches : int;
  mutable os_ns : int64;
}

(* op_stats per plan node, keyed by physical identity; allocated on
   demand so subplans embedded in expressions are covered too *)
type analysis = (Sb_optimizer.Plan.plan * op_stats) list ref

(* The build side of a vectorized hash/merge join: every inner row in
   build order, its key prehashed into a flat int array, and bucket
   chains threaded through a power-of-two partition directory.  Two
   passes, a fixed number of allocations, no per-key boxing. *)
type hash_side = {
  hs_rows : Tuple.t array;  (* inner rows, build order *)
  hs_hashes : int array;  (* prehashed keys; -1 = NULL key, never matches *)
  hs_next : int array;  (* bucket chain links (reverse build order) *)
  hs_heads : int array;  (* partition directory *)
  hs_mask : int;
}

(* a combined key hash, scrambled so that the low bits the bucket masks
   keep depend on every bit ([Value.hash] of an int is the int) *)
let mix h =
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* combined hash of one row's key columns; -1 when any column is NULL
   (SQL: NULL never joins).  Equal ints and floats hash alike, matching
   [Value.compare] equality on the probe. *)
let join_key_hash (row : Tuple.t) (slots : int array) =
  let acc = ref 0x331 and ok = ref true in
  for k = 0 to Array.length slots - 1 do
    let v = row.(slots.(k)) in
    if Value.is_null v then ok := false
    else
      (* FNV-style mix: no tuple allocation per combine step *)
      acc := (!acc * 0x01000193) lxor Value.hash v
  done;
  if !ok then mix !acc else -1

(* [arr] at twice its length (at least 16), new slots [fill] *)
let grown arr fill =
  let bigger = Array.make (max 16 (2 * Array.length arr)) fill in
  Array.blit arr 0 bigger 0 (Array.length arr);
  bigger

(* The key directory of hash GROUP BY and DISTINCT: one entry per
   distinct key, numbered in arrival order, found or added in a single
   chained lookup.  The probe key is a caller's scratch array, copied
   only when it opens an entry.  Two keys are equal when every column
   is structurally equal ([Stdlib.compare] = 0), the equality of the
   polymorphic [Hashtbl] over key lists this replaces; [Value.hash]
   agrees with it. *)
type key_dir = {
  mutable kd_keys : Value.t array array;  (* entry -> its key *)
  mutable kd_hashes : int array;
  mutable kd_next : int array;  (* bucket chain links *)
  mutable kd_heads : int array;  (* power-of-two bucket directory *)
  mutable kd_count : int;
}

let key_dir () =
  { kd_keys = [||]; kd_hashes = [||]; kd_next = [||];
    kd_heads = Array.make 16 (-1); kd_count = 0 }

let same_value (a : Value.t) (b : Value.t) =
  match a, b with
  | Value.Int x, Value.Int y -> x = y
  | Value.String x, Value.String y -> String.equal x y
  | _ -> Stdlib.compare a b = 0

let same_key (a : Value.t array) (b : Value.t array) =
  let k = ref 0 in
  while !k < Array.length a && same_value a.(!k) b.(!k) do
    incr k
  done;
  !k = Array.length a

(* the entry of [key]; a new one (numbered [kd_count] before the call)
   if [key] is absent *)
let find_or_add d (key : Value.t array) =
  let acc = ref 0x331 in
  for k = 0 to Array.length key - 1 do
    acc := (!acc * 0x01000193) lxor Value.hash key.(k)
  done;
  let h = mix !acc in
  let idx = ref d.kd_heads.(h land (Array.length d.kd_heads - 1)) in
  while !idx >= 0 && not (d.kd_hashes.(!idx) = h && same_key d.kd_keys.(!idx) key) do
    idx := d.kd_next.(!idx)
  done;
  if !idx >= 0 then !idx
  else begin
    let e = d.kd_count in
    if e = Array.length d.kd_keys then begin
      d.kd_keys <- grown d.kd_keys [||];
      d.kd_hashes <- grown d.kd_hashes 0;
      d.kd_next <- grown d.kd_next (-1)
    end;
    if e >= Array.length d.kd_heads then begin
      (* load factor 1: double the directory and rethread the chains *)
      d.kd_heads <- Array.make (2 * Array.length d.kd_heads) (-1);
      let mask = Array.length d.kd_heads - 1 in
      for i = 0 to e - 1 do
        let b = d.kd_hashes.(i) land mask in
        d.kd_next.(i) <- d.kd_heads.(b);
        d.kd_heads.(b) <- i
      done
    end;
    let b = h land (Array.length d.kd_heads - 1) in
    d.kd_keys.(e) <- Array.copy key;
    d.kd_hashes.(e) <- h;
    d.kd_next.(e) <- d.kd_heads.(b);
    d.kd_heads.(b) <- e;
    d.kd_count <- e + 1;
    e
  end

type ectx = {
  db : db;
  hosts : (string * Value.t) list;
  counters : counters;
  gov : Sb_resil.Limits.gov;  (** per-query resource governor *)
  mutable caches : cache_entry list;
  mutable deltas : Tuple.t list list;  (** fixpoint delta stack *)
  instr : analysis option;  (** per-operator accounting when analyzing *)
}

let stats_for (tbl : analysis) p =
  match List.find_opt (fun (q, _) -> q == p) !tbl with
  | Some (_, st) -> st
  | None ->
    let st = { os_rows = 0; os_batches = 0; os_ns = 0L } in
    tbl := (p, st) :: !tbl;
    st

let cache_for ectx (key : Obj.t) : (Value.t list, Obj.t) Hashtbl.t =
  match List.find_opt (fun ce -> ce.ce_key == key) ectx.caches with
  | Some ce -> ce.ce_table
  | None ->
    let ce = { ce_key = key; ce_table = Hashtbl.create 8 } in
    ectx.caches <- ce :: ectx.caches;
    ce.ce_table

(* ------------------------------------------------------------------ *)
(* Three-valued logic helpers                                          *)
(* ------------------------------------------------------------------ *)

let registry ectx = ectx.db.x_cat.Catalog.datatypes

let bool3 = function
  | Value.Null -> None
  | Value.Bool b -> Some b
  | v -> error "boolean expected, got %s" (Value.to_string v)

let of_bool3 = function None -> Value.Null | Some b -> Value.Bool b

let and3 a b =
  match a, b with
  | Some false, _ | _, Some false -> Some false
  | Some true, x | x, Some true -> x
  | None, None -> None

let or3 a b =
  match a, b with
  | Some true, _ | _, Some true -> Some true
  | Some false, x | x, Some false -> x
  | None, None -> None

let not3 = Option.map not

(* SQL LIKE with % and _ *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go p i =
    if p >= np then i >= ns
    else
      match pattern.[p] with
      | '%' ->
        let rec try_from j = j <= ns && (go (p + 1) j || try_from (j + 1)) in
        try_from i
      | '_' -> i < ns && go (p + 1) (i + 1)
      | c -> i < ns && s.[i] = c && go (p + 1) (i + 1)
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let rec eval ectx ~(row : Value.t array) ~(params : Value.t array) (e : rexpr) :
    Value.t =
  match e with
  | RLit v -> v
  | RCol i ->
    if i < Array.length row then row.(i)
    else error "slot %d out of range (width %d)" i (Array.length row)
  | RParam i ->
    if i < Array.length params then params.(i)
    else error "parameter %d unbound" i
  | RHost name -> (
    match List.assoc_opt name ectx.hosts with
    | Some v -> v
    | None -> error "host variable :%s is not bound" name)
  | RBin (op, a, b) -> eval_bin ectx ~row ~params op a b
  | RUn (Ast.Neg, a) -> (
    match eval ectx ~row ~params a with
    | Value.Null -> Value.Null
    | Value.Int x -> Value.Int (-x)
    | Value.Float x -> Value.Float (-.x)
    | v -> error "cannot negate %s" (Value.to_string v))
  | RUn (Ast.Not, a) -> of_bool3 (not3 (bool3 (eval ectx ~row ~params a)))
  | RFun (name, args) -> (
    match Functions.find_scalar ectx.db.x_fns name with
    | Some f -> f.Functions.sf_eval (List.map (eval ectx ~row ~params) args)
    | None -> error "unknown function %s" name)
  | RCase (arms, els) -> (
    let rec go = function
      | [] -> ( match els with Some e -> eval ectx ~row ~params e | None -> Value.Null)
      | (c, v) :: rest ->
        if bool3 (eval ectx ~row ~params c) = Some true then
          eval ectx ~row ~params v
        else go rest
    in
    go arms)
  | RIs_null a -> Value.Bool (Value.is_null (eval ectx ~row ~params a))
  | RLike (a, pattern) -> (
    match eval ectx ~row ~params a with
    | Value.Null -> Value.Null
    | v -> Value.Bool (like_match ~pattern (Value.as_string v)))
  | RSub spec -> eval_sub ectx ~row ~params spec
  | RScalar_sub spec -> eval_scalar_sub ectx ~row ~params spec

and eval_bin ectx ~row ~params op a b =
  match op with
  | Ast.And ->
    of_bool3
      (and3
         (bool3 (eval ectx ~row ~params a))
         (bool3 (eval ectx ~row ~params b)))
  | Ast.Or ->
    of_bool3
      (or3 (bool3 (eval ectx ~row ~params a)) (bool3 (eval ectx ~row ~params b)))
  | _ -> (
    let va = eval ectx ~row ~params a in
    let vb = eval ectx ~row ~params b in
    if Value.is_null va || Value.is_null vb then Value.Null
    else
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> arith op va vb
      | Ast.Concat -> Value.String (Value.to_string va ^ Value.to_string vb)
      | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
        let c = Value.compare ~registry:(registry ectx) va vb in
        Value.Bool
          (match op with
          | Ast.Eq -> c = 0
          | Ast.Neq -> c <> 0
          | Ast.Lt -> c < 0
          | Ast.Le -> c <= 0
          | Ast.Gt -> c > 0
          | Ast.Ge -> c >= 0
          | _ -> assert false)
      | Ast.And | Ast.Or -> assert false)

and arith op va vb =
  match va, vb with
  | Value.Int x, Value.Int y -> (
    match op with
    | Ast.Add -> Value.Int (x + y)
    | Ast.Sub -> Value.Int (x - y)
    | Ast.Mul -> Value.Int (x * y)
    | Ast.Div -> if y = 0 then Value.Null else Value.Int (x / y)
    | Ast.Mod -> if y = 0 then Value.Null else Value.Int (x mod y)
    | _ -> assert false)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) -> (
    let x = Value.as_float va and y = Value.as_float vb in
    match op with
    | Ast.Add -> Value.Float (x +. y)
    | Ast.Sub -> Value.Float (x -. y)
    | Ast.Mul -> Value.Float (x *. y)
    | Ast.Div -> if y = 0.0 then Value.Null else Value.Float (x /. y)
    | Ast.Mod -> Value.Float (Float.rem x y)
    | _ -> assert false)
  | _ ->
    error "arithmetic over %s and %s" (Value.to_string va) (Value.to_string vb)

(** Evaluate-on-demand for an embedded quantified subquery: the inner
    rows are materialized once per distinct parameter binding. *)
and eval_sub ectx ~row ~params (spec : sub_spec) : Value.t =
  let bound =
    List.map (fun p -> eval ectx ~row ~params p) spec.sub_params
  in
  let rows = demand_rows ectx (Obj.repr spec) spec.sub_plan bound in
  let inner_params = Array.of_list bound in
  let truth inner =
    bool3 (eval ectx ~row:inner ~params:inner_params spec.sub_pred)
  in
  let result =
    match spec.sub_kind with
    | Sk_exists ->
      let rec go = function
        | [] -> Some false
        | r :: rest -> (
          match truth r with
          | Some true -> Some true
          | Some false -> go rest
          | None -> ( match go rest with Some true -> Some true | _ -> None))
      in
      go rows
    | Sk_all ->
      let rec go = function
        | [] -> Some true
        | r :: rest -> (
          match truth r with
          | Some false -> Some false
          | Some true -> go rest
          | None -> ( match go rest with Some false -> Some false | _ -> None))
      in
      go rows
    | Sk_set_pred name -> (
      match Functions.find_set_predicate ectx.db.x_fns name with
      | Some f -> f.Functions.spf_combine (Seq.map truth (List.to_seq rows))
      | None -> error "unknown set predicate %s" name)
  in
  of_bool3 result

and eval_scalar_sub ectx ~row ~params (spec : scalar_sub_spec) : Value.t =
  let bound = List.map (fun p -> eval ectx ~row ~params p) spec.ssub_params in
  let rows = demand_rows ectx (Obj.repr spec) spec.ssub_plan bound in
  match rows with
  | [] -> Value.Null
  | [ r ] -> r.(0)
  | _ :: _ :: _ -> error "scalar subquery returned more than one row"

(** The uniform demand-driven materialization with correlation caching. *)
and demand_rows ectx (key : Obj.t) (plan : plan) (bound : Value.t list) :
    Tuple.t list =
  if not ectx.db.x_demand_cache then begin
    ectx.counters.c_sub_evals <- ectx.counters.c_sub_evals + 1;
    collect ectx ~params:(Array.of_list bound) plan
  end
  else
  let table = cache_for ectx key in
  match Hashtbl.find_opt table bound with
  | Some rows ->
    ectx.counters.c_sub_cache_hits <- ectx.counters.c_sub_cache_hits + 1;
    (Obj.obj rows : Tuple.t list)
  | None ->
    ectx.counters.c_sub_evals <- ectx.counters.c_sub_evals + 1;
    let rows = collect ectx ~params:(Array.of_list bound) plan in
    Hashtbl.replace table bound (Obj.repr rows);
    rows

(* ------------------------------------------------------------------ *)
(* Operators                                                           *)
(* ------------------------------------------------------------------ *)

(** Runs [plan] to a list (materializes the stream). *)
and collect ectx ~params (plan : plan) : Tuple.t list =
  List.of_seq (stream ectx ~params plan)

(** Interprets [plan] as a lazy tuple sequence — the engine boundary.
    Batch-capable nodes route through the vectorized engine (their
    whole capable subtree runs batched; this adapter unchunks at the
    top); the rest take the tuple-at-a-time path, whose {e inputs}
    recurse through here and so vectorize again where they can.  When
    analyzing, every operator is wrapped to count rows (and batches)
    and accumulate inclusive elapsed time. *)
and stream ectx ~params (p : plan) : Tuple.t Seq.t =
  if ectx.db.x_vectorized && Sb_optimizer.Plan.batch_capable p then
    Batch.to_seq (batches ectx ~params p)
  else begin
    (* cooperative governor checks: one operator-invocation charge per
       stream instantiation, one intermediate-row charge per tuple any
       operator produces *)
    Sb_resil.Limits.charge_op ectx.gov;
    let s = instr_stream ectx ~params p in
    Seq.map
      (fun row ->
        Sb_resil.Limits.charge_row ectx.gov;
        row)
      s
  end

(** The batch-granularity face of {!stream}: one operator-invocation
    charge per instantiation, one bulk intermediate-row charge per
    batch. *)
and batches ectx ~params (p : plan) : Batch.t Seq.t =
  Sb_resil.Limits.charge_op ectx.gov;
  Seq.map
    (fun b ->
      ectx.counters.c_batches <- ectx.counters.c_batches + 1;
      Sb_resil.Limits.charge_rows ectx.gov (Batch.count b);
      b)
    (instr_batches ectx ~params p)

and instr_batches ectx ~params (p : plan) : Batch.t Seq.t =
  match ectx.instr with
  | None -> op_batches ectx ~params p
  | Some tbl ->
    let st = stats_for tbl p in
    let t0 = Sb_obs.Trace.now_ns () in
    let s = op_batches ectx ~params p in
    st.os_ns <- Int64.add st.os_ns (Int64.sub (Sb_obs.Trace.now_ns ()) t0);
    let rec timed s () =
      let t0 = Sb_obs.Trace.now_ns () in
      let node = s () in
      st.os_ns <- Int64.add st.os_ns (Int64.sub (Sb_obs.Trace.now_ns ()) t0);
      match node with
      | Seq.Nil -> Seq.Nil
      | Seq.Cons (b, rest) ->
        st.os_rows <- st.os_rows + Batch.count b;
        st.os_batches <- st.os_batches + 1;
        Seq.Cons (b, timed rest)
    in
    timed s

and instr_stream ectx ~params (p : plan) : Tuple.t Seq.t =
  match ectx.instr with
  | None -> op_stream ectx ~params p
  | Some tbl ->
    let st = stats_for tbl p in
    let t0 = Sb_obs.Trace.now_ns () in
    let s = op_stream ectx ~params p in
    st.os_ns <- Int64.add st.os_ns (Int64.sub (Sb_obs.Trace.now_ns ()) t0);
    let rec timed s () =
      let t0 = Sb_obs.Trace.now_ns () in
      let node = s () in
      st.os_ns <- Int64.add st.os_ns (Int64.sub (Sb_obs.Trace.now_ns ()) t0);
      match node with
      | Seq.Nil -> Seq.Nil
      | Seq.Cons (x, rest) ->
        st.os_rows <- st.os_rows + 1;
        Seq.Cons (x, timed rest)
    in
    timed s

and op_stream ectx ~params (p : plan) : Tuple.t Seq.t =
  match p.op with
  | Scan { sc_table; sc_cols; sc_preds } ->
    let tab = find_table ectx sc_table in
    Seq.filter_map
      (fun (_, row) ->
        ectx.counters.c_scanned <- ectx.counters.c_scanned + 1;
        if conj ectx ~row ~params sc_preds then
          Some (Array.of_list (List.map (fun c -> row.(c)) sc_cols))
        else None)
      (Table_store.scan tab)
  | Idx_access { ix_table; ix_index; ix_probe; ix_cols; ix_preds } ->
    let tab = find_table ectx ix_table in
    let am =
      match Table_store.find_attachment tab ix_index with
      | Some am -> am
      | None -> error "index %s on %s disappeared" ix_index ix_table
    in
    let v e = eval ectx ~row:[||] ~params e in
    let probe =
      match ix_probe with
      | Pr_eq es -> Access_method.Key_eq (Array.of_list (List.map v es))
      | Pr_range (lo, hi) ->
        Access_method.Key_range
          {
            lo = Option.map (fun (e, incl) -> ([| v e |], incl)) lo;
            hi = Option.map (fun (e, incl) -> ([| v e |], incl)) hi;
          }
      | Pr_custom (name, es) -> Access_method.Custom (name, List.map v es)
    in
    ectx.counters.c_index_probes <- ectx.counters.c_index_probes + 1;
    let rids = probe_search ectx am probe in
    Seq.filter_map
      (fun rid ->
        match Table_store.fetch tab rid with
        | None -> None
        | Some row ->
          ectx.counters.c_scanned <- ectx.counters.c_scanned + 1;
          if conj ectx ~row ~params ix_preds then
            Some (Array.of_list (List.map (fun c -> row.(c)) ix_cols))
          else None)
      rids
  | Idx_and { ia_table; ia_probes; ia_cols; ia_preds } ->
    let tab = find_table ectx ia_table in
    let v e = eval ectx ~row:[||] ~params e in
    let probe_of = function
      | Pr_eq es -> Access_method.Key_eq (Array.of_list (List.map v es))
      | Pr_range (lo, hi) ->
        Access_method.Key_range
          {
            lo = Option.map (fun (e, incl) -> ([| v e |], incl)) lo;
            hi = Option.map (fun (e, incl) -> ([| v e |], incl)) hi;
          }
      | Pr_custom (name, es) -> Access_method.Custom (name, List.map v es)
    in
    let rid_sets =
      List.map
        (fun (index, probe) ->
          let am =
            match Table_store.find_attachment tab index with
            | Some am -> am
            | None -> error "index %s on %s disappeared" index ia_table
          in
          ectx.counters.c_index_probes <- ectx.counters.c_index_probes + 1;
          List.of_seq (probe_search ectx am (probe_of probe)))
        ia_probes
    in
    let intersection =
      match List.sort (fun a b -> compare (List.length a) (List.length b)) rid_sets with
      | [] -> []
      | smallest :: rest ->
        let member set rid =
          List.exists (fun r -> Storage_manager.compare_rid r rid = 0) set
        in
        List.filter (fun rid -> List.for_all (fun set -> member set rid) rest) smallest
    in
    Seq.filter_map
      (fun rid ->
        match Table_store.fetch tab rid with
        | None -> None
        | Some row ->
          ectx.counters.c_scanned <- ectx.counters.c_scanned + 1;
          if conj ectx ~row ~params ia_preds then
            Some (Array.of_list (List.map (fun c -> row.(c)) ia_cols))
          else None)
      (List.to_seq intersection)
  | Filter preds ->
    Seq.filter (fun row -> conj ectx ~row ~params preds) (input_stream ectx ~params p 0)
  | Or_filter disjuncts ->
    Seq.filter
      (fun row ->
        (* disjuncts are tried left to right; a tuple rejected by one
           branch is handed to the next (the paper's OR operator) *)
        let rec go = function
          | [] -> false
          | d :: rest ->
            ectx.counters.c_or_branch_evals <- ectx.counters.c_or_branch_evals + 1;
            (match bool3 (eval ectx ~row ~params d) with
            | Some true -> true
            | _ -> go rest)
        in
        go disjuncts)
      (input_stream ectx ~params p 0)
  | Project exprs ->
    Seq.map
      (fun row ->
        Array.of_list (List.map (fun e -> eval ectx ~row ~params e) exprs))
      (input_stream ectx ~params p 0)
  | Sort keys ->
    let rows = collect ectx ~params (List.nth p.inputs 0) in
    ectx.counters.c_sorted <- ectx.counters.c_sorted + List.length rows;
    let cmp a b =
      let rec go = function
        | [] -> 0
        | (i, dir) :: rest ->
          let c = Value.compare ~registry:(registry ectx) a.(i) b.(i) in
          let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
          if c <> 0 then c else go rest
      in
      go keys
    in
    List.to_seq (List.stable_sort cmp rows)
  | Join _ -> join_stream ectx ~params p
  | Group _ -> group_stream ectx ~params p
  | Distinct_op ->
    let seen = Hashtbl.create 64 in
    Seq.filter
      (fun row ->
        let key = Array.to_list row in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      (input_stream ectx ~params p 0)
  | Union_all ->
    Seq.append (input_stream ectx ~params p 0) (input_stream ectx ~params p 1)
  | Intersect_op all -> setop_stream ectx ~params p ~all ~intersect:true
  | Except_op all -> setop_stream ectx ~params p ~all ~intersect:false
  | Temp ->
    let rows =
      demand_rows ectx (Obj.repr p) (List.nth p.inputs 0) (Array.to_list params)
    in
    List.to_seq rows
  | Ship _ ->
    Seq.map
      (fun row ->
        ectx.counters.c_shipped <- ectx.counters.c_shipped + 1;
        row)
      (input_stream ectx ~params p 0)
  | Limit_op n ->
    Seq.take n (input_stream ectx ~params p 0)
  | Values_scan rows ->
    List.to_seq rows
    |> Seq.map (fun row ->
           Array.of_list (List.map (fun e -> eval ectx ~row:[||] ~params e) row))
  | Table_fn_scan { tf_name; tf_args } -> (
    match Functions.find_table_fn ectx.db.x_fns tf_name with
    | None -> error "unknown table function %s" tf_name
    | Some tf ->
      let arg_tables =
        List.map
          (fun child ->
            let w = Array.length child.props.p_slots in
            let schema =
              Array.init w (fun i ->
                  Schema.column (Fmt.str "c%d" i) Datatype.String)
            in
            (schema, stream ectx ~params child))
          p.inputs
      in
      let arg_values =
        List.map (fun e -> eval ectx ~row:[||] ~params e) tf_args
      in
      tf.Functions.tf_eval ~arg_tables ~arg_values)
  | Bloom_filter { bl_subject_key; bl_source_key; bl_bits } ->
    let bits = Bytes.make (bl_bits / 8) '\000' in
    let set h =
      let h = h land (bl_bits - 1) in
      Bytes.set bits (h / 8)
        (Char.chr (Char.code (Bytes.get bits (h / 8)) lor (1 lsl (h mod 8))))
    in
    let test h =
      let h = h land (bl_bits - 1) in
      Char.code (Bytes.get bits (h / 8)) land (1 lsl (h mod 8)) <> 0
    in
    let h1 v = Value.hash v and h2 v = Hashtbl.hash (Value.hash v, 0x9e3779b9) in
    List.iter
      (fun row ->
        let v = row.(bl_source_key) in
        if not (Value.is_null v) then begin
          set (h1 v);
          set (h2 v)
        end)
      (collect ectx ~params (List.nth p.inputs 1));
    Seq.filter
      (fun row ->
        let v = row.(bl_subject_key) in
        (not (Value.is_null v)) && test (h1 v) && test (h2 v))
      (input_stream ectx ~params p 0)
  | Fixpoint { fx_distinct } -> fixpoint_stream ectx ~params p ~distinct:fx_distinct
  | Rec_delta _ -> (
    match ectx.deltas with
    | delta :: _ -> List.to_seq delta
    | [] -> error "recursive reference outside a fixpoint")
  | Choose_op -> input_stream ectx ~params p 0

and input_stream ectx ~params p i = stream ectx ~params (List.nth p.inputs i)

and conj ectx ~row ~params preds =
  List.for_all (fun e -> bool3 (eval ectx ~row ~params e) = Some true) preds

and find_table ectx name =
  match Catalog.find_table ectx.db.x_cat name with
  | Some tab -> tab
  | None -> error "no such table %s" name

(* fault site "qes.probe": an index search as seen from the executor
   (distinct from the access method's own "<kind>.search" site) *)
and probe_search ectx am probe =
  Sb_resil.Faults.guard (Catalog.faults ectx.db.x_cat) ~site:"qes.probe"
    (fun () -> am.Access_method.am_search probe)

(* Scan and Filter predicates, compiled once per operator instance into
   a conjunction of row tests.  [RCol c <cmp> k], with [k] a literal,
   host variable or parameter resolved on first use, compares unboxed
   when the runtime tags agree — Int/Int, Float/Float (through
   [Float.compare], keeping [Value.compare]'s NaN order) and
   String/String — and NULL on either side fails; every other predicate,
   and every other pair of tags, goes through {!eval}. *)
and compile_preds ectx ~params (preds : rexpr list) : Tuple.t -> bool =
  let generic e row = bool3 (eval ectx ~row ~params e) = Some true in
  let compile e =
    match e with
    | RBin
        ( ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
          RCol c,
          ((RLit _ | RHost _ | RParam _) as k) ) ->
      let k = lazy (eval ectx ~row:[||] ~params k) in
      let holds c =
        match op with
        | Ast.Eq -> c = 0
        | Ast.Neq -> c <> 0
        | Ast.Lt -> c < 0
        | Ast.Le -> c <= 0
        | Ast.Gt -> c > 0
        | _ -> c >= 0
      in
      fun row ->
        if c >= Array.length row then generic e row
        else (
          match (row.(c), Lazy.force k) with
          | Value.Int a, Value.Int b -> holds (Int.compare a b)
          | Value.Float a, Value.Float b -> holds (Float.compare a b)
          | Value.String a, Value.String b -> holds (String.compare a b)
          | Value.Null, _ | _, Value.Null -> false
          | _ -> generic e row)
    | e -> generic e
  in
  match List.map compile preds with
  | [] -> fun _ -> true
  | [ test ] -> test
  | tests -> fun row -> List.for_all (fun test -> test row) tests

(* ------------------------------------------------------------------ *)
(* Vectorized operator bodies                                          *)
(* ------------------------------------------------------------------ *)

and input_batches ectx ~params p i = batches ectx ~params (List.nth p.inputs i)

(* drops batches that selection refinement emptied *)
and nonempty (s : Batch.t Seq.t) : Batch.t Seq.t =
  Seq.filter (fun b -> Batch.count b > 0) s

and op_batches ectx ~params (p : plan) : Batch.t Seq.t =
  if not (Sb_optimizer.Plan.batch_capable p) then
    (* tuple-at-a-time operator body behind the batch interface; its
       inputs recurse through {!stream} and vectorize where capable *)
    Batch.of_seq ~width:(width p) (op_stream ectx ~params p)
  else
    match p.op with
    | Scan { sc_table; sc_cols; sc_preds } ->
      (* page at a time through the storage manager's scan primitive,
         decoding only the projected and predicate columns *)
      let tab = find_table ectx sc_table in
      let cols = Array.of_list sc_cols in
      let ncols = Array.length tab.Table_store.schema in
      let needed = Array.make ncols false in
      List.iter
        (fun c -> if c < ncols then needed.(c) <- true)
        (sc_cols @ List.concat_map slots_used sc_preds);
      let row = Array.make ncols Value.Null in
      let test = compile_preds ectx ~params sc_preds in
      (* a subquery predicate runs after its page is unpinned, as the
         inner plan may itself scan *)
      let defer = List.exists rexpr_has_sub sc_preds in
      let npages = Table_store.page_count tab and next_page = ref 0 in
      (* decoded rows not yet tested: the tail of a page that overflowed
         the previous batch, so batch boundaries fall where a row-at-a-time
         fill would put them *)
      let held = Queue.create () in
      let take out r =
        ectx.counters.c_scanned <- ectx.counters.c_scanned + 1;
        if test r then Batch.append_cols out r cols
      in
      let drain out =
        while not (Batch.full out || Queue.is_empty held) do
          take out (Queue.pop held)
        done
      in
      let next_out = Batch.owner (Array.length cols) in
      Seq.of_dispenser (fun () ->
          (* once exhausted, answer without touching the batch *)
          if Queue.is_empty held && !next_page >= npages then None
          else begin
            let out = next_out () in
            drain out;
            while (not (Batch.full out)) && !next_page < npages do
              tab.Table_store.storage.Storage_manager.scan_page !next_page ~needed
                ~row (fun _ ->
                  if defer || Batch.full out then Queue.push (Array.copy row) held
                  else take out row);
              incr next_page;
              drain out
            done;
            if Batch.count out > 0 then Some out else None
          end)
    | Filter preds ->
      let test = compile_preds ectx ~params preds in
      let scratch = Array.make (width p) Value.Null in
      (* predicates typically read a few slots of a wide row: copy only
         those before evaluating *)
      let used =
        Array.of_list
          (List.sort_uniq compare (List.concat_map slots_used preds))
      in
      nonempty
        (Seq.map
           (fun b ->
             Batch.keep b (fun i ->
                 Batch.blit_slots b i scratch used;
                 test scratch);
             b)
           (input_batches ectx ~params p 0))
    | Or_filter disjuncts ->
      let scratch = Array.make (width p) Value.Null in
      nonempty
        (Seq.map
           (fun b ->
             Batch.keep b (fun i ->
                 Batch.blit_row b i scratch;
                 (* disjuncts are tried left to right; a row rejected by
                    one branch is handed to the next *)
                 let rec go = function
                   | [] -> false
                   | d :: rest ->
                     ectx.counters.c_or_branch_evals <-
                       ectx.counters.c_or_branch_evals + 1;
                     (match bool3 (eval ectx ~row:scratch ~params d) with
                     | Some true -> true
                     | _ -> go rest)
                 in
                 go disjuncts);
             b)
           (input_batches ectx ~params p 0))
    | Project exprs ->
      let exprs = Array.of_list exprs in
      let cols_only =
        (* a pure column selection (every expression an [RCol]) re-views
           its input batch: no value moves *)
        let rec go k acc =
          if k < 0 then Some (Array.of_list acc)
          else
            match exprs.(k) with
            | RCol c -> go (k - 1) (c :: acc)
            | _ -> None
        in
        go (Array.length exprs - 1) []
      in
      (match cols_only with
      | Some [||] ->
        (* width-0 projection (e.g. under a bare count): only the row count
           survives *)
        let next_out = Batch.owner 0 in
        Seq.map
          (fun b ->
            let out = next_out () in
            Batch.pad out (Batch.count b);
            out)
          (input_batches ectx ~params p 0)
      | Some cols ->
        Seq.map (fun b -> Batch.select b cols) (input_batches ectx ~params p 0)
      | None ->
        let scratch = Array.make (width (List.nth p.inputs 0)) Value.Null in
        let next_out = Batch.owner (Array.length exprs) in
        Seq.map
          (fun b ->
            let out = next_out () in
            for i = 0 to Batch.count b - 1 do
              Batch.blit_row b i scratch;
              Batch.append_init out (fun k ->
                  eval ectx ~row:scratch ~params exprs.(k))
            done;
            out)
          (input_batches ectx ~params p 0))
    | Sort keys -> sort_batches ectx ~params p keys
    | Join _ -> join_batches ectx ~params p
    | Group _ -> group_batches ectx ~params p
    | Distinct_op ->
      (* a row survives iff it opens a new directory entry *)
      let seen = key_dir () in
      let key = Array.make (width p) Value.Null in
      nonempty
        (Seq.map
           (fun b ->
             Batch.keep b (fun i ->
                 Batch.blit_row b i key;
                 let fresh = seen.kd_count in
                 find_or_add seen key = fresh);
             b)
           (input_batches ectx ~params p 0))
    | Union_all ->
      Seq.append (input_batches ectx ~params p 0) (input_batches ectx ~params p 1)
    | Intersect_op all -> setop_batches ectx ~params p ~all ~intersect:true
    | Except_op all -> setop_batches ectx ~params p ~all ~intersect:false
    | Temp ->
      let rows =
        demand_rows ectx (Obj.repr p) (List.nth p.inputs 0)
          (Array.to_list params)
      in
      Batch.of_rows ~width:(width p) rows
    | Ship _ ->
      Seq.map
        (fun b ->
          ectx.counters.c_shipped <- ectx.counters.c_shipped + Batch.count b;
          b)
        (input_batches ectx ~params p 0)
    | Limit_op n ->
      let src = Seq.to_dispenser (input_batches ectx ~params p 0) in
      let remaining = ref n in
      Seq.of_dispenser (fun () ->
          if !remaining <= 0 then None
          else
            match src () with
            | None -> None
            | Some b ->
              let c = Batch.count b in
              if c <= !remaining then remaining := !remaining - c
              else begin
                Batch.truncate b !remaining;
                remaining := 0
              end;
              Some b)
    | Values_scan rows ->
      Batch.of_seq ~width:(width p)
        (Seq.map
           (fun row ->
             Array.of_list
               (List.map (fun e -> eval ectx ~row:[||] ~params e) row))
           (List.to_seq rows))
    | Choose_op -> input_batches ectx ~params p 0
    | Idx_access _ | Idx_and _ | Table_fn_scan _ | Bloom_filter _ | Fixpoint _
    | Rec_delta _ ->
      (* never batch_capable; kept for exhaustiveness *)
      Batch.of_seq ~width:(width p) (op_stream ectx ~params p)

and setop_batches ectx ~params (p : plan) ~all ~intersect : Batch.t Seq.t =
  let left = input_batches ectx ~params p 0 in
  let decide = setop_decider ectx ~params p ~all ~intersect in
  nonempty
    (Seq.map
       (fun b ->
         Batch.keep b (fun i -> decide (Batch.row_list b i));
         b)
       left)

(* Lazy SORT.  The input is gathered at instantiation, as the tuple
   engine does, into an array; the output order is the tuple engine's
   stable sort: by the keys, then by arrival.  The first pull selects
   the first [Batch.capacity] rows with a bounded max-heap and sorts only
   those; the remaining rows are sorted only if a second batch is
   pulled.  So [LIMIT n <= capacity] over [ORDER BY] sorts n log n rows
   past one linear pass, and any prefix equals the full sort's. *)
and sort_batches ectx ~params (p : plan) keys : Batch.t Seq.t =
  let rows = ref (Array.make 64 [||]) and n = ref 0 in
  Seq.iter
    (fun b ->
      for i = 0 to Batch.count b - 1 do
        if !n = Array.length !rows then rows := grown !rows [||];
        (!rows).(!n) <- Batch.get b i;
        incr n
      done)
    (input_batches ectx ~params p 0);
  let rows = !rows and n = !n in
  ectx.counters.c_sorted <- ectx.counters.c_sorted + n;
  let cmp = Value.compare ~registry:(registry ectx) in
  let kslots = Array.of_list (List.map fst keys) in
  let kdesc = Array.of_list (List.map (fun (_, dir) -> dir = Ast.Desc) keys) in
  (* the total order on row indices: keys, then arrival *)
  let order a b =
    let c = ref 0 and k = ref 0 in
    while !c = 0 && !k < Array.length kslots do
      let s = kslots.(!k) in
      let x = cmp rows.(a).(s) rows.(b).(s) in
      c := if kdesc.(!k) then -x else x;
      incr k
    done;
    if !c <> 0 then !c else Int.compare a b
  in
  let first_batch () =
    let k = min n Batch.capacity in
    let heap = Array.init k Fun.id in
    if n > k then begin
      (* a max-heap of the k least rows seen so far *)
      let rec sift i =
        let l = (2 * i) + 1 in
        if l < k then begin
          let c = if l + 1 < k && order heap.(l + 1) heap.(l) > 0 then l + 1 else l in
          if order heap.(c) heap.(i) > 0 then begin
            let t = heap.(i) in
            heap.(i) <- heap.(c);
            heap.(c) <- t;
            sift c
          end
        end
      in
      for i = (k / 2) - 1 downto 0 do
        sift i
      done;
      for idx = k to n - 1 do
        if order idx heap.(0) < 0 then begin
          heap.(0) <- idx;
          sift 0
        end
      done
    end;
    Array.sort order heap;
    heap
  in
  let rest first =
    let taken = Bytes.make n '\000' in
    Array.iter (fun idx -> Bytes.set taken idx '\001') first;
    let rest = Array.make (n - Array.length first) 0 and j = ref 0 in
    for idx = 0 to n - 1 do
      if Bytes.get taken idx = '\000' then begin
        rest.(!j) <- idx;
        incr j
      end
    done;
    Array.stable_sort order rest;
    rest
  in
  let next_out = Batch.owner (width p) in
  let run = ref [||] and pos = ref 0 and pulls = ref 0 in
  Seq.of_dispenser (fun () ->
      incr pulls;
      if !pulls = 1 then run := first_batch ()
      else if !pulls = 2 then begin
        run := rest !run;
        pos := 0
      end;
      if !pos >= Array.length !run then None
      else begin
        let out = next_out () in
        while !pos < Array.length !run && not (Batch.full out) do
          Batch.append out rows.((!run).(!pos));
          incr pos
        done;
        Some out
      end)

(* Hash aggregation: each row's key columns are copied into one scratch
   key for a single directory lookup, and its aggregate arguments are
   read straight from the batch; a group's key is copied only when the
   group opens. *)
and group_batches ectx ~params (p : plan) : Batch.t Seq.t =
  let g_keys, g_aggs =
    match p.op with
    | Group { g_keys; g_aggs; _ } -> (g_keys, g_aggs)
    | _ -> assert false
  in
  let aslots = agg_slots g_aggs in
  let step_aggs bank b i =
    for j = 0 to Array.length bank - 1 do
      let s = aslots.(j) in
      if s < 0 then bank.(j).Functions.agg_step Value.Null
      else
        let v = Batch.value b ~col:s i in
        if not (Value.is_null v) then bank.(j).Functions.agg_step v
    done
  in
  if g_keys = [] then begin
    (* keyless aggregation: one bank, no group lookup *)
    let bank = make_agg_bank ectx g_aggs in
    Seq.iter
      (fun b ->
        for i = 0 to Batch.count b - 1 do
          step_aggs bank b i
        done)
      (input_batches ectx ~params p 0);
    (* aggregating an empty input still yields one row *)
    Batch.of_rows ~width:(width p) [ agg_result_row [||] bank ]
  end
  else begin
    let kslots = Array.of_list g_keys in
    let key = Array.make (Array.length kslots) Value.Null in
    let groups = key_dir () in
    let banks = ref [||] in
    Seq.iter
      (fun b ->
        for i = 0 to Batch.count b - 1 do
          for k = 0 to Array.length kslots - 1 do
            key.(k) <- Batch.value b ~col:kslots.(k) i
          done;
          let fresh = groups.kd_count in
          let g = find_or_add groups key in
          if g = fresh then begin
            if g = Array.length !banks then banks := grown !banks [||];
            (!banks).(g) <- make_agg_bank ectx g_aggs
          end;
          step_aggs (!banks).(g) b i
        done)
      (input_batches ectx ~params p 0);
    Batch.of_seq ~width:(width p)
      (Seq.init groups.kd_count (fun g ->
           agg_result_row groups.kd_keys.(g) (!banks).(g)))
  end

(* --- vectorized hash/merge join --- *)

and join_build ectx ~params inner (islots : int array) : hash_side =
  let rows = Array.of_list (collect ectx ~params inner) in
  let n = Array.length rows in
  let nbuckets =
    let rec grow b = if b >= n || b >= 1 lsl 22 then b else grow (b * 2) in
    grow 16
  in
  let hashes = Array.make (max n 1) (-1) in
  let next = Array.make (max n 1) (-1) in
  let heads = Array.make nbuckets (-1) in
  let mask = nbuckets - 1 in
  for idx = 0 to n - 1 do
    let h = join_key_hash rows.(idx) islots in
    hashes.(idx) <- h;
    if h >= 0 then begin
      let b = h land mask in
      next.(idx) <- heads.(b);
      heads.(b) <- idx
    end
  done;
  {
    hs_rows = rows;
    hs_hashes = hashes;
    hs_next = next;
    hs_heads = heads;
    hs_mask = mask;
  }

(* Batch-at-a-time probe.  The sort-merge method shares this body: the
   tuple engine, too, executes it as a keyed lookup over the grouped
   inner, so both methods agree on semantics and differ only in the
   optimizer's cost model. *)
and join_batches ectx ~params (p : plan) : Batch.t Seq.t =
  let j_kind, j_equi, j_pred, j_kind_pred =
    match p.op with
    | Join { j_kind; j_equi; j_pred; j_kind_pred; _ } ->
      (j_kind, j_equi, j_pred, j_kind_pred)
    | _ -> assert false
  in
  let inner = List.nth p.inputs 1 in
  let inner_width = Array.length inner.props.p_slots in
  let out_width = width p in
  let oslots = Array.of_list (List.map fst j_equi) in
  let islots = Array.of_list (List.map snd j_equi) in
  let reg = registry ectx in
  (* built on the first outer batch, like the tuple engine builds on
     the first outer tuple: an empty outer never evaluates the inner *)
  let side = ref None in
  let force_side () =
    match !side with
    | Some s -> s
    | None ->
      let s = join_build ectx ~params inner islots in
      side := Some s;
      s
  in
  (* partial application shares one [Some reg] across all probes *)
  let cmp = Value.compare ~registry:reg in
  let equal_keys =
    match oslots, islots with
    | [| os |], [| is |] ->
      (* single-key equi-join fast path *)
      fun (o : Tuple.t) (irow : Tuple.t) -> cmp o.(os) irow.(is) = 0
    | _ ->
      fun (o : Tuple.t) (irow : Tuple.t) ->
        let rec go k =
          k >= Array.length oslots
          || (cmp o.(oslots.(k)) irow.(islots.(k)) = 0 && go (k + 1))
        in
        go 0
  in
  (* per-probe match buffer, reused across rows; holds build indices in
     chain (reverse build) order *)
  let mbuf = ref (Array.make 64 0) in
  let collect_matches s (o : Tuple.t) =
    let h = join_key_hash o oslots in
    if h < 0 then 0
    else begin
      let cnt = ref 0 in
      let idx = ref s.hs_heads.(h land s.hs_mask) in
      while !idx >= 0 do
        let i = !idx in
        if s.hs_hashes.(i) = h && equal_keys o s.hs_rows.(i) then begin
          if !cnt >= Array.length !mbuf then begin
            let bigger = Array.make (2 * Array.length !mbuf) 0 in
            Array.blit !mbuf 0 bigger 0 !cnt;
            mbuf := bigger
          end;
          (!mbuf).(!cnt) <- i;
          incr cnt
        end;
        idx := s.hs_next.(i)
      done;
      !cnt
    end
  in
  let pred_true row =
    match j_pred with
    | None -> true
    | Some e -> bool3 (eval ectx ~row ~params e) = Some true
  in
  let kind_truth row =
    match j_kind_pred with
    | None -> Some true
    | Some e -> bool3 (eval ectx ~row ~params e)
  in
  (* output batches: the one lent to the consumer comes back on its next
     pull and is refilled, so a fan-out of k batches per input batch costs
     k + 1 batches per join instance *)
  let ready = Queue.create () in
  let spare = ref [] and lent = ref None in
  let fresh () =
    match !spare with
    | b :: rest ->
      spare := rest;
      b
    | [] -> Batch.create out_width
  in
  let out = ref (fresh ()) in
  let roll () =
    if Batch.full !out then begin
      Queue.push !out ready;
      out := fresh ()
    end
  in
  let push row =
    Batch.append !out row;
    roll ()
  in
  (* reused per-probe outer row: every consumer below copies its values
     out before the next probe overwrites it *)
  let outer_w = width (List.nth p.inputs 0) in
  let scratch = Array.make outer_w Value.Null in
  let no_preds = j_pred = None && j_kind_pred = None in
  let probe_batch b =
    let s = force_side () in
    for i = 0 to Batch.count b - 1 do
      Batch.blit_row b i scratch;
      let m = collect_matches s scratch in
      match j_kind with
      (* chain order is reverse build order: emit backwards to
         reproduce the tuple engine's build-order inner emission *)
      | J_regular when no_preds ->
        (* the hot path: no residual predicate, so the concatenated row
           goes straight into the output columns *)
        for k = m - 1 downto 0 do
          Batch.append_concat !out scratch s.hs_rows.((!mbuf).(k));
          roll ()
        done
      | J_regular ->
        for k = m - 1 downto 0 do
          let row = Array.append scratch s.hs_rows.((!mbuf).(k)) in
          if pred_true row && kind_truth row = Some true then push row
        done
      | _ ->
        (* quantified/extension kinds may emit the outer tuple itself:
           hand them a tuple they can own *)
        let o = Batch.get b i in
        let inners = ref [] in
        for k = 0 to m - 1 do
          inners := s.hs_rows.((!mbuf).(k)) :: !inners
        done;
        List.iter push
          (join_emit ectx ~params ~j_kind:j_kind ~j_pred:j_pred
             ~j_kind_pred:j_kind_pred ~inner_width o !inners)
    done
  in
  let src = Seq.to_dispenser (input_batches ectx ~params p 0) in
  let finished = ref false in
  let lend b =
    lent := Some b;
    Some b
  in
  Seq.of_dispenser (fun () ->
      (match !lent with
      | Some b ->
        Batch.reset b;
        spare := b :: !spare;
        lent := None
      | None -> ());
      let rec loop () =
        if not (Queue.is_empty ready) then lend (Queue.pop ready)
        else if !finished then None
        else
          match src () with
          | None ->
            finished := true;
            if Batch.count !out > 0 then lend !out else None
          | Some b ->
            probe_batch b;
            loop ()
      in
      loop ())

(* --- joins --- *)

and join_stream ectx ~params (p : plan) : Tuple.t Seq.t =
  let j_method, j_kind, j_equi, j_pred, j_corr, j_bound, j_kind_pred =
    match p.op with
    | Join { j_method; j_kind; j_equi; j_pred; j_corr; j_bound; j_kind_pred } ->
      (j_method, j_kind, j_equi, j_pred, j_corr, j_bound, j_kind_pred)
    | _ -> assert false
  in
  let outer = List.nth p.inputs 0 and inner = List.nth p.inputs 1 in
  let inner_width = Array.length inner.props.p_slots in
  (* fetch matching inner rows for one outer tuple *)
  let inner_rows_for =
    match j_method with
    | Nested_loop ->
      fun o ->
        (* a parameter-bound inner owns its parameter space: bind its
           params positionally from the correlation sources; an unbound
           inner shares the enclosing parameter space *)
        let bound =
          if j_bound then List.map (fun e -> eval ectx ~row:o ~params e) j_corr
          else Array.to_list params
        in
        demand_rows ectx (Obj.repr p) inner bound
    | Hash_join ->
      let table = Hashtbl.create 256 in
      let built = ref false in
      fun o ->
        if not !built then begin
          built := true;
          List.iter
            (fun i ->
              let key =
                List.map (fun (_, islot) -> i.(islot)) j_equi
              in
              Hashtbl.add table key i)
            (collect ectx ~params inner)
        end;
        let key = List.map (fun (oslot, _) -> o.(oslot)) j_equi in
        if List.exists Value.is_null key then []
        else List.rev (Hashtbl.find_all table key)
    | Sort_merge ->
      (* both inputs are sorted on the equi keys; group the inner by key
         once, then look up groups (a merge with random access stands in
         for cursor regression on duplicate outer keys) *)
      let groups = Hashtbl.create 256 in
      let built = ref false in
      fun o ->
        if not !built then begin
          built := true;
          List.iter
            (fun i ->
              let key = List.map (fun (_, islot) -> i.(islot)) j_equi in
              Hashtbl.add groups key i)
            (collect ectx ~params inner)
        end;
        let key = List.map (fun (oslot, _) -> o.(oslot)) j_equi in
        if List.exists Value.is_null key then []
        else List.rev (Hashtbl.find_all groups key)
  in
  let equi_match o i =
    match j_method with
    | Nested_loop ->
      List.for_all
        (fun (oslot, islot) ->
          (not (Value.is_null o.(oslot)))
          && (not (Value.is_null i.(islot)))
          && Value.compare ~registry:(registry ectx) o.(oslot) i.(islot) = 0)
        j_equi
    | Hash_join | Sort_merge -> true (* established by the lookup *)
  in
  let outer_seq = stream ectx ~params outer in
  let emit_for o : Tuple.t list =
    let inners = List.filter (equi_match o) (inner_rows_for o) in
    join_emit ectx ~params ~j_kind ~j_pred ~j_kind_pred ~inner_width o inners
  in
  Seq.concat_map (fun o -> List.to_seq (emit_for o)) outer_seq

(** The join-kind dispatch, shared by both engines: given one outer
    tuple and its (equi-matched) inner tuples, produce the output rows.
    Kinds always see materialized tuples, so extension kinds are
    engine-agnostic. *)
and join_emit ectx ~params ~j_kind ~j_pred ~j_kind_pred ~inner_width
    (o : Tuple.t) (inners : Tuple.t list) : Tuple.t list =
  let combined i = Array.append o i in
  let pred_true row =
    match j_pred with
    | None -> true
    | Some e -> bool3 (eval ectx ~row ~params e) = Some true
  in
  let kind_truth row =
    match j_kind_pred with
    | None -> Some true
    | Some e -> bool3 (eval ectx ~row ~params e)
  in
  match j_kind with
  | J_regular ->
    List.filter_map
      (fun i ->
        let row = combined i in
        if pred_true row && kind_truth row = Some true then Some row else None)
      inners
  | J_exists ->
    let rec go = function
      | [] -> []
      | i :: rest ->
        let row = combined i in
        if pred_true row && kind_truth row = Some true then [ o ] else go rest
    in
    go inners
  | J_all ->
    (* SQL semantics: the outer qualifies only if the predicate is
       true for every inner row *)
    let ok =
      List.for_all (fun i -> kind_truth (combined i) = Some true) inners
    in
    if ok then [ o ] else []
  | J_scalar -> (
    match inners with
    | [] -> [ Array.append o [| Value.Null |] ]
    | [ i ] -> [ Array.append o [| i.(0) |] ]
    | _ -> error "scalar subquery returned more than one row")
  | J_set_pred name -> (
    match Functions.find_set_predicate ectx.db.x_fns name with
    | None -> error "unknown set predicate %s" name
    | Some f ->
      let truths =
        Seq.map (fun i -> kind_truth (combined i)) (List.to_seq inners)
      in
      if f.Functions.spf_combine truths = Some true then [ o ] else [])
  | J_ext name -> (
    match Hashtbl.find_opt ectx.db.x_kinds name with
    | None -> error "join kind %s is not registered" name
    | Some impl ->
      impl ~outer:o ~inners
        ~pred:(fun row -> if pred_true row then kind_truth row else Some false)
        ~inner_width)

(* --- grouping --- *)

(* a fresh bank of aggregate instances, one per aggregate.  A step takes
   the argument value: [Null] for a row count, which steps on every row;
   callers skip NULL arguments of the others.  DISTINCT aggregates step
   on a value's first occurrence only. *)
and make_agg_bank ectx g_aggs : Functions.agg_instance array =
  Array.of_list
    (List.map
       (fun (name, distinct, _) ->
         match Functions.find_aggregate ectx.db.x_fns name with
         | None -> error "unknown aggregate %s" name
         | Some f ->
           let inst = f.Functions.af_make (registry ectx) in
           if not distinct then inst
           else
             let seen = Hashtbl.create 16 in
             {
               inst with
               Functions.agg_step =
                 (fun v ->
                   if not (Hashtbl.mem seen v) then begin
                     Hashtbl.replace seen v ();
                     inst.Functions.agg_step v
                   end);
             })
       g_aggs)

(* each aggregate's argument slot; -1 for a row count *)
and agg_slots g_aggs =
  Array.of_list
    (List.map (fun (_, _, slot) -> Option.value ~default:(-1) slot) g_aggs)

and agg_result_row (key : Value.t array) (bank : Functions.agg_instance array) =
  Array.append key (Array.map (fun a -> a.Functions.agg_result ()) bank)

and group_stream ectx ~params (p : plan) : Tuple.t Seq.t =
  let g_keys, g_aggs, g_sorted =
    match p.op with
    | Group { g_keys; g_aggs; g_sorted } -> (g_keys, g_aggs, g_sorted)
    | _ -> assert false
  in
  let input = List.nth p.inputs 0 in
  let make_aggs () = make_agg_bank ectx g_aggs in
  let aslots = agg_slots g_aggs in
  let step aggs (row : Tuple.t) =
    Array.iteri
      (fun j a ->
        let s = aslots.(j) in
        if s < 0 then a.Functions.agg_step Value.Null
        else if not (Value.is_null row.(s)) then a.Functions.agg_step row.(s))
      aggs
  in
  let result_row key aggs = agg_result_row (Array.of_list key) aggs in
  if g_sorted && g_keys <> [] then
    (* streaming aggregation over key-ordered input *)
    Seq.of_dispenser
      (let src = Seq.to_dispenser (stream ectx ~params input) in
       let current = ref None in
       let finished = ref false in
       fun () ->
         if !finished then None
         else
           let rec loop () =
             match src () with
             | None ->
               finished := true;
               (match !current with
               | Some (key, aggs) -> Some (result_row key aggs)
               | None -> None)
             | Some row -> (
               let key = List.map (fun s -> row.(s)) g_keys in
               match !current with
               | Some (k, aggs)
                 when List.for_all2
                        (fun a b -> Value.compare ~registry:(registry ectx) a b = 0)
                        k key ->
                 step aggs row;
                 loop ()
               | Some (k, aggs) ->
                 let aggs' = make_aggs () in
                 step aggs' row;
                 current := Some (key, aggs');
                 Some (result_row k aggs)
               | None ->
                 let aggs = make_aggs () in
                 step aggs row;
                 current := Some (key, aggs);
                 loop ())
           in
           loop ())
  else begin
    (* hash aggregation *)
    let groups : (Value.t list, _) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    Seq.iter
      (fun row ->
        let key = List.map (fun s -> row.(s)) g_keys in
        let aggs =
          match Hashtbl.find_opt groups key with
          | Some aggs -> aggs
          | None ->
            let aggs = make_aggs () in
            Hashtbl.replace groups key aggs;
            order := key :: !order;
            aggs
        in
        step aggs row)
      (stream ectx ~params input);
    if g_keys = [] && Hashtbl.length groups = 0 then
      (* aggregate over an empty input still yields one row *)
      Seq.return (result_row [] (make_aggs ()))
    else
      List.to_seq (List.rev !order)
      |> Seq.map (fun key -> result_row key (Hashtbl.find groups key))
  end

(* --- set operations --- *)

(* counts the right input into a multiset and returns the left-row
   admission test, shared by both engines (stateful: ALL variants
   consume right counts, non-ALL variants dedup what they emit) *)
and setop_decider ectx ~params (p : plan) ~all ~intersect :
    Value.t list -> bool =
  let right_counts = Hashtbl.create 64 in
  List.iter
    (fun row ->
      let key = Array.to_list row in
      Hashtbl.replace right_counts key
        (1 + Option.value ~default:0 (Hashtbl.find_opt right_counts key)))
    (collect ectx ~params (List.nth p.inputs 1));
  let emitted = Hashtbl.create 64 in
  fun key ->
    let rc = Option.value ~default:0 (Hashtbl.find_opt right_counts key) in
    if intersect then
      if all then
        if rc > 0 then begin
          Hashtbl.replace right_counts key (rc - 1);
          true
        end
        else false
      else if rc > 0 && not (Hashtbl.mem emitted key) then begin
        Hashtbl.replace emitted key ();
        true
      end
      else false
    else if all then
      if rc > 0 then begin
        Hashtbl.replace right_counts key (rc - 1);
        false
      end
      else true
    else if rc = 0 && not (Hashtbl.mem emitted key) then begin
      Hashtbl.replace emitted key ();
      true
    end
    else false

and setop_stream ectx ~params (p : plan) ~all ~intersect : Tuple.t Seq.t =
  let left = input_stream ectx ~params p 0 in
  let decide = setop_decider ectx ~params p ~all ~intersect in
  Seq.filter (fun row -> decide (Array.to_list row)) left

(* --- recursion --- *)

and fixpoint_stream ectx ~params (p : plan) ~distinct : Tuple.t Seq.t =
  ignore distinct;
  let seed = List.nth p.inputs 0 and step = List.nth p.inputs 1 in
  let seen = Hashtbl.create 256 in
  let acc = ref [] in
  let add rows =
    List.filter
      (fun row ->
        let key = Array.to_list row in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          acc := row :: !acc;
          true
        end)
      rows
  in
  let max_rounds = 100_000 in
  let delta = ref (add (collect ectx ~params seed)) in
  let rounds = ref 0 in
  while !delta <> [] do
    incr rounds;
    if !rounds > max_rounds then error "recursion exceeded %d rounds" max_rounds;
    ectx.counters.c_fixpoint_rounds <- ectx.counters.c_fixpoint_rounds + 1;
    ectx.deltas <- !delta :: ectx.deltas;
    let produced = collect ectx ~params step in
    ectx.deltas <- List.tl ectx.deltas;
    (* the step's demand caches are invalid across rounds because the
       delta changed: clear caches scoped under the step *)
    ectx.caches <- [];
    delta := add produced
  done;
  List.to_seq (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Standalone executions get a fresh governor over the default limits,
   so the finite intermediate-row ceiling holds even outside Corona. *)
let default_gov () = Sb_resil.Limits.start (Sb_resil.Limits.default ())

(** Runs a plan to completion, returning the result rows. *)
let run ?(hosts = []) ?(counters = fresh_counters ()) ?gov (db : db)
    (plan : plan) : Tuple.t list =
  let gov = match gov with Some g -> g | None -> default_gov () in
  let ectx =
    { db; hosts; counters; gov; caches = []; deltas = []; instr = None }
  in
  let rows = collect ectx ~params:[||] plan in
  List.iter (fun _ -> Sb_resil.Limits.charge_output gov) rows;
  counters.c_output <- counters.c_output + List.length rows;
  rows

(** Streams a plan's results (lazy, single pass). *)
let run_seq ?(hosts = []) ?(counters = fresh_counters ()) ?gov (db : db)
    (plan : plan) : Tuple.t Seq.t =
  let gov = match gov with Some g -> g | None -> default_gov () in
  let ectx =
    { db; hosts; counters; gov; caches = []; deltas = []; instr = None }
  in
  Seq.map
    (fun row ->
      Sb_resil.Limits.charge_output gov;
      row)
    (stream ectx ~params:[||] plan)

(** Like {!run}, but with per-operator accounting: also returns a lookup
    from plan node (by physical identity, including subplans embedded in
    expressions) to its rows-produced and inclusive elapsed time. *)
let run_analyzed ?(hosts = []) ?(counters = fresh_counters ()) ?gov (db : db)
    (plan : plan) : Tuple.t list * (plan -> op_stats option) =
  let gov = match gov with Some g -> g | None -> default_gov () in
  let tbl : analysis = ref [] in
  let ectx =
    { db; hosts; counters; gov; caches = []; deltas = []; instr = Some tbl }
  in
  let rows = collect ectx ~params:[||] plan in
  List.iter (fun _ -> Sb_resil.Limits.charge_output gov) rows;
  counters.c_output <- counters.c_output + List.length rows;
  (rows, fun p -> Option.map snd (List.find_opt (fun (q, _) -> q == p) !tbl))

(** Evaluates a standalone runtime expression over one row (used by the
    facade for UPDATE/DELETE predicates and SET expressions). *)
let eval_row ?(hosts = []) (db : db) ~(row : Tuple.t) (e : rexpr) : Value.t =
  let ectx =
    { db; hosts; counters = fresh_counters (); gov = default_gov ();
      caches = []; deltas = []; instr = None }
  in
  eval ectx ~row ~params:[||] e

let row_test ?(hosts = []) ?(params = [||]) (db : db) (preds : rexpr list) =
  let ectx =
    { db; hosts; counters = fresh_counters (); gov = default_gov ();
      caches = []; deltas = []; instr = None }
  in
  compile_preds ectx ~params preds
