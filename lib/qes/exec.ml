(** The Query Evaluation System (section 7).

    Plans are interpreted against the database through an algebraic,
    stream-based interface, with one body per operator.  Every operator
    is batch-at-a-time: operators exchange columnar row batches of up
    to {!Batch.capacity} rows with per-batch selection vectors (see
    {!Batch}), charged to the governor and accounted at batch
    granularity.  Producers that emit rows one at a time (index access,
    joins, SORT, streaming aggregation, table functions) fill their
    batches through a {!Batch.emitter}.  Rows leave batches as tuples
    only where they are materialized: the plan root, evaluate-on-demand,
    the hash join's build side (one copy per inner row) and
    table-function arguments.

    Every keyed structure (hash joins, GROUP BY, DISTINCT, DISTINCT
    aggregates, set operations and fixpoints) is one key directory,
    which decides key equality by [Value.compare] under the catalog's
    datatype registry, so [1] and [1.0] are one key, as they are one
    value to a comparison.

    Join {e methods} (nested-loop, sort-merge, hash) are control
    structures; join {e kinds} (regular, exists, op-ALL, scalar,
    DBC set-predicates, and extension kinds such as left-outer) are the
    functions performed during the join.  One join body serves every
    method — a method only decides which inner rows match an outer row
    — and every kind; new kinds register in {!register_join_kind}.
    Extension kinds always see materialized [Tuple.t]s.

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
  mutable c_batches : int;  (** batches emitted by operators *)
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
}

let make_db ~catalog ~functions =
  { x_cat = catalog; x_fns = functions; x_kinds = Hashtbl.create 4;
    x_demand_cache = true }

let register_join_kind db name impl = Hashtbl.replace db.x_kinds name impl

(** Per-operator runtime accounting for EXPLAIN ANALYZE: rows produced
    and batches emitted (across all re-evaluations, e.g. of a join's
    inner), and inclusive elapsed time. *)
type op_stats = {
  mutable os_rows : int;
  mutable os_batches : int;
  mutable os_ns : int64;
}

(* op_stats per plan node, keyed by physical identity; allocated on
   demand so subplans embedded in expressions are covered too *)
type analysis = (Sb_optimizer.Plan.plan * op_stats) list ref

(* a combined key hash, scrambled so that the low bits the bucket masks
   keep depend on every bit ([Value.hash] of an int is the int) *)
let mix h =
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* [arr] at twice its length (at least 16), new slots [fill] *)
let grown arr fill =
  let bigger = Array.make (max 16 (2 * Array.length arr)) fill in
  Array.blit arr 0 bigger 0 (Array.length arr);
  bigger

(* The key directory of every keyed QES structure (the hash/merge join's
   build side, GROUP BY, DISTINCT, DISTINCT aggregates, set operations,
   fixpoints): one entry per distinct key, numbered in arrival order,
   found or added in a single chained lookup.  The probe key is a
   caller's scratch array or a batch row read in place, copied only when
   it opens an entry.  Two keys are equal when every column is equal
   under [Value.compare] with the catalog's datatype registry — the
   equality of comparisons — with unboxed fast paths for Int/Int,
   Float/Float and String/String; [Value.hash] agrees with it. *)
type key_dir = {
  kd_cmp : Value.t -> Value.t -> int;
  mutable kd_keys : Value.t array array;  (* entry -> its key *)
  mutable kd_hashes : int array;
  mutable kd_next : int array;  (* bucket chain links *)
  mutable kd_heads : int array;  (* power-of-two bucket directory *)
  mutable kd_count : int;
}

(* an empty directory with room for [size] entries *)
let key_dir ?(size = 0) registry =
  let rec pow2 b = if b >= size then b else pow2 (2 * b) in
  { kd_cmp = Value.compare ~registry; kd_keys = Array.make size [||];
    kd_hashes = Array.make size 0; kd_next = Array.make size (-1);
    kd_heads = Array.make (pow2 16) (-1); kd_count = 0 }

let same_value cmp (a : Value.t) (b : Value.t) =
  match a, b with
  | Value.Int x, Value.Int y -> x = y
  | Value.Float x, Value.Float y -> Float.equal x y
  | Value.String x, Value.String y -> String.equal x y
  | _ -> cmp a b = 0

let same_key cmp (a : Value.t array) (b : Value.t array) =
  let k = ref 0 in
  while !k < Array.length a && same_value cmp a.(!k) b.(!k) do
    incr k
  done;
  !k = Array.length a

(* opens entry [d.kd_count] for [key] (owned by the directory) with
   hash [h], and returns it *)
let add_entry d h (key : Value.t array) =
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
  d.kd_keys.(e) <- key;
  d.kd_hashes.(e) <- h;
  d.kd_next.(e) <- d.kd_heads.(b);
  d.kd_heads.(b) <- e;
  d.kd_count <- e + 1;
  e

(* the entry of [key]; a new one (numbered [kd_count] before the call)
   if [key] is absent *)
let find_or_add d (key : Value.t array) =
  let acc = ref 0x331 in
  for k = 0 to Array.length key - 1 do
    acc := (!acc * 0x01000193) lxor Value.hash key.(k)
  done;
  let h = mix !acc in
  let idx = ref d.kd_heads.(h land (Array.length d.kd_heads - 1)) in
  while
    !idx >= 0 && not (d.kd_hashes.(!idx) = h && same_key d.kd_cmp d.kd_keys.(!idx) key)
  do
    idx := d.kd_next.(!idx)
  done;
  if !idx >= 0 then !idx else add_entry d h (Array.copy key)

(* [Value.hash] of column [col] of live row [i], an INT chunk's unboxed *)
let[@inline] cell_hash b ~col i =
  if not (Batch.is_int b ~col) then Value.hash (Batch.value b ~col i)
  else if Batch.null_at b ~col i then Value.hash Value.Null
  else Value.hash_int (Batch.int_at b ~col i)

(* [v] equals column [col] of live row [i]; an INT chunk's value is
   boxed only to meet a stored key that is neither Int nor NULL *)
let[@inline] same_cell cmp (v : Value.t) b ~col i =
  if not (Batch.is_int b ~col) then same_value cmp v (Batch.value b ~col i)
  else if Batch.null_at b ~col i then Value.is_null v
  else
    match v with
    | Value.Int y -> y = Batch.int_at b ~col i
    | Value.Null -> false
    | v -> cmp v (Value.Int (Batch.int_at b ~col i)) = 0

let same_row cmp (key : Value.t array) b i (slots : int array) =
  let k = ref 0 in
  while !k < Array.length slots && same_cell cmp key.(!k) b ~col:slots.(!k) i do
    incr k
  done;
  !k = Array.length slots

(* combined [cell_hash] of the key [slots] of live row [i] of [b] *)
let row_hash b i (slots : int array) =
  let acc = ref 0x331 in
  for k = 0 to Array.length slots - 1 do
    acc := (!acc * 0x01000193) lxor cell_hash b ~col:slots.(k) i
  done;
  mix !acc

(* the entry whose key equals the key [slots] (of hash [h]) of live row
   [i] of [b], or -1: the one hash-and-compare loop of the join probe,
   GROUP BY and DISTINCT *)
let lookup_row d h b i (slots : int array) =
  let idx = ref d.kd_heads.(h land (Array.length d.kd_heads - 1)) in
  while
    !idx >= 0 && not (d.kd_hashes.(!idx) = h && same_row d.kd_cmp d.kd_keys.(!idx) b i slots)
  do
    idx := d.kd_next.(!idx)
  done;
  !idx

(* [lookup_row] without adding: a join probe *)
let find_row d b i (slots : int array) = lookup_row d (row_hash b i slots) b i slots

(* [find_or_add] of the key [slots] of live row [i] of [b], read in
   place: the key is boxed (through [scratch], of the key's length) only
   when it opens an entry *)
let find_or_add_row d b i (slots : int array) (scratch : Value.t array) =
  let h = row_hash b i slots in
  let e = lookup_row d h b i slots in
  if e >= 0 then e
  else begin
    for k = 0 to Array.length slots - 1 do
      scratch.(k) <- Batch.value b ~col:slots.(k) i
    done;
    add_entry d h (Array.copy scratch)
  end

(* whether [key] opened a new entry (it is in the directory either way) *)
let is_new d key =
  let fresh = d.kd_count in
  find_or_add d key = fresh

(* some column [slots] of live row [i] of [b] is NULL *)
let null_key b i (slots : int array) =
  let k = ref 0 in
  while !k < Array.length slots && not (Batch.null_at b ~col:slots.(!k) i) do
    incr k
  done;
  !k < Array.length slots

(* A hash/merge join's build side: a key directory over the inner's
   equi-columns, and per entry its inner rows in build order. *)
type join_side = { js_dir : key_dir; js_chains : Tuple.t list array }

(* An evaluate-on-demand plan's results, keyed by the exact
   representation of its bound parameter values.  Not by the key
   directory's [Value.compare]: a subquery can tell values apart that
   compare equal, such as [Int 1] from [Float 1.0] (1 / 2 against
   1.0 / 2), [Float (-0.0)] from [Float 0.0] (power(x, -1)), or two
   BOX payloads of -0 and 0 (when it returns the value). *)
module Demand_key = Hashtbl.Make (struct
  type t = Value.t list

  let same (a : Value.t) (b : Value.t) =
    match (a, b) with
    | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | _ -> a = b

  let equal = List.equal same
  let hash = Hashtbl.hash
end)

type ectx = {
  db : db;
  hosts : (string * Value.t) list;
  counters : counters;
  gov : Sb_resil.Limits.gov;  (** per-query resource governor *)
  mutable caches : (plan * Tuple.t list Demand_key.t) list;
      (** evaluate-on-demand results per materialized plan (by physical
          identity), keyed by its bound parameter values *)
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

let cache_for ectx (p : plan) =
  match List.find_opt (fun (q, _) -> q == p) ectx.caches with
  | Some (_, table) -> table
  | None ->
    let table = Demand_key.create 8 in
    ectx.caches <- (p, table) :: ectx.caches;
    table

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

(* [RCol c <cmp> k] with [k] a literal, host variable or parameter: the
   comparison the compiled predicates test without {!eval} *)
let const_compare = function
  | RBin
      ( ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
        RCol c,
        ((RLit _ | RHost _ | RParam _) as k) ) ->
    Some (op, c, k)
  | _ -> None

(* whether [op] holds of a comparison's result [c] *)
let holds op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Neq -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | _ -> c >= 0

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
    | Some f -> f.Functions.sf_eval (registry ectx) (List.map (eval ectx ~row ~params) args)
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
  let rows = demand_rows ectx spec.sub_plan bound in
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
  let rows = demand_rows ectx spec.ssub_plan bound in
  match rows with
  | [] -> Value.Null
  | [ r ] -> r.(0)
  | _ :: _ :: _ -> error "scalar subquery returned more than one row"

(** The uniform demand-driven materialization with correlation caching:
    [plan]'s rows are a function of [plan] and its [bound] parameters,
    so the cache is keyed by the plan's physical identity, then by the
    parameter values' exact representation ({!Demand_key}). *)
and demand_rows ectx (plan : plan) (bound : Value.t list) : Tuple.t list =
  if not ectx.db.x_demand_cache then begin
    ectx.counters.c_sub_evals <- ectx.counters.c_sub_evals + 1;
    collect ectx ~params:(Array.of_list bound) plan
  end
  else
  let table = cache_for ectx plan in
  match Demand_key.find_opt table bound with
  | Some rows ->
    ectx.counters.c_sub_cache_hits <- ectx.counters.c_sub_cache_hits + 1;
    rows
  | None ->
    ectx.counters.c_sub_evals <- ectx.counters.c_sub_evals + 1;
    let rows = collect ectx ~params:(Array.of_list bound) plan in
    Demand_key.replace table bound rows;
    rows

(* ------------------------------------------------------------------ *)
(* Operators                                                           *)
(* ------------------------------------------------------------------ *)

(** Runs [plan] to a list (materializes the stream). *)
and collect ectx ~params (plan : plan) : Tuple.t list =
  List.of_seq (stream ectx ~params plan)

(** Interprets [plan] as a lazy tuple sequence: its batches, unchunked
    into fresh rows. *)
and stream ectx ~params (p : plan) : Tuple.t Seq.t =
  Batch.to_seq (batches ectx ~params p)

(** Every operator instance: one operator-invocation charge per
    instantiation, one bulk intermediate-row charge per batch.  When
    analyzing, every operator is wrapped to count rows and batches and
    accumulate inclusive elapsed time. *)
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

and find_table ectx name =
  match Catalog.find_table ectx.db.x_cat name with
  | Some tab -> tab
  | None -> error "no such table %s" name

(* an index probe with its key expressions evaluated *)
and index_probe ectx ~params = function
  | Pr_eq es -> Access_method.Key_eq (Array.of_list (List.map (eval ectx ~row:[||] ~params) es))
  | Pr_range (lo, hi) ->
    let bound = Option.map (fun (e, incl) -> ([| eval ectx ~row:[||] ~params e |], incl)) in
    Access_method.Key_range { lo = bound lo; hi = bound hi }
  | Pr_custom (name, es) -> Access_method.Custom (name, List.map (eval ectx ~row:[||] ~params) es)

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
  match List.map (compile_pred ectx ~params) preds with
  | [] -> fun _ -> true
  | [ test ] -> test
  | tests -> fun row -> List.for_all (fun test -> test row) tests

and compile_pred ectx ~params e : Tuple.t -> bool =
  let generic row = bool3 (eval ectx ~row ~params e) = Some true in
  match const_compare e with
  | Some (op, c, k) ->
    let k = lazy (eval ectx ~row:[||] ~params k) in
    fun row ->
      if c >= Array.length row then generic row
      else (
        match (row.(c), Lazy.force k) with
        | Value.Int a, Value.Int b -> holds op (Int.compare a b)
        | Value.Float a, Value.Float b -> holds op (Float.compare a b)
        | Value.String a, Value.String b -> holds op (String.compare a b)
        | Value.Null, _ | _, Value.Null -> false
        | _ -> generic row)
  | None -> generic

(* The Scan's predicates over its sink (see {!scan_fields}): a constant
   comparison of an [Unboxed] INT column tests the unboxed value, so a
   rejected row allocates nothing; its constant is still resolved on
   the first row, and a constant other than Int or NULL goes through
   {!eval} on the boxed value.  Every other predicate is
   {!compile_pred}'s test of the sink's boxed row. *)
and compile_scan_preds ectx ~params (s : Row_codec.sink) preds : unit -> bool =
  let compile e =
    match const_compare e with
    | Some (op, c, k)
      when c < Array.length s.Row_codec.fields && s.Row_codec.fields.(c) = Row_codec.Unboxed ->
      let k = lazy (eval ectx ~row:[||] ~params k) in
      fun () ->
        let kv = Lazy.force k in
        if s.Row_codec.nulls.(c) then false
        else (
          match kv with
          | Value.Int b -> holds op (Int.compare s.Row_codec.ints.(c) b)
          | Value.Null -> false
          | _ ->
            s.Row_codec.row.(c) <- Value.Int s.Row_codec.ints.(c);
            bool3 (eval ectx ~row:s.Row_codec.row ~params e) = Some true)
    | _ ->
      let test = compile_pred ectx ~params e in
      fun () -> test s.Row_codec.row
  in
  match List.map compile preds with
  | [] -> fun () -> true
  | [ test ] -> test
  | tests -> fun () -> List.for_all (fun test -> test ()) tests

(* The Scan's field modes.  A column read by a predicate other than a
   constant comparison is [Boxed]; an INT column that is projected or
   only compared with constants is [Unboxed], unless the table holds
   fewer rows than a batch (its one batch saves little, and every
   downstream read would box again) or a predicate has a subquery (its
   rows are held past the page); every other column is [Boxed] if read
   and [Skip]ped if not. *)
and scan_fields tab ~defer (cols : int list) preds =
  let schema = tab.Table_store.schema in
  let n = Array.length schema in
  let fields = Array.make n Row_codec.Skip in
  let typed = (not defer) && Table_store.tuple_count tab >= Batch.capacity in
  let box c = if c < n then fields.(c) <- Row_codec.Boxed in
  let want c =
    if c < n && fields.(c) = Row_codec.Skip then
      fields.(c) <-
        (match schema.(c).Schema.col_type with
        | Datatype.Int when typed -> Row_codec.Unboxed
        | _ -> Row_codec.Boxed)
  in
  List.iter
    (fun e -> if Option.is_none (const_compare e) then List.iter box (slots_used e))
    preds;
  List.iter
    (fun e -> Option.iter (fun (_, c, _) -> want c) (const_compare e))
    preds;
  List.iter want cols;
  fields

(* ------------------------------------------------------------------ *)
(* Operator bodies                                                     *)
(* ------------------------------------------------------------------ *)

and input_batches ectx ~params p i = batches ectx ~params (List.nth p.inputs i)

(* drops batches that selection refinement emptied *)
and nonempty (s : Batch.t Seq.t) : Batch.t Seq.t =
  Seq.filter (fun b -> Batch.count b > 0) s

and op_batches ectx ~params (p : plan) : Batch.t Seq.t =
  match p.op with
  | Scan { sc_table; sc_cols; sc_preds } ->
    (* page at a time through the storage manager's scan primitive,
       decoding only the projected and predicate columns, INT columns
       unboxed where [scan_fields] says so *)
    let tab = find_table ectx sc_table in
    let cols = Array.of_list sc_cols in
    (* a subquery predicate runs after its page is unpinned, as the
       inner plan may itself scan *)
    let defer = List.exists rexpr_has_sub sc_preds in
    let sink = Row_codec.sink (scan_fields tab ~defer sc_cols sc_preds) in
    let test = compile_scan_preds ectx ~params sink sc_preds in
    let ints =
      Array.map
        (fun c -> c < Array.length sink.fields && sink.fields.(c) = Row_codec.Unboxed)
        cols
    in
    let em = Batch.emitter ~ints (Array.length cols) in
    let take _slot =
      ectx.counters.c_scanned <- ectx.counters.c_scanned + 1;
      if test () then Batch.push_sink em sink cols
    in
    let held = ref [] in
    let on_row = if defer then fun _ -> held := Array.copy sink.row :: !held else take in
    let npages = Table_store.page_count tab and next_page = ref 0 in
    Batch.produce em (fun () ->
        if !next_page >= npages then false
        else begin
          tab.Table_store.storage.Storage_manager.scan_page !next_page sink on_row;
          List.iter
            (fun r ->
              Array.blit r 0 sink.row 0 (Array.length r);
              take 0)
            (List.rev !held);
          held := [];
          incr next_page;
          true
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
          let n = Batch.count b in
          let out = next_out n in
          Batch.pad out n;
          out)
        (input_batches ectx ~params p 0)
    | Some cols ->
      Seq.map (fun b -> Batch.select b cols) (input_batches ectx ~params p 0)
    | None ->
      let scratch = Array.make (width (List.nth p.inputs 0)) Value.Null in
      let next_out = Batch.owner (Array.length exprs) in
      Seq.map
        (fun b ->
          let out = next_out (Batch.count b) in
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
    let seen = key_dir (registry ectx) in
    let slots = Array.init (width p) Fun.id in
    let key = Array.make (width p) Value.Null in
    nonempty
      (Seq.map
         (fun b ->
           Batch.keep b (fun i ->
               let fresh = seen.kd_count in
               find_or_add_row seen b i slots key = fresh);
           b)
         (input_batches ectx ~params p 0))
  | Union_all ->
    Seq.append (input_batches ectx ~params p 0) (input_batches ectx ~params p 1)
  | Intersect_op all -> setop_batches ectx ~params p ~all ~intersect:true
  | Except_op all -> setop_batches ectx ~params p ~all ~intersect:false
  | Temp ->
    let rows =
      demand_rows ectx (List.nth p.inputs 0) (Array.to_list params)
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
  | Idx_access { ix_table; ix_index; ix_probe; ix_cols; ix_preds } ->
    let tab = find_table ectx ix_table in
    ectx.counters.c_index_probes <- ectx.counters.c_index_probes + 1;
    fetch_batches ectx ~params tab ix_cols ix_preds
      (probe_search ectx (attachment tab ix_table ix_index)
         (index_probe ectx ~params ix_probe))
  | Idx_and { ia_table; ia_probes; ia_cols; ia_preds } ->
    let tab = find_table ectx ia_table in
    let rid_sets =
      List.map
        (fun (index, probe) ->
          ectx.counters.c_index_probes <- ectx.counters.c_index_probes + 1;
          List.of_seq
            (probe_search ectx (attachment tab ia_table index)
               (index_probe ectx ~params probe)))
        ia_probes
    in
    (* the smallest probe's rids, in its order, that every other
       probe also returned: one hash set per other probe *)
    let intersection =
      match List.sort (fun a b -> compare (List.length a) (List.length b)) rid_sets with
      | [] -> []
      | smallest :: rest ->
        let sets =
          List.map
            (fun rids ->
              let set = Hashtbl.create (List.length rids) in
              List.iter (fun rid -> Hashtbl.replace set rid ()) rids;
              set)
            rest
        in
        List.filter (fun rid -> List.for_all (fun set -> Hashtbl.mem set rid) sets) smallest
    in
    fetch_batches ectx ~params tab ia_cols ia_preds (List.to_seq intersection)
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
      Batch.of_seq ~width:(width p) (tf.Functions.tf_eval ~arg_tables ~arg_values))
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
    nonempty
      (Seq.map
         (fun b ->
           Batch.keep b (fun i ->
               let v = Batch.value b ~col:bl_subject_key i in
               (not (Value.is_null v)) && test (h1 v) && test (h2 v));
           b)
         (input_batches ectx ~params p 0))
  | Fixpoint { fx_distinct } ->
    Batch.of_rows ~width:(width p) (fixpoint_rows ectx ~params p ~distinct:fx_distinct)
  | Rec_delta _ -> (
    match ectx.deltas with
    | delta :: _ -> Batch.of_rows ~width:(width p) delta
    | [] -> error "recursive reference outside a fixpoint")

and attachment tab table index =
  match Table_store.find_attachment tab index with
  | Some am -> am
  | None -> error "index %s on %s disappeared" index table

(* Idx_access and Idx_and: fetch each rid's row, test the residual
   predicates (compiled once, as Scan and Filter do) and project the
   [cols] *)
and fetch_batches ectx ~params tab cols preds (rids : Storage_manager.rid Seq.t) =
  let test = compile_preds ectx ~params preds in
  let cols = Array.of_list cols in
  let em = Batch.emitter (Array.length cols) in
  let next = Seq.to_dispenser rids in
  Batch.produce em (fun () ->
      match next () with
      | None -> false
      | Some rid ->
        (match Table_store.fetch tab rid with
        | None -> ()
        | Some row ->
          ectx.counters.c_scanned <- ectx.counters.c_scanned + 1;
          if test row then Batch.push_cols em row cols);
        true)

and setop_batches ectx ~params (p : plan) ~all ~intersect : Batch.t Seq.t =
  let left = input_batches ectx ~params p 0 in
  let decide = setop_decider ectx ~params p ~all ~intersect in
  let key = Array.make (width p) Value.Null in
  nonempty
    (Seq.map
       (fun b ->
         Batch.keep b (fun i ->
             Batch.blit_row b i key;
             decide key);
         b)
       left)

(* Lazy SORT.  The input is gathered at instantiation into an array;
   the output order is a stable sort: by the keys, then by arrival.  The first pull selects
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
  (* stage 1 emits [first_batch], stage 2 (only if pulled) the rest *)
  let em = Batch.emitter (width p) in
  let run = ref [||] and pos = ref 0 and stage = ref 0 in
  Batch.produce em (fun () ->
      if !pos < Array.length !run then begin
        Batch.push em rows.((!run).(!pos));
        incr pos;
        true
      end
      else begin
        incr stage;
        if !stage = 1 then run := first_batch ()
        else if !stage = 2 then begin
          run := rest !run;
          pos := 0
        end;
        !stage <= 2
      end)

(* Aggregation.  Each row's aggregate arguments are read straight from
   the batch.  Hash aggregation looks a row's key up in place
   ({!find_or_add_row}); a group's key is boxed and copied only when the
   group opens.  Over key-ordered input ([g_sorted]) one group is open
   at a time: a row with a new key closes it, so output keeps the
   input's order and O(1) groups are held. *)
and group_batches ectx ~params (p : plan) : Batch.t Seq.t =
  let g_keys, g_aggs, g_sorted =
    match p.op with
    | Group { g_keys; g_aggs; g_sorted } -> (g_keys, g_aggs, g_sorted)
    | _ -> assert false
  in
  let aslots = agg_slots g_aggs in
  (* an INT chunk's argument steps unboxed where the aggregate can *)
  let step_aggs bank b i =
    for j = 0 to Array.length bank - 1 do
      let s = aslots.(j) in
      if s < 0 then bank.(j).Functions.agg_step Value.Null
      else if Batch.is_int b ~col:s then begin
        if not (Batch.null_at b ~col:s i) then
          match bank.(j).Functions.agg_step_int with
          | Some step -> step (Batch.int_at b ~col:s i)
          | None -> bank.(j).Functions.agg_step (Value.Int (Batch.int_at b ~col:s i))
      end
      else
        let v = Batch.value b ~col:s i in
        if not (Value.is_null v) then bank.(j).Functions.agg_step v
    done
  in
  let kslots = Array.of_list g_keys in
  let key = Array.make (Array.length kslots) Value.Null in
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
  else if g_sorted then begin
    let cmp = Value.compare ~registry:(registry ectx) in
    let em = Batch.emitter (width p) in
    let src = Seq.to_dispenser (input_batches ectx ~params p 0) in
    (* the open group: its key and bank *)
    let current = ref None in
    let close () =
      Option.iter (fun (k, bank) -> Batch.push em (agg_result_row k bank)) !current
    in
    Batch.produce em (fun () ->
        match src () with
        | None ->
          close ();
          false
        | Some b ->
          for i = 0 to Batch.count b - 1 do
            match !current with
            | Some (k, bank) when same_row cmp k b i kslots -> step_aggs bank b i
            | _ ->
              close ();
              let bank = make_agg_bank ectx g_aggs in
              step_aggs bank b i;
              current := Some (Array.init (Array.length kslots) (fun k ->
                  Batch.value b ~col:kslots.(k) i), bank)
          done;
          true)
  end
  else begin
    let groups = key_dir (registry ectx) in
    let banks = ref [||] in
    Seq.iter
      (fun b ->
        for i = 0 to Batch.count b - 1 do
          let fresh = groups.kd_count in
          let g = find_or_add_row groups b i kslots key in
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

(* --- joins --- *)

(* The build side of a hash/merge join, read from the inner's batches.
   A row whose key holds a NULL is skipped (SQL: NULL never joins); any
   other is copied once.  Only then, with the row count known, is the
   directory made at its final size, and each row's key (its own
   values, not boxed again) entered: a directory that grew while the
   inner streamed would reallocate its arrays as it doubled.  Rows are
   entered newest first and prepended to their entry's chain, so each
   chain lists its rows in build order. *)
and join_build ectx ~params inner (islots : int array) : join_side =
  let rows = ref [] and n = ref 0 in
  Seq.iter
    (fun b ->
      for i = 0 to Batch.count b - 1 do
        if not (null_key b i islots) then begin
          rows := Batch.get b i :: !rows;
          incr n
        end
      done)
    (batches ectx ~params inner);
  let dir = key_dir ~size:!n (registry ectx) in
  let chains = Array.make !n [] in
  let key = Array.make (Array.length islots) Value.Null in
  List.iter
    (fun row ->
      for k = 0 to Array.length islots - 1 do
        key.(k) <- row.(islots.(k))
      done;
      let e = find_or_add dir key in
      chains.(e) <- row :: chains.(e))
    !rows;
  { js_dir = dir; js_chains = chains }

(* The join: the outer a batch at a time, and per outer row the
   method's equi-matching inner rows, handed to the kind.  Hash and
   sort-merge look the outer row's key up, in place, in one key
   directory built over the inner ({!join_build}; sort-merge executes
   as a keyed lookup over the grouped inner, so the two methods agree
   on semantics and differ only in the optimizer's cost model); nested
   loop filters the inner's demand-driven materialization, re-evaluated
   per outer binding when the inner is parameter-bound, under the
   directory's equality. *)
and join_batches ectx ~params (p : plan) : Batch.t Seq.t =
  let j_method, j_kind, j_equi, j_pred, j_corr, j_bound, j_kind_pred =
    match p.op with
    | Join { j_method; j_kind; j_equi; j_pred; j_corr; j_bound; j_kind_pred } ->
      (j_method, j_kind, j_equi, j_pred, j_corr, j_bound, j_kind_pred)
    | _ -> assert false
  in
  let inner = List.nth p.inputs 1 in
  let inner_width = Array.length inner.props.p_slots in
  (* partial application shares one [Some reg] across all probes *)
  let cmp = Value.compare ~registry:(registry ectx) in
  (* reused per-probe outer row: every consumer below copies its values
     out before the next probe overwrites it *)
  let scratch = Array.make (width (List.nth p.inputs 0)) Value.Null in
  (* [iter_matches b i ~row f] calls [f] on the inner rows whose
     equi-columns match live row [i] of the outer batch [b], in emission
     (build) order; with [row], [scratch] holds the outer row whenever
     [f] is called *)
  let iter_matches =
    match j_method with
    | Nested_loop ->
      fun b i ~row:_ f ->
        Batch.blit_row b i scratch;
        let o = scratch in
        (* a parameter-bound inner owns its parameter space: bind its
           params positionally from the correlation sources; an unbound
           inner shares the enclosing parameter space *)
        let bound =
          if j_bound then List.map (fun e -> eval ectx ~row:o ~params e) j_corr
          else Array.to_list params
        in
        List.iter
          (fun i ->
            (* the directory's equality; [same_value] never equates
               NULL with a value, so a NULL outer key matches nothing *)
            if
              List.for_all
                (fun (oslot, islot) ->
                  (not (Value.is_null o.(oslot))) && same_value cmp o.(oslot) i.(islot))
                j_equi
            then f i)
          (demand_rows ectx inner bound)
    | Hash_join | Sort_merge ->
      let oslots = Array.of_list (List.map fst j_equi) in
      let islots = Array.of_list (List.map snd j_equi) in
      (* built on the first outer row: an empty outer never evaluates
         the inner.  A parameter-bound inner (STAR offers these methods
         only for an uncorrelated one) is built once too. *)
      let side = lazy (join_build ectx ~params inner islots) in
      fun b i ~row f ->
        let s = Lazy.force side in
        (* the outer key is read in place, and the outer row is boxed
           only when it matches and [row] asks.  No entry holds a NULL,
           so an outer NULL key matches nothing. *)
        let e = find_row s.js_dir b i oslots in
        if e >= 0 then begin
          if row then Batch.blit_row b i scratch;
          List.iter f s.js_chains.(e)
        end
  in
  let em = Batch.emitter (width p) in
  let inners = ref [] in
  let gather i = inners := i :: !inners in
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
  let no_preds = j_pred = None && j_kind_pred = None in
  let filtered i =
    let row = Array.append scratch i in
    if pred_true row && kind_truth row = Some true then Batch.push em row
  in
  (* the outer batch and its row being probed *)
  let cur = ref None and pos = ref 0 in
  (* one closure per join, not one per probed row *)
  let emit inner =
    match !cur with Some b -> Batch.push_from em b !pos inner | None -> ()
  in
  let probe_row b i =
    match j_kind with
    | J_regular when no_preds ->
      (* the hot path: no residual predicate, so the outer row and its
         match go straight from the batch into the output columns, INT
         chunks unboxed *)
      iter_matches b i ~row:false emit
    | J_regular -> iter_matches b i ~row:true filtered
    | _ ->
      (* the kind sees materialized tuples, and quantified/extension
         kinds may emit the outer tuple itself: hand them one they can
         own *)
      inners := [];
      iter_matches b i ~row:true gather;
      List.iter (Batch.push em)
        (join_emit ectx ~j_kind ~pred_true ~kind_truth ~inner_width
           (Batch.get b i) (List.rev !inners))
  in
  (* a step probes outer rows until a batch is full, so at most one
     outer row's matches are buffered past it and the governor's
     per-batch charge bounds a fan-out join *)
  let src = Seq.to_dispenser (input_batches ectx ~params p 0) in
  let rec step () =
    match !cur with
    | Some b when !pos < Batch.count b ->
      let n = Batch.count b in
      while !pos < n && not (Batch.filled em) do
        probe_row b !pos;
        incr pos
      done;
      true
    | _ -> (
      match src () with
      | None -> false
      | Some b ->
        (* the hot path's output takes the first outer batch's INT
           chunks *)
        (match (!cur, j_kind) with
        | None, J_regular when no_preds ->
          let wa = Array.length scratch in
          Batch.reshape em (Array.init (width p) (fun k -> k < wa && Batch.is_int b ~col:k))
        | _ -> ());
        cur := Some b;
        pos := 0;
        step ())
  in
  Batch.produce em step

(** The join-kind dispatch: given one outer tuple and its equi-matched
    inner tuples, produce the output rows.  Kinds always see
    materialized tuples, so extension kinds never see a batch.  The
    regular kind never gets here: {!join_batches} pushes its rows
    directly. *)
and join_emit ectx ~j_kind ~pred_true ~kind_truth ~inner_width
    (o : Tuple.t) (inners : Tuple.t list) : Tuple.t list =
  let combined i = Array.append o i in
  match j_kind with
  | J_regular -> assert false
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
             let seen = key_dir (registry ectx) and key = [| Value.Null |] in
             {
               inst with
               Functions.agg_step =
                 (fun v ->
                   key.(0) <- v;
                   if is_new seen key then inst.Functions.agg_step v);
               agg_step_int = None;
             })
       g_aggs)

(* each aggregate's argument slot; -1 for a row count *)
and agg_slots g_aggs =
  Array.of_list
    (List.map (fun (_, _, slot) -> Option.value ~default:(-1) slot) g_aggs)

and agg_result_row (key : Value.t array) (bank : Functions.agg_instance array) =
  Array.append key (Array.map (fun a -> a.Functions.agg_result ()) bank)

(* --- set operations --- *)

(* counts the right input into a multiset and returns the left-row
   admission test (stateful: ALL variants consume right counts, non-ALL
   variants emit each key once).  One directory holds every key seen on
   either side; an entry's count is its remaining right-side
   multiplicity, or -1 once a non-ALL variant has emitted it. *)
and setop_decider ectx ~params (p : plan) ~all ~intersect : Tuple.t -> bool =
  let dir = key_dir (registry ectx) and counts = ref [||] in
  let entry row =
    let e = find_or_add dir row in
    if e >= Array.length !counts then counts := grown !counts 0;
    e
  in
  List.iter
    (fun row ->
      let e = entry row in
      (!counts).(e) <- (!counts).(e) + 1)
    (collect ectx ~params (List.nth p.inputs 1));
  fun row ->
    let e = entry row in
    let rc = (!counts).(e) in
    if all then begin
      if rc > 0 then (!counts).(e) <- rc - 1;
      (rc > 0) = intersect
    end
    else begin
      let keep = rc >= 0 && (rc > 0) = intersect in
      if keep then (!counts).(e) <- -1;
      keep
    end

(* --- recursion --- *)

(* Semi-naive evaluation: each round runs the step over the previous
   round's new rows.  UNION ([distinct]) keeps a row only on its first
   appearance; UNION ALL keeps every row.  A cycle under UNION ALL never
   runs dry: the governor's per-row charge bounds it. *)
and fixpoint_rows ectx ~params (p : plan) ~distinct : Tuple.t list =
  let seed = List.nth p.inputs 0 and step = List.nth p.inputs 1 in
  let seen = key_dir (registry ectx) in
  let acc = ref [] in
  let add rows =
    List.filter
      (fun row ->
        let keep = (not distinct) || is_new seen row in
        if keep then acc := row :: !acc;
        keep)
      rows
  in
  let delta = ref (add (collect ectx ~params seed)) in
  while !delta <> [] do
    ectx.counters.c_fixpoint_rounds <- ectx.counters.c_fixpoint_rounds + 1;
    ectx.deltas <- !delta :: ectx.deltas;
    let produced = collect ectx ~params step in
    ectx.deltas <- List.tl ectx.deltas;
    (* the step's demand caches are invalid across rounds because the
       delta changed: clear caches scoped under the step *)
    ectx.caches <- [];
    delta := add produced
  done;
  List.rev !acc

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
