(** The reference evaluator over canonical QGM.  See reference.mli. *)

open Sb_storage
module Ast = Sb_hydrogen.Ast
module Functions = Sb_hydrogen.Functions
module Qgm = Sb_qgm.Qgm
module Err = Sb_resil.Err
module Limits = Sb_resil.Limits

type outcome = Rows of Tuple.t list | Failed of Err.t | Unsupported of string

exception Unsupported_shape of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported_shape s)) fmt
let error fmt = Fmt.kstr (fun s -> raise (Err.Error (Err.make Err.Exec s))) fmt

(* bound quantifier rows, innermost first: the current row of every
   setformer in scope, including those of enclosing boxes (correlation) *)
type env = (Qgm.quant_id * Tuple.t) list

(* what evaluation needs to know of a box, computed once per query *)
type facts = {
  free : Qgm.quant_id list;  (** references to quantifiers outside [sub] *)
  sub : Qgm.box_id list;  (** boxes reachable through range edges *)
  recursive : bool;  (** on a range-edge cycle *)
  closed : bool;  (** no free references and no recursion below *)
}

type ctx = {
  db : Starburst.t;
  g : Qgm.t;
  cmp : Value.t -> Value.t -> int;
  gov : Limits.gov;
  facts : (Qgm.box_id * facts) list;
  mutable memo : (Qgm.box_id * Tuple.t list) list;  (** rows of closed boxes *)
  mutable deltas : (Qgm.box_id * Tuple.t list) list;  (** active fixpoints' last rounds *)
}

(* ------------------------------------------------------------------ *)
(* Values: three-valued logic, arithmetic, LIKE, row equality          *)
(* ------------------------------------------------------------------ *)

let truth = function
  | Value.Null -> None
  | Value.Bool b -> Some b
  | v -> error "boolean expected, got %s" (Value.to_string v)

let of_truth = function None -> Value.Null | Some b -> Value.Bool b

(* [d] if any truth is [d], else unknown if any is, else [not d]: AND
   and ALL decide on FALSE, OR and EXISTS on TRUE *)
let decide d truths =
  if List.mem (Some d) truths then Some d
  else if List.mem None truths then None
  else Some (not d)

(* INT op INT is INT, with any FLOAT it is FLOAT; dividing by zero is NULL *)
let arith op a b =
  match op, a, b with
  | Ast.Add, Value.Int x, Value.Int y -> Value.Int (x + y)
  | Ast.Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
  | Ast.Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
  | (Ast.Div | Ast.Mod), Value.Int _, Value.Int 0 -> Value.Null
  | Ast.Div, Value.Int x, Value.Int y -> Value.Int (x / y)
  | Ast.Mod, Value.Int x, Value.Int y -> Value.Int (x mod y)
  | _, (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) -> (
    let x = Value.as_float a and y = Value.as_float b in
    match op with
    | Ast.Add -> Value.Float (x +. y)
    | Ast.Sub -> Value.Float (x -. y)
    | Ast.Mul -> Value.Float (x *. y)
    | Ast.Div -> if y = 0.0 then Value.Null else Value.Float (x /. y)
    | _ -> Value.Float (Float.rem x y))
  | _ -> error "arithmetic over %s and %s" (Value.to_string a) (Value.to_string b)

(* SQL LIKE: [%] any run, [_] any one character *)
let like pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec at i j =
    if i = np then j = ns
    else
      match pattern.[i] with
      | '%' -> at (i + 1) j || (j < ns && at i (j + 1))
      | '_' -> j < ns && at (i + 1) (j + 1)
      | c -> j < ns && s.[j] = c && at (i + 1) (j + 1)
  in
  at 0 0

let compare_rows ctx (a : Tuple.t) (b : Tuple.t) =
  let rec go i =
    if i >= Array.length a then 0
    else
      let c = ctx.cmp a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* the first occurrence of every distinct [key x], in input order: a
   stable sort brings equal keys together, lowest position first *)
let dedup ctx (key : 'a -> Tuple.t) (xs : 'a list) : 'a list =
  let sorted =
    List.stable_sort
      (fun (_, a) (_, b) -> compare_rows ctx (key a) (key b))
      (List.mapi (fun i x -> (i, x)) xs)
  in
  let rec firsts prev acc = function
    | [] -> acc
    | (i, x) :: rest -> (
      match prev with
      | Some p when compare_rows ctx (key p) (key x) = 0 -> firsts prev acc rest
      | _ -> firsts (Some x) ((i, x) :: acc) rest)
  in
  firsts None [] sorted
  |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
  |> List.map snd

(* ------------------------------------------------------------------ *)
(* Graph facts                                                         *)
(* ------------------------------------------------------------------ *)

let kind_exprs (b : Qgm.box) =
  match b.Qgm.b_kind with
  | Qgm.Group_by keys -> keys
  | Qgm.Values_box rows -> List.concat rows
  | Qgm.Table_fn (_, args) -> args
  | _ -> []

let box_exprs (b : Qgm.box) =
  List.filter_map (fun hc -> hc.Qgm.hc_expr) b.Qgm.b_head
  @ List.map (fun p -> p.Qgm.p_expr) b.Qgm.b_preds
  @ List.map fst b.Qgm.b_order @ kind_exprs b

(* the boxes reachable from [id] through range edges, [id] included *)
let subtree g id =
  let rec visit seen id =
    if List.mem id seen then seen
    else
      List.fold_left (fun seen q -> visit seen q.Qgm.q_input) (id :: seen)
        (Qgm.box g id).Qgm.b_quants
  in
  visit [] id

let facts_of g id =
  let sub = subtree g id in
  let boxes = List.map (Qgm.box g) sub in
  let owned = List.concat_map (fun b -> List.map (fun q -> q.Qgm.q_id) b.Qgm.b_quants) boxes in
  let free =
    List.concat_map (fun b -> List.concat_map Qgm.quant_refs (box_exprs b)) boxes
    |> List.filter (fun q -> not (List.mem q owned))
  in
  { free; sub; recursive = Qgm.is_recursive g id;
    closed = free = [] && not (List.exists (Qgm.is_recursive g) sub) }

let facts ctx id = List.assoc id ctx.facts

(* the setformers of [b] that [e] depends on, directly or through the
   correlation of a subquery it consumes *)
let needs ctx (b : Qgm.box) e =
  let mine = List.map (fun q -> q.Qgm.q_id) (Qgm.setformers b) in
  List.concat_map
    (fun qid ->
      if List.mem qid mine then [ qid ]
      else
        match List.find_opt (fun q -> q.Qgm.q_id = qid) b.Qgm.b_quants with
        | Some q -> List.filter (fun r -> List.mem r mine) (facts ctx q.Qgm.q_input).free
        | None -> [])
    (Qgm.quant_refs e)
  |> List.sort_uniq Int.compare

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* [group]: the rows of the group an [Agg] folds over, with the
   quantifier they bind *)
let rec eval ctx (env : env) ?group (e : Qgm.expr) : Value.t =
  let ev = eval ctx env ?group in
  match e with
  | Qgm.Lit v -> v
  | Qgm.Col (q, i) -> column ctx env q i
  | Qgm.Host h -> (
    match List.assoc_opt h ctx.db.Starburst.hosts with
    | Some v -> v
    | None -> error "host variable :%s is not bound" h)
  | Qgm.Bin (((Ast.And | Ast.Or) as op), a, b) ->
    let a = truth (ev a) in
    let b = truth (ev b) in
    of_truth (decide (op = Ast.Or) [ a; b ])
  | Qgm.Bin (op, a, b) -> (
    let a = ev a in
    let b = ev b in
    if Value.is_null a || Value.is_null b then Value.Null
    else
      let holds test = Value.Bool (test (ctx.cmp a b) 0) in
      match op with
      | Ast.Eq -> holds ( = )
      | Ast.Neq -> holds ( <> )
      | Ast.Lt -> holds ( < )
      | Ast.Le -> holds ( <= )
      | Ast.Gt -> holds ( > )
      | Ast.Ge -> holds ( >= )
      | Ast.Concat -> Value.String (Value.to_string a ^ Value.to_string b)
      | op -> arith op a b)
  | Qgm.Un (Ast.Neg, a) -> (
    match ev a with
    | Value.Null -> Value.Null
    | Value.Int x -> Value.Int (-x)
    | Value.Float x -> Value.Float (-.x)
    | v -> error "cannot negate %s" (Value.to_string v))
  | Qgm.Un (Ast.Not, a) -> of_truth (Option.map not (truth (ev a)))
  | Qgm.Fun (name, args) -> (
    match Functions.find_scalar ctx.db.Starburst.functions name with
    | Some f ->
      f.Functions.sf_eval ctx.db.Starburst.catalog.Catalog.datatypes (List.map ev args)
    | None -> error "unknown function %s" name)
  | Qgm.Agg (name, distinct, arg) -> aggregate ctx env group name distinct arg
  | Qgm.Case (arms, els) -> (
    match List.find_opt (fun (c, _) -> truth (ev c) = Some true) arms with
    | Some (_, v) -> ev v
    | None -> Option.fold ~none:Value.Null ~some:ev els)
  | Qgm.Is_null a -> Value.Bool (Value.is_null (ev a))
  | Qgm.Like (a, pattern) -> (
    match ev a with
    | Value.Null -> Value.Null
    | v -> Value.Bool (like pattern (Value.as_string v)))
  | Qgm.Quantified (q, p) -> of_truth (quantified ctx env q p)

and column ctx env q i =
  match List.assoc_opt q env with
  | Some row -> row.(i)
  | None -> (
    let qu = Qgm.quant ctx.g q in
    match qu.Qgm.q_type, box_rows ctx env qu.Qgm.q_input with
    | Qgm.S, [] -> Value.Null
    | Qgm.S, [ row ] -> row.(i)
    | Qgm.S, _ -> error "scalar subquery returned more than one row"
    | t, _ -> unsupported "column of an unbound %s quantifier" (Qgm.quant_type_name t))

(* E: some row makes [p] TRUE; A: no row makes it FALSE; a set predicate
   folds every row's truth.  Every row is tested. *)
and quantified ctx env q p =
  let qu = Qgm.quant ctx.g q in
  let truths =
    List.map (fun r -> truth (eval ctx ((q, r) :: env) p)) (box_rows ctx env qu.Qgm.q_input)
  in
  match qu.Qgm.q_type with
  | Qgm.E -> decide true truths
  | Qgm.A -> decide false truths
  | Qgm.SP name -> (
    match Functions.find_set_predicate ctx.db.Starburst.functions name with
    | Some f -> f.Functions.spf_combine (List.to_seq truths)
    | None -> error "unknown set predicate %s" name)
  | t -> unsupported "quantified predicate over a %s quantifier" (Qgm.quant_type_name t)

(* steps a fresh instance on every non-NULL argument (on every row for
   count-star), on first occurrences only when DISTINCT *)
and aggregate ctx env group name distinct arg =
  match group, Functions.find_aggregate ctx.db.Starburst.functions name with
  | None, _ -> unsupported "aggregate %s outside a GROUP BY head" name
  | _, None -> error "unknown aggregate %s" name
  | Some (gq, rows), Some f ->
    let args =
      match arg with
      | None -> List.map (fun _ -> Value.Null) rows
      | Some a ->
        List.map (fun r -> eval ctx ((gq, r) :: env) a) rows
        |> List.filter (fun v -> not (Value.is_null v))
    in
    let args = if distinct then dedup ctx (fun v -> [| v |]) args else args in
    let inst = f.Functions.af_make ctx.db.Starburst.catalog.Catalog.datatypes in
    List.iter inst.Functions.agg_step args;
    inst.Functions.agg_result ()

(* ------------------------------------------------------------------ *)
(* Boxes                                                               *)
(* ------------------------------------------------------------------ *)

and box_rows ctx env id : Tuple.t list =
  match List.assoc_opt id ctx.deltas with
  | Some delta -> delta
  | None -> (
    match List.assoc_opt id ctx.memo with
    | Some rows -> rows
    | None ->
      let f = facts ctx id in
      let b = Qgm.box ctx.g id in
      (* a box on the cycle of an active fixpoint reads its delta; a
         newly reached recursive box starts a fixpoint *)
      let active = List.exists (fun (r, _) -> List.mem r f.sub) ctx.deltas in
      let rows = if f.recursive && not active then fixpoint ctx env b else box_body ctx env b in
      List.iter (fun _ -> Limits.charge_row ctx.gov) rows;
      if f.closed then ctx.memo <- (id, rows) :: ctx.memo;
      rows)

and head_row ctx env ?group (b : Qgm.box) =
  Array.of_list
    (List.map
       (fun hc ->
         match hc.Qgm.hc_expr with
         | Some e -> eval ctx env ?group e
         | None -> unsupported "box %d: head column without an expression" b.Qgm.b_id)
       b.Qgm.b_head)

and box_body ctx env (b : Qgm.box) =
  match b.Qgm.b_kind with
  | Qgm.Base_table name -> (
    match Catalog.find_table ctx.db.Starburst.catalog name with
    | Some tab -> List.of_seq (Seq.map snd (Table_store.scan tab))
    | None -> error "no such table %s" name)
  | Qgm.Select -> select ctx env b
  | Qgm.Group_by keys when b.Qgm.b_preds = [] && b.Qgm.b_order = [] -> group_by ctx env b keys
  | Qgm.Set_op (op, all) -> set_op ctx env b op all
  | Qgm.Values_box rows ->
    List.map (fun row -> Array.of_list (List.map (eval ctx env) row)) rows
  | Qgm.Group_by _ | Qgm.Table_fn _ | Qgm.Choose | Qgm.Ext_op _ ->
    unsupported "box %d (%s)" b.Qgm.b_id b.Qgm.b_label

(* A SELECT box: nested loops over its setformers in quantifier order.
   A predicate on one setformer alone is tested on every row of it
   first; the others are tested as soon as their setformers are bound.
   Under a PF (preserve) setformer every other predicate is a join
   condition: a preserved row no combination satisfies is kept once,
   with the other setformers bound to NULL rows. *)
and select ctx env (b : Qgm.box) =
  let sfs = Qgm.setformers b in
  let pfs, fs = List.partition (fun q -> q.Qgm.q_type = Qgm.Ext "PF") sfs in
  if List.exists (fun q -> q.Qgm.q_type <> Qgm.F) fs then unsupported "extension setformer";
  let preds = List.map (fun p -> (p.Qgm.p_expr, needs ctx b p.Qgm.p_expr)) b.Qgm.b_preds in
  (* every predicate is evaluated: no short circuit *)
  let all_hold env es =
    List.fold_left (fun ok e -> truth (eval ctx env e) = Some true && ok) true es
  in
  let single q (_, ns) = ns = [ q.Qgm.q_id ] in
  let rows_of q =
    let mine = List.filter_map (fun p -> if single q p then Some (fst p) else None) preds in
    List.filter (fun r -> all_hold ((q.Qgm.q_id, r) :: env) mine) (box_rows ctx env q.Qgm.q_input)
  in
  let rest = List.filter (fun p -> not (List.exists (fun q -> single q p) fs)) preds in
  let inputs = List.map (fun q -> (q, rows_of q)) fs in
  (* bindings of [inputs]; [at k]: the predicates to test once the first
     k are bound *)
  let rec loop env k at inputs =
    if not (all_hold env (at k)) then []
    else
      match inputs with
      | [] -> [ env ]
      | (q, rows) :: more ->
        List.concat_map (fun r -> loop ((q.Qgm.q_id, r) :: env) (k + 1) at more) rows
  in
  let bindings =
    match pfs with
    | [] ->
      let bound_after = List.mapi (fun i q -> (q.Qgm.q_id, i + 1)) fs in
      let level (_, ns) = List.fold_left (fun m q -> max m (List.assoc q bound_after)) 0 ns in
      loop env 0 (fun k -> List.filter_map (fun p -> if level p = k then Some (fst p) else None) rest) inputs
    | [ pf ] ->
      let n = List.length fs in
      let at k = if k = n then List.map fst rest else [] in
      let null_row q = Array.make (Qgm.arity (Qgm.box ctx.g q.Qgm.q_input)) Value.Null in
      List.concat_map
        (fun r ->
          let env = (pf.Qgm.q_id, r) :: env in
          match loop env 0 at inputs with
          | [] -> [ List.fold_left (fun env q -> (q.Qgm.q_id, null_row q) :: env) env fs ]
          | matches -> matches)
        (box_rows ctx env pf.Qgm.q_input)
    | _ -> unsupported "outer join with %d preserved setformers" (List.length pfs)
  in
  finish ctx b
    (List.map (fun env -> (head_row ctx env b, List.map (fun (e, _) -> eval ctx env e) b.Qgm.b_order)) bindings)

(* DISTINCT, then ORDER BY (stable), then LIMIT *)
and finish ctx (b : Qgm.box) rows =
  let rows = if b.Qgm.b_distinct then dedup ctx fst rows else rows in
  let rec by ka kb dirs =
    match ka, kb, dirs with
    | x :: ka, y :: kb, (_, dir) :: dirs ->
      let c = ctx.cmp x y in
      if c <> 0 then if dir = Ast.Desc then -c else c else by ka kb dirs
    | _ -> 0
  in
  let rows = List.stable_sort (fun (_, a) (_, c) -> by a c b.Qgm.b_order) rows |> List.map fst in
  match b.Qgm.b_limit with Some n -> List.filteri (fun i _ -> i < n) rows | None -> rows

(* groups by a stable sort on the key values; with no keys, one group,
   even over no rows *)
and group_by ctx env (b : Qgm.box) keys =
  let gq = match b.Qgm.b_quants with [ q ] -> q | _ -> unsupported "GROUP BY arity" in
  let bind r = (gq.Qgm.q_id, r) :: env in
  let input = box_rows ctx env gq.Qgm.q_input in
  let keyed = List.map (fun r -> (Array.of_list (List.map (eval ctx (bind r)) keys), r)) input in
  let groups =
    if keys = [] then [ input ]
    else
      List.fold_left
        (fun acc (k, r) ->
          match acc with
          | (k', rows) :: more when compare_rows ctx k k' = 0 -> (k', r :: rows) :: more
          | _ -> (k, [ r ]) :: acc)
        []
        (List.stable_sort (fun (a, _) (b, _) -> compare_rows ctx a b) keyed)
      |> List.rev_map (fun (_, rows) -> List.rev rows)
  in
  let null_row = Array.make (Qgm.arity (Qgm.box ctx.g gq.Qgm.q_input)) Value.Null in
  List.map
    (fun rows ->
      let first = match rows with r :: _ -> r | [] -> null_row in
      head_row ctx (bind first) ~group:(gq.Qgm.q_id, rows) b)
    groups

(* bag semantics by nested loops: INTERSECT/EXCEPT ALL consume a right
   row per match; the DISTINCT variants dedup afterwards *)
and set_op ctx env (b : Qgm.box) op all =
  let l, r = match Qgm.setformers b with [ l; r ] -> (l, r) | _ -> unsupported "set operation arity" in
  let left = box_rows ctx env l.Qgm.q_input and right = box_rows ctx env r.Qgm.q_input in
  let rows =
    match op with
    | Ast.Union -> left @ right
    | Ast.Intersect | Ast.Except ->
      let remaining = ref right in
      let take row =
        let rec go = function
          | [] -> None
          | x :: rest when compare_rows ctx x row = 0 -> Some rest
          | x :: rest -> Option.map (fun rest -> x :: rest) (go rest)
        in
        match go !remaining with
        | Some rest -> if all then remaining := rest; true
        | None -> false
      in
      List.filter (fun row -> take row = (op = Ast.Intersect)) left
  in
  if all then rows else dedup ctx Fun.id rows

(* WITH RECURSIVE: an identity box over [seed UNION step], evaluated
   semi-naively — each round runs the step arms over the last round's
   new rows.  UNION keeps a row on its first appearance only; UNION ALL
   keeps every row. *)
and fixpoint ctx env (b : Qgm.box) =
  match b.Qgm.b_kind, b.Qgm.b_quants with
  | Qgm.Select, [ uq ] -> (
    let u = Qgm.box ctx.g uq.Qgm.q_input in
    match u.Qgm.b_kind with
    | Qgm.Set_op (Ast.Union, all) ->
      let seeds, steps =
        List.partition
          (fun a -> not (List.mem b.Qgm.b_id (facts ctx a.Qgm.q_input).sub))
          (Qgm.setformers u)
      in
      if seeds = [] || steps = [] then unsupported "recursion without a seed or a step";
      let arms arms = List.concat_map (fun a -> box_rows ctx env a.Qgm.q_input) arms in
      let fresh acc rows =
        if all then rows
        else
          dedup ctx Fun.id rows
          |> List.filter (fun r -> not (List.exists (fun a -> compare_rows ctx r a = 0) acc))
      in
      let rec rounds acc delta =
        if delta = [] then acc
        else begin
          ctx.deltas <- (b.Qgm.b_id, delta) :: ctx.deltas;
          let produced =
            Fun.protect ~finally:(fun () -> ctx.deltas <- List.tl ctx.deltas) (fun () -> arms steps)
          in
          let delta = fresh acc produced in
          rounds (acc @ delta) delta
        end
      in
      let first = fresh [] (arms seeds) in
      List.map (fun r -> head_row ctx ((uq.Qgm.q_id, r) :: env) b) (rounds first first)
    | _ -> unsupported "recursion through a %s box" u.Qgm.b_label)
  | _ -> unsupported "recursive box %d is not an identity over a UNION" b.Qgm.b_id

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run (db : Starburst.t) (text : string) : outcome =
  match
    let g = Starburst.build_qgm db (Starburst.parse db text) in
    let ctx =
      {
        db;
        g;
        cmp = Value.compare ~registry:db.Starburst.catalog.Catalog.datatypes;
        gov = Limits.start (Starburst.limits db);
        facts = List.map (fun b -> (b.Qgm.b_id, facts_of g b.Qgm.b_id)) (Qgm.reachable_boxes g);
        memo = [];
        deltas = [];
      }
    in
    box_rows ctx [] g.Qgm.top
  with
  | rows -> Rows rows
  | exception Unsupported_shape msg -> Unsupported msg
  | exception Err.Error e -> Failed e
  | exception exn -> (
    match Starburst.classify_exn text exn with
    | Some (Starburst.Error e) -> Failed e
    | _ -> Failed (Err.make Err.Internal ("reference: " ^ Printexc.to_string exn)))
