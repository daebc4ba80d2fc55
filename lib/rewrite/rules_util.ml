(** Shared helpers for writing rewrite rules ("a rich set of primitives
    for manipulating query graphs"). *)

module Qgm = Sb_qgm.Qgm
module Ast = Sb_hydrogen.Ast

(** The single quantifier ranging over box [id], if exactly one. *)
let single_user g id =
  match Qgm.users_of_box g id with [ q ] -> Some q | _ -> None

let has_single_user g id = single_user g id <> None

(** All setformers of [b] are plain F (no extension setformer such as
    PF) — the conservative condition base rules use so they cannot
    misfire on extension operations. *)
let plain_setformers (b : Qgm.box) =
  List.for_all
    (fun q ->
      match q.Qgm.q_type with
      | Qgm.F | Qgm.E | Qgm.A | Qgm.S | Qgm.SP _ -> true
      | Qgm.Ext _ -> false)
    b.Qgm.b_quants

(** A box whose body may both give away and absorb predicates. *)
let is_plain_select g (b : Qgm.box) =
  b.Qgm.b_kind = Qgm.Select
  && b.Qgm.b_limit = None
  && (not (Qgm.is_recursive g b.Qgm.b_id))
  && plain_setformers b

(** Rewrites [e], replacing references through quantifier [q] by the
    head expressions of the box [q] ranges over.  Returns [None] when a
    referenced head column has no expression (base tables etc.). *)
let inline_through g (q : Qgm.quant) (e : Qgm.expr) : Qgm.expr option =
  let l = Qgm.box g q.Qgm.q_input in
  let exception No_expr in
  try
    Some
      (Qgm.subst_cols
         (fun qid i ->
           if qid = q.Qgm.q_id then
             match (Qgm.head_col l i).Qgm.hc_expr with
             | Some he -> Some he
             | None -> raise No_expr
           else None)
         e)
  with No_expr -> None

(** Replaces every reference to [old_q] column [i] across the whole
    graph using [subst], covering correlated references from nested
    boxes. *)
let subst_everywhere g (subst : Qgm.quant_id -> int -> Qgm.expr option) =
  let rewrite e = Qgm.subst_cols subst e in
  Hashtbl.iter
    (fun _ (b : Qgm.box) ->
      b.Qgm.b_head <-
        List.map
          (fun hc -> { hc with Qgm.hc_expr = Option.map rewrite hc.Qgm.hc_expr })
          b.Qgm.b_head;
      List.iter (fun p -> p.Qgm.p_expr <- rewrite p.Qgm.p_expr) b.Qgm.b_preds;
      b.Qgm.b_order <- List.map (fun (e, d) -> (rewrite e, d)) b.Qgm.b_order;
      b.Qgm.b_kind <-
        (match b.Qgm.b_kind with
        | Qgm.Group_by keys -> Qgm.Group_by (List.map rewrite keys)
        | Qgm.Values_box rows -> Qgm.Values_box (List.map (List.map rewrite) rows)
        | Qgm.Table_fn (n, args) -> Qgm.Table_fn (n, List.map rewrite args)
        | k -> k))
    g.Qgm.boxes

(** Does any expression anywhere reference column [i] of quantifier
    [qid]? *)
let col_used_anywhere g qid i =
  let used = ref false in
  let check e =
    List.iter (fun (q, j) -> if q = qid && j = i then used := true) (Qgm.col_refs e)
  in
  Hashtbl.iter (fun _ b -> Qgm.iter_box_exprs check b) g.Qgm.boxes;
  !used

(** Is quantifier [qid] referenced by any [Quantified] node other than
    possibly [except]? *)
let quantified_uses g qid =
  let count = ref 0 in
  let check e =
    ignore
      (Qgm.fold_expr
         (fun () e ->
           match e with Qgm.Quantified (q, _) when q = qid -> incr count | _ -> ())
         () e)
  in
  Hashtbl.iter
    (fun _ (b : Qgm.box) ->
      List.iter (fun hc -> Option.iter check hc.Qgm.hc_expr) b.Qgm.b_head;
      List.iter (fun p -> check p.Qgm.p_expr) b.Qgm.b_preds;
      List.iter (fun (e, _) -> check e) b.Qgm.b_order)
    g.Qgm.boxes;
  !count

(* Rule safety conditions below are prover queries against property
   inference ({!Sb_analysis.Infer}), never against statistics — only
   declared schema facts and the graph's own predicates, so a stale
   ANALYZE cannot make a rewrite unsound.  The analysis is recomputed
   per query because the condition runs mid-rewrite on a mutating
   graph; graphs are small and the pass is linear. *)
let infer g ~catalog = Sb_analysis.Infer.analyze ~trust_stats:false ~catalog g

(** Is head column [i] of the box under quantifier [q] a derived key of
    that box (at most one row per value)?  Catalog UNIQUE declarations,
    GROUP BY / DISTINCT heads, and key-preserving selects all qualify. *)
let derives_unique g (q : Qgm.quant) i ~catalog =
  Sb_analysis.Infer.col_unique (infer g ~catalog) g q.Qgm.q_id i

(** Can column [i] seen through quantifier [q] ever be NULL?  Declared
    NOT NULL propagates through selects and joins; an extension
    setformer (outer-join PF) NULL-pads, so nothing survives it. *)
let derives_not_null g (q : Qgm.quant) i ~catalog =
  Sb_analysis.Infer.col_not_null (infer g ~catalog) g q.Qgm.q_id i

(** Is [e] a reflexive equality [c = c] over one column that can never
    be NULL?  Only then is it TRUE on every row: on a NULL row [c = c]
    is NULL and filters the row. *)
let reflexive_not_null g (e : Qgm.expr) ~catalog =
  match e with
  | Qgm.Bin (Ast.Eq, (Qgm.Col (q, i) as a), c) when a = c ->
    derives_not_null g (Qgm.quant g q) i ~catalog
  | _ -> false

(** Does the head-column set [cols] cover a derived key of box [id]
    (equal values in [cols] imply the same row)?  The empty set covers
    exactly the boxes with a single-row guarantee (per binding of any
    correlated outer quantifier). *)
let derives_key g id cols ~catalog =
  Sb_analysis.Props.covers_key
    (Sb_analysis.Infer.box_props (infer g ~catalog) id)
    cols

(** Removes predicate [p] (physical identity) from [b]. *)
let remove_pred (b : Qgm.box) (p : Qgm.pred) =
  b.Qgm.b_preds <- List.filter (fun x -> x != p) b.Qgm.b_preds

let pred_exists (b : Qgm.box) (e : Qgm.expr) =
  List.exists (fun p -> Qgm.equal_expr p.Qgm.p_expr e) b.Qgm.b_preds

(** Interposes a fresh SELECT box between quantifier [q] and its input,
    with an identity head; returns the new box.  Used to give a
    predicate a place to live below an operation that cannot hold it
    (set operations, outer joins). *)
let interpose_select g (q : Qgm.quant) : Qgm.box =
  let input = Qgm.box g q.Qgm.q_input in
  let s = Qgm.new_box g ~label:(input.Qgm.b_label ^ "'") Qgm.Select in
  let nq =
    Qgm.new_quant g ~label:(q.Qgm.q_label ^ "'") ~parent:s.Qgm.b_id
      ~input:input.Qgm.b_id Qgm.F
  in
  s.Qgm.b_head <-
    List.mapi
      (fun i hc ->
        {
          Qgm.hc_name = hc.Qgm.hc_name;
          hc_type = hc.Qgm.hc_type;
          hc_expr = Some (Qgm.Col (nq.Qgm.q_id, i));
        })
      input.Qgm.b_head;
  q.Qgm.q_input <- s.Qgm.b_id;
  s
