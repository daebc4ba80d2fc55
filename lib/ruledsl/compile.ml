(** Compiling a verified DSL rule into an ordinary {!Rule.t}.

    The matcher is backtracking first-solution over the pattern's atom
    list: generators enumerate candidates in document order ([b_preds]
    list order, equality-major for replication), tests filter, and a
    failing test — including an auto-inserted runtime guard —
    backtracks to the next candidate.  The compiled condition asks
    whether a solution exists; the action re-solves and interprets the
    action templates against the winning binding, running the primitive
    mutations in template order (including fresh box/quantifier
    allocation), so a rule's rewrites are deterministic.  The built-in
    ports' renderings are pinned by golden tests, and every fuzz leg
    checks their answers against the QGM reference evaluator. *)

module Qgm = Sb_qgm.Qgm
module Ast = Sb_hydrogen.Ast
module Rule = Sb_rewrite.Rule
module Util = Sb_rewrite.Rules_util
open Dsl

type ctx = { g : Qgm.t; b : Qgm.box; catalog : Sb_storage.Catalog.t }

exception Binding_error of string

let get env v =
  match List.assoc_opt v env with
  | Some x -> x
  | None -> raise (Binding_error ("unbound metavariable " ^ v))

let pred_v env v =
  match get env v with V_pred p -> p | _ -> raise (Binding_error v)

let quant_v env v =
  match get env v with V_quant q -> q | _ -> raise (Binding_error v)

let box_v env v =
  match get env v with V_box b -> b | _ -> raise (Binding_error v)

let expr_v env v =
  match get env v with V_expr e -> e | _ -> raise (Binding_error v)

let op_v env v =
  match get env v with V_op o -> o | _ -> raise (Binding_error v)

let int_v env v =
  match get env v with V_int i -> i | _ -> raise (Binding_error v)

let kind_matches (k : Qgm.kind) = function
  | K_select -> k = Qgm.Select
  | K_group_by -> ( match k with Qgm.Group_by _ -> true | _ -> false)
  | K_set_op -> ( match k with Qgm.Set_op _ -> true | _ -> false)
  | K_base_table -> ( match k with Qgm.Base_table _ -> true | _ -> false)
  | K_ext -> ( match k with Qgm.Ext_op _ -> true | _ -> false)
  | K_select_or_group_by -> (
    match k with Qgm.Select | Qgm.Group_by _ -> true | _ -> false)

let epat_matches (e : Qgm.expr) = function
  | E_any -> true
  | E_true -> e = Qgm.Lit (Sb_storage.Value.Bool true)
  | E_null_lit -> e = Qgm.Lit Sb_storage.Value.Null
  | E_is_null -> ( match e with Qgm.Is_null (Qgm.Col _) -> true | _ -> false)
  | E_cmp -> (
    match e with
    | Qgm.Bin (op, Qgm.Col _, Qgm.Lit _) | Qgm.Bin (op, Qgm.Lit _, Qgm.Col _)
      ->
      Ast.is_comparison op
    | _ -> false)

(* a predicate may migrate if it consumes no subquery and computes no
   aggregate *)
let movable (p : Qgm.pred) =
  (not (Qgm.contains_quantified p.Qgm.p_expr))
  && not (Qgm.contains_agg p.Qgm.p_expr)

(* anti-ping-pong for replication: a replica already pushed below its
   quantifier must not be derived again.  The check recurses, since
   push-down may carry a predicate several levels deep (e.g. through an
   outer join onto its preserved side); fuel bounds the descent on
   cyclic (recursive-query) graphs. *)
let already_pushed g (e : Qgm.expr) =
  let rec pushed fuel (e : Qgm.expr) =
    fuel > 0
    &&
    match Qgm.quant_refs e with
    | [ qid ] -> (
      let q = Qgm.quant g qid in
      let l = Qgm.box g q.Qgm.q_input in
      match Util.inline_through g q e with
      | Some e' -> Util.pred_exists l e' || pushed (fuel - 1) e'
      | None -> false)
    | _ -> false
  in
  pushed 8 e

(* group-keys pass-through: every column the predicate references maps
   via the box head to a Col expression that is one of the group keys *)
let group_keys_passthrough (p : Qgm.pred) (l : Qgm.box) =
  match l.Qgm.b_kind with
  | Qgm.Group_by keys -> (
    try
      List.for_all
        (fun (_, i) ->
          match (Qgm.head_col l i).Qgm.hc_expr with
          | Some (Qgm.Col _ as e) -> List.mem e keys
          | _ -> false)
        (Qgm.col_refs p.Qgm.p_expr)
    with _ -> false)
  | _ -> false

(** All bindings an atom yields under [env]: [] is failure, a singleton
    is a passed test, several are generator candidates (document
    order). *)
let expand ctx env atom : binding list =
  let ok = [ env ] and fail = [] in
  let test c = if c then ok else fail in
  match atom with
  | Each_pred p ->
    List.map (fun pr -> (p, V_pred pr) :: env) ctx.b.Qgm.b_preds
  | Each_eq_col_pred { pred; keep; drop; col } ->
    List.filter_map
      (fun (pr : Qgm.pred) ->
        match pr.Qgm.p_expr with
        | Qgm.Bin (Ast.Eq, Qgm.Col (q1, i), Qgm.Col (q2, j))
          when q1 <> q2 && i = j ->
          Some
            ((pred, V_pred pr)
            :: (keep, V_quant (Qgm.quant ctx.g q1))
            :: (drop, V_quant (Qgm.quant ctx.g q2))
            :: (col, V_int i) :: env)
        | _ -> None)
      ctx.b.Qgm.b_preds
  | Each_eq_pair { left; right } ->
    List.filter_map
      (fun (pr : Qgm.pred) ->
        match pr.Qgm.p_expr with
        | Qgm.Bin (Ast.Eq, (Qgm.Col _ as a), (Qgm.Col _ as c)) when a <> c ->
          Some ((left, V_expr a) :: (right, V_expr c) :: env)
        | _ -> None)
      ctx.b.Qgm.b_preds
  | Each_restriction { col; op; lit } ->
    List.filter_map
      (fun (pr : Qgm.pred) ->
        match pr.Qgm.p_expr with
        | Qgm.Bin (o, (Qgm.Col _ as a), (Qgm.Lit _ as v))
          when Ast.is_comparison o ->
          Some ((col, V_expr a) :: (op, V_op o) :: (lit, V_expr v) :: env)
        | Qgm.Bin (o, (Qgm.Lit _ as v), (Qgm.Col _ as a))
          when Ast.is_comparison o ->
          Some
            ((col, V_expr a)
            :: (op, V_op (Ast.flip_comparison o))
            :: (lit, V_expr v) :: env)
        | _ -> None)
      ctx.b.Qgm.b_preds
  | Box_kind kp -> test (kind_matches ctx.b.Qgm.b_kind kp)
  | Pred_matches (p, ep) -> test (epat_matches (pred_v env p).Qgm.p_expr ep)
  | Movable p -> test (movable (pred_v env p))
  | Not_marked (p, m) -> test (not (Qgm.pred_marked (pred_v env p) m))
  | Sole_quant_ref { pred; quant } -> (
    match Qgm.quant_refs (pred_v env pred).Qgm.p_expr with
    | [ qid ] -> [ (quant, V_quant (Qgm.quant ctx.g qid)) :: env ]
    | _ -> fail)
  | Quant_parent_here q ->
    test ((quant_v env q).Qgm.q_parent = ctx.b.Qgm.b_id)
  | Quant_type_f q -> test ((quant_v env q).Qgm.q_type = Qgm.F)
  | Input_box { quant; box } ->
    [ (box, V_box (Qgm.box ctx.g (quant_v env quant).Qgm.q_input)) :: env ]
  | Kind_is (b, kp) -> test (kind_matches (box_v env b).Qgm.b_kind kp)
  | Plain_select b -> test (Util.is_plain_select ctx.g (box_v env b))
  | Not_top b -> test ((box_v env b).Qgm.b_id <> ctx.g.Qgm.top)
  | Single_user b -> test (Util.has_single_user ctx.g (box_v env b).Qgm.b_id)
  | Head_all_exprs b ->
    test
      (List.for_all
         (fun hc -> hc.Qgm.hc_expr <> None)
         (box_v env b).Qgm.b_head)
  | Not_recursive b ->
    test (not (Qgm.is_recursive ctx.g (box_v env b).Qgm.b_id))
  | Group_keys_passthrough { pred; box } ->
    test (group_keys_passthrough (pred_v env pred) (box_v env box))
  | Inline { pred; quant; out } -> (
    match
      Util.inline_through ctx.g (quant_v env quant) (pred_v env pred).Qgm.p_expr
    with
    | Some e -> [ (out, V_expr e) :: env ]
    | None -> fail)
  | Replica { left; right; col; op; lit; out } ->
    let a = expr_v env left and c = expr_v env right in
    let x = expr_v env col and o = op_v env op and v = expr_v env lit in
    if x = a then [ (out, V_expr (Qgm.Bin (o, c, v))) :: env ]
    else if x = c then [ (out, V_expr (Qgm.Bin (o, a, v))) :: env ]
    else fail
  | Not_exists_here e -> test (not (Util.pred_exists ctx.b (expr_v env e)))
  | Not_already_pushed e -> test (not (already_pushed ctx.g (expr_v env e)))
  | Both_quants_here (a, b) ->
    let here v =
      List.exists
        (fun q -> q.Qgm.q_id = (quant_v env v).Qgm.q_id && q.Qgm.q_type = Qgm.F)
        ctx.b.Qgm.b_quants
    in
    test (here a && here b)
  | Same_input (a, b) ->
    test ((quant_v env a).Qgm.q_input = (quant_v env b).Qgm.q_input)
  | Guard_unique { quant; col } ->
    test
      (Util.derives_unique ctx.g (quant_v env quant) (int_v env col)
         ~catalog:ctx.catalog)
  | Guard_not_null { quant; col } ->
    test
      (Util.derives_not_null ctx.g (quant_v env quant) (int_v env col)
         ~catalog:ctx.catalog)
  | Guard_single_user b ->
    test (Util.has_single_user ctx.g (box_v env b).Qgm.b_id)
  | Guard_strict p ->
    test
      (Sb_analysis.Prover.strict_in_refs (pred_v env p).Qgm.p_expr
      = Sb_analysis.Prover.Strict)

(** First solution of the pattern, or [None]. *)
let rec solve ctx env = function
  | [] -> Some env
  | atom :: rest ->
    List.find_map (fun env' -> solve ctx env' rest) (expand ctx env atom)

let exec ctx env = function
  | Remove_pred p -> Util.remove_pred ctx.b (pred_v env p)
  | Add_pred_to { box; expr } ->
    let l = box_v env box and e = expr_v env expr in
    if not (Util.pred_exists l e) then
      l.Qgm.b_preds <- l.Qgm.b_preds @ [ Qgm.pred e ]
  | Add_pred_here e ->
    ctx.b.Qgm.b_preds <- ctx.b.Qgm.b_preds @ [ Qgm.pred (expr_v env e) ]
  | Mark_pred (p, m) -> Qgm.mark_pred (pred_v env p) m
  | Replicate_into_arms { pred; quant; box } ->
    let p = pred_v env pred and q = quant_v env quant in
    List.iter
      (fun arm ->
        let s = Util.interpose_select ctx.g arm in
        let head = Array.of_list s.Qgm.b_head in
        let e =
          Qgm.subst_cols
            (fun qid i ->
              if qid = q.Qgm.q_id then head.(i).Qgm.hc_expr else None)
            p.Qgm.p_expr
        in
        s.Qgm.b_preds <- [ Qgm.pred e ])
      (Qgm.setformers (box_v env box))
  | Redirect_refs { drop; keep } ->
    let d = quant_v env drop and k = quant_v env keep in
    Util.subst_everywhere ctx.g (fun qid i ->
        if qid = d.Qgm.q_id then Some (Qgm.Col (k.Qgm.q_id, i)) else None)
  | Drop_reflexive_eqs ->
    ctx.b.Qgm.b_preds <-
      List.filter
        (fun (p : Qgm.pred) ->
          not (Util.reflexive_not_null ctx.g p.Qgm.p_expr ~catalog:ctx.catalog))
        ctx.b.Qgm.b_preds
  | Remove_quant q -> Qgm.remove_quant ctx.g (quant_v env q)
  | Remove_preds_matching ep ->
    ctx.b.Qgm.b_preds <-
      List.filter
        (fun (p : Qgm.pred) -> not (epat_matches p.Qgm.p_expr ep))
        ctx.b.Qgm.b_preds

(** Compile a rule whose verdict and (possibly guard-extended) pattern
    are already known.  Exposed for tests; use {!compile}. *)
let to_rule ~catalog (r : rule) ~pattern : Rule.t =
  let solve_here (c : Rule.context) =
    solve { g = c.Rule.graph; b = c.Rule.box; catalog } [] pattern
  in
  Rule.make ~priority:r.priority ~origin:Rule.Dsl ~name:r.name
    ~rule_class:r.rule_class
    ~condition:(fun c -> solve_here c <> None)
    ~action:(fun c ->
      match solve_here c with
      | Some env ->
        let ctx = { g = c.Rule.graph; b = c.Rule.box; catalog } in
        List.iter (exec ctx env) r.actions
      | None -> ())
    ()

(** Verify, then compile.  [Ok (rule, status)] for [Verified] and
    [Conditional] (the latter with its runtime guards appended to the
    pattern); [Error status] for [Rejected]. *)
let compile ~catalog (r : rule) : (Rule.t * Verify.status, Verify.status) result
    =
  let v = Verify.verify r in
  match v.Verify.v_status with
  | Verify.Rejected _ -> Error v.Verify.v_status
  | status ->
    Ok (to_rule ~catalog r ~pattern:(r.pattern @ v.Verify.v_guards), status)
