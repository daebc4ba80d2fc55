(** The left outer join extension — the paper's running example
    (sections 4–7), implemented end-to-end through the public extension
    API, touching every layer exactly as the paper prescribes:

    - {e language / QGM}: enables the [LEFT OUTER JOIN] syntax; the
      builder represents it as a SELECT box whose preserved side ranges
      through a new quantifier type [PF] (Preserve-ForEach);
    - {e query rewrite}: the base push-down rules are conservative about
      [PF]; this extension registers its own "receive" rule, pushing
      predicates on preserved-side columns {e through} the outer join,
      plus the classic outer-to-inner-join reduction for null-intolerant
      predicates [ROSE84];
    - {e optimizer}: a plan handler for PF SELECT boxes that reuses the
      base TableAccess and JoinRoot STARs with the new join kind, plus a
      new JoinRoot alternative (hash left-outer join);
    - {e QES}: the ["left_outer"] join {e kind}, reusing the existing
      join {e methods}. *)

open Sb_storage
module Ast = Sb_hydrogen.Ast
module Qgm = Sb_qgm.Qgm
module Rule = Sb_rewrite.Rule
module Ru = Sb_rewrite.Rules_util
module Plan = Sb_optimizer.Plan
module Star = Sb_optimizer.Star
module Cost = Sb_optimizer.Cost
module Generator = Sb_optimizer.Generator
module Exec = Sb_qes.Exec

let pf = Qgm.Ext "PF"

(* ------------------------------------------------------------------ *)
(* QES: the join kind                                                  *)
(* ------------------------------------------------------------------ *)

let left_outer_kind : Exec.kind_impl =
 fun ~outer ~inners ~pred ~inner_width ->
  let matches =
    List.filter_map
      (fun i ->
        let row = Array.append outer i in
        if pred row = Some true then Some row else None)
      inners
  in
  match matches with
  | [] -> [ Array.append outer (Array.make inner_width Value.Null) ]
  | rows -> rows

(* ------------------------------------------------------------------ *)
(* Rewrite rules                                                       *)
(* ------------------------------------------------------------------ *)

(** Is [b] an outer-join box: a SELECT with at least one PF setformer? *)
let is_oj_box (b : Qgm.box) =
  b.Qgm.b_kind = Qgm.Select
  && List.exists (fun q -> q.Qgm.q_type = pf) b.Qgm.b_quants

(** Classifies a column of an OJ box's head: preserved side, null-
    producing side, or neither. *)
let head_side g (oj : Qgm.box) i =
  match (Qgm.head_col oj i).Qgm.hc_expr with
  | Some (Qgm.Col (qid, _)) -> (
    match (Qgm.quant g qid).Qgm.q_type with
    | t when t = pf -> `Preserved
    | Qgm.F -> `Null_producing
    | _ -> `Other)
  | _ -> `Other

(** "Left outer join does not keep predicates, but can receive them if
    they refer only to columns of the PF setformer, in which case they
    are pushed through the outer join operation to the operation ranged
    over by the PF setformer." *)
let push_through_pf : Rule.t =
  let candidate g (b : Qgm.box) =
    if not (b.Qgm.b_kind = Qgm.Select || (match b.Qgm.b_kind with Qgm.Group_by _ -> true | _ -> false))
    then None
    else
      List.find_map
        (fun (p : Qgm.pred) ->
          if Qgm.contains_quantified p.Qgm.p_expr || Qgm.contains_agg p.Qgm.p_expr
          then None
          else
            match Qgm.quant_refs p.Qgm.p_expr with
            | [ qid ] -> (
              let q = Qgm.quant g qid in
              (* the quantifier must range in THIS box: a correlated
                 predicate inside a subquery also has a single outer
                 quant_ref, but hoisting it out changes semantics
                 whenever the subquery's emptiness matters (ALL, NOT
                 IN, scalar aggregates) *)
              if q.Qgm.q_type <> Qgm.F || q.Qgm.q_parent <> b.Qgm.b_id then None
              else
                let oj = Qgm.box g q.Qgm.q_input in
                if not (is_oj_box oj && Ru.has_single_user g oj.Qgm.b_id) then None
                else
                  let refs = Qgm.col_refs p.Qgm.p_expr in
                  if
                    List.for_all (fun (_, i) -> head_side g oj i = `Preserved) refs
                  then
                    (* translate through the OJ head onto the PF quant *)
                    Option.bind (Ru.inline_through g q p.Qgm.p_expr) (fun e ->
                        match Qgm.quant_refs e with
                        | [ pf_qid ] -> Some (p, Qgm.quant g pf_qid, e)
                        | _ -> None)
                  else None)
            | _ -> None)
        b.Qgm.b_preds
  in
  Rule.make ~priority:42 ~name:"oj_push_through_pf" ~rule_class:"outer_join"
    ~condition:(fun ctx -> candidate ctx.Rule.graph ctx.Rule.box <> None)
    ~action:(fun ctx ->
      let g = ctx.Rule.graph in
      match candidate g ctx.Rule.box with
      | Some (p, pf_quant, e) ->
        Ru.remove_pred ctx.Rule.box p;
        (* push through to the operation ranged over by the PF
           setformer, giving the predicate a box to live in *)
        let s = Ru.interpose_select g pf_quant in
        let head = Array.of_list s.Qgm.b_head in
        let e' =
          Qgm.subst_cols
            (fun qid i ->
              if qid = pf_quant.Qgm.q_id then head.(i).Qgm.hc_expr else None)
            e
        in
        s.Qgm.b_preds <- [ Qgm.pred e' ]
      | None -> ())
    ()

(** Outer-join reduction: a null-intolerant predicate above the join on
    a null-producing column rejects every preserved-but-unmatched row,
    so the outer join degenerates to a regular join (PF becomes F),
    opening it to the base merge and join-order machinery. *)
let reduce_to_inner : Rule.t =
  (* Column references in NULL-strict positions: a NULL there forces
     the whole comparison to NULL.  CASE arms, IS NULL operands and
     opaque functions shield their inputs, so columns inside them do
     not qualify — [CASE WHEN TRUE THEN 'b' ELSE x END <> ''] is TRUE
     even when [x] is NULL and must not trigger the reduction. *)
  let rec strict_cols (e : Qgm.expr) =
    match e with
    | Qgm.Col (q, i) -> [ (q, i) ]
    | Qgm.Bin
        ( ( Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Concat
          | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ),
          a,
          b ) ->
      strict_cols a @ strict_cols b
    | Qgm.Un (Ast.Neg, a) | Qgm.Like (a, _) -> strict_cols a
    | Qgm.Lit _ | Qgm.Host _ | Qgm.Bin ((Ast.And | Ast.Or), _, _)
    | Qgm.Un (Ast.Not, _) | Qgm.Fun _ | Qgm.Agg _ | Qgm.Case _
    | Qgm.Is_null _ | Qgm.Quantified _ ->
      []
  in
  let null_intolerant = function
    | Qgm.Bin ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _)
    | Qgm.Like _ ->
      true
    | _ -> false
  in
  let candidate g (b : Qgm.box) =
    if b.Qgm.b_kind <> Qgm.Select then None
    else
      List.find_map
        (fun (p : Qgm.pred) ->
          if not (null_intolerant p.Qgm.p_expr) then None
          else
            match Qgm.quant_refs p.Qgm.p_expr with
            | [ qid ] -> (
              let q = Qgm.quant g qid in
              (* as in push_through_pf: only a predicate of THIS box
                 filters the outer join's rows; one inside a subquery
                 does not justify the reduction *)
              if q.Qgm.q_type <> Qgm.F || q.Qgm.q_parent <> b.Qgm.b_id then None
              else
                let oj = Qgm.box g q.Qgm.q_input in
                if not (is_oj_box oj && Ru.has_single_user g oj.Qgm.b_id) then None
                else if
                  List.exists
                    (fun (_, i) -> head_side g oj i = `Null_producing)
                    (strict_cols p.Qgm.p_expr)
                then Some oj
                else None)
            | _ -> None)
        b.Qgm.b_preds
  in
  Rule.make ~priority:58 ~name:"oj_reduce_to_inner" ~rule_class:"outer_join"
    ~condition:(fun ctx -> candidate ctx.Rule.graph ctx.Rule.box <> None)
    ~action:(fun ctx ->
      match candidate ctx.Rule.graph ctx.Rule.box with
      | Some oj ->
        List.iter
          (fun q -> if q.Qgm.q_type = pf then q.Qgm.q_type <- Qgm.F)
          oj.Qgm.b_quants
      | None -> ())
    ()

(* ------------------------------------------------------------------ *)
(* Optimizer: plan handler for PF SELECT boxes                         *)
(* ------------------------------------------------------------------ *)

let plan_handler (t : Generator.t) env (g : Qgm.t) (b : Qgm.box) :
    Plan.plan option =
  if not (is_oj_box b) then None
  else
    let pfs = List.filter (fun q -> q.Qgm.q_type = pf) b.Qgm.b_quants in
    let fs = List.filter (fun q -> q.Qgm.q_type = Qgm.F) b.Qgm.b_quants in
    match pfs, fs with
    | [ p ], [ f ] ->
      (* every predicate of an OJ box is part of the join condition;
         inner-side-only conjuncts may nevertheless be pushed into the
         inner access (they filter candidates, not preserved rows) *)
      let inner_preds, join_preds =
        List.partition
          (fun (pr : Qgm.pred) ->
            Qgm.quant_refs pr.Qgm.p_expr = [ f.Qgm.q_id ]
            && (not (Qgm.contains_quantified pr.Qgm.p_expr))
            && not (Qgm.contains_agg pr.Qgm.p_expr))
          b.Qgm.b_preds
      in
      let outer_plan =
        match Generator.access_plans t ~g ~env p [] with
        | pl :: _ -> pl
        | [] -> raise (Generator.Unsupported "no outer access plan")
      in
      let inner_plan =
        match
          Generator.access_plans t ~g ~env f
            (List.map (fun (pr : Qgm.pred) -> pr.Qgm.p_expr) inner_preds)
        with
        | pl :: _ -> pl
        | [] -> raise (Generator.Unsupported "no inner access plan")
      in
      let ow = Array.length outer_plan.Plan.props.Plan.p_slots in
      (* equi conjuncts (preserved col = inner col) enable hash/merge *)
      let equi, rest =
        Generator.split_equi ~outer:outer_plan ~inner:inner_plan
          (List.map (fun (pr : Qgm.pred) -> pr.Qgm.p_expr) join_preds)
      in
      let slotmap (qid, c) =
        if qid = p.Qgm.q_id then Plan.slot_of outer_plan (qid, c)
        else
          Option.map (fun s -> ow + s) (Plan.slot_of inner_plan (qid, c))
      in
      let kind_pred =
        match
          List.map (Generator.compile_expr t ~g ~env ~slotmap) rest
        with
        | [] -> None
        | e :: tl ->
          Some (List.fold_left (fun a b -> Plan.RBin (Ast.And, a, b)) e tl)
      in
      let payload =
        Star.make_payload ~outer:outer_plan ~inner:inner_plan
          ~kind:(Plan.J_ext "left_outer") ~equi ?kind_pred
          ~info:(Generator.plan_info t g outer_plan) ()
      in
      (match Star.invoke t.Generator.sctx "JoinRoot" payload with
      | pl :: _ -> Some pl
      | [] -> None)
    | _ ->
      raise
        (Generator.Unsupported
           "outer-join plans currently require exactly one preserved and one \
            null-producing iterator")

(* ------------------------------------------------------------------ *)
(* Optimizer: a new JoinRoot alternative (hash left outer)             *)
(* ------------------------------------------------------------------ *)

let hash_left_outer : Star.alternative =
  {
    Star.alt_name = "hash-left-outer";
    alt_rank = 1;
    alt_cond =
      (fun _ pl ->
        pl.Star.pl_kind = Plan.J_ext "left_outer"
        && pl.Star.pl_equi <> [] && pl.Star.pl_corr = []);
    alt_produce =
      (fun _ pl ->
        let outer = Option.get pl.Star.pl_outer
        and inner = Option.get pl.Star.pl_inner in
        [
          Cost.mk_join ~method_:Plan.Hash_join ~kind:pl.Star.pl_kind
            ~equi:pl.Star.pl_equi ~pred:pl.Star.pl_pred
            ~kind_pred:pl.Star.pl_kind_pred ~corr:[]
            ~sel:
              (Cost.join_selectivity ~outer_info:pl.Star.pl_info
                 ~inner_info:Cost.no_info ~equi:pl.Star.pl_equi
                 ~pred:pl.Star.pl_pred ~info_joined:pl.Star.pl_info)
            outer inner;
        ]);
  }

(* ------------------------------------------------------------------ *)
(* Installation                                                        *)
(* ------------------------------------------------------------------ *)

(** Registers the whole extension on a database.  After this call,
    [LEFT OUTER JOIN] parses, builds PF quantifiers in QGM, rewrites
    with outer-join-aware rules, optimizes through the base STARs plus a
    hash variant, and executes through the ["left_outer"] join kind. *)
let install (db : Starburst.t) =
  Starburst.Extension.enable_operation db "left_outer_join";
  Starburst.Extension.register_join_kind db "left_outer" left_outer_kind;
  Starburst.Extension.register_rewrite_rule db push_through_pf;
  Starburst.Extension.register_rewrite_rule db reduce_to_inner;
  Starburst.Extension.register_select_handler db plan_handler;
  Starburst.Extension.register_star db "JoinRoot" [ hash_left_outer ]
