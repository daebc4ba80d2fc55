(** Redundant-join elimination [OTT82]: two iterators over the same
    table joined on a declared-UNIQUE, NOT NULL column denote the same
    row, so one access can be removed.  The classic source of such joins
    is a merged view re-accessing a table the query already reads. *)

module Qgm = Sb_qgm.Qgm
module Ast = Sb_hydrogen.Ast
open Rules_util

let candidate ~catalog g (b : Qgm.box) =
  if b.Qgm.b_kind <> Qgm.Select then None
  else
    let fs = List.filter (fun q -> q.Qgm.q_type = Qgm.F) b.Qgm.b_quants in
    List.find_map
      (fun (p : Qgm.pred) ->
        match p.Qgm.p_expr with
        | Qgm.Bin (Ast.Eq, Qgm.Col (q1, i), Qgm.Col (q2, j))
          when q1 <> q2 && i = j ->
          let quant1 = Qgm.quant g q1 and quant2 = Qgm.quant g q2 in
          if
            List.exists (fun q -> q.Qgm.q_id = q1) fs
            && List.exists (fun q -> q.Qgm.q_id = q2) fs
            && quant1.Qgm.q_input = quant2.Qgm.q_input
            && (match (Qgm.box g quant1.Qgm.q_input).Qgm.b_kind with
               | Qgm.Base_table _ -> true
               | _ -> false)
            && derives_unique g quant1 i ~catalog
            && derives_not_null g quant1 i ~catalog
          then Some (p, quant1, quant2)
          else None
        | _ -> None)
      b.Qgm.b_preds

let eliminate_redundant_join ~catalog : Rule.t =
  Rule.make ~priority:52 ~name:"eliminate_redundant_join" ~rule_class:"redundant"
    ~condition:(fun ctx -> candidate ~catalog ctx.Rule.graph ctx.Rule.box <> None)
    ~action:(fun ctx ->
      let g = ctx.Rule.graph and b = ctx.Rule.box in
      match candidate ~catalog g b with
      | Some (p, keep, drop) ->
        remove_pred b p;
        (* both iterators denote the same row: redirect and remove *)
        subst_everywhere g (fun qid i ->
            if qid = drop.Qgm.q_id then Some (Qgm.Col (keep.Qgm.q_id, i)) else None);
        (* predicates that became [c = c] over a NOT NULL column are
           TRUE and can go; over a nullable column they still filter *)
        b.Qgm.b_preds <-
          List.filter
            (fun (p : Qgm.pred) -> not (reflexive_not_null g p.Qgm.p_expr ~catalog))
            b.Qgm.b_preds;
        Qgm.remove_quant g drop
      | None -> ())
    ()

let rules ~catalog = [ eliminate_redundant_join ~catalog ]
