(** Catalog / statement linter.

    Unlike {!Check} (hard consistency) and {!Plan_check} (plan
    validity), lints flag things that are {e legal but suspicious}:
    dead quantifiers, predicates that constant-fold to FALSE, shadowed
    output columns, statistics the optimizer will silently fall back
    from.  Diagnostics carry a severity and a QGM box (or table)
    location so the shell's [\check] can render them actionably. *)

open Sb_storage
module Ast = Sb_hydrogen.Ast
open Sb_qgm

type severity = Info | Warning

type location = Box of Qgm.box_id | Table of string | Rule of string

type diag = {
  d_severity : severity;
  d_loc : location;
  d_code : string;
  d_msg : string;
}

let severity_name = function Info -> "info" | Warning -> "warning"

let diag_to_string d =
  Fmt.str "%s[%s] %s: %s"
    (severity_name d.d_severity)
    d.d_code
    (match d.d_loc with
    | Box id -> Fmt.str "box %d" id
    | Table t -> Fmt.str "table %s" t
    | Rule r -> Fmt.str "rule %s" r)
    d.d_msg

(* Constant truth value of an expression, if decidable without a row.
   A shim over the prover's three-valued evaluator: the old literal
   fold treated NULL comparisons as booleans, so [NOT NULL] folded to
   TRUE and [x = NULL] escaped the always-false lint entirely.
   [Some false] now means "never passes a WHERE clause" (constant FALSE
   or constant NULL alike). *)
let const_truth (e : Qgm.expr) : bool option = Sb_analysis.Prover.const_truth e

(* A conjunct the prover can reason about without guessing (no
   subqueries, host variables, or aggregates inside). *)
let provable e =
  not (Qgm.contains_quantified e || Qgm.contains_host e || Qgm.contains_agg e)

let lint_qgm ?catalog (g : Qgm.t) : diag list =
  let diags = ref [] in
  let add d_severity d_loc d_code fmt =
    Fmt.kstr (fun d_msg -> diags := { d_severity; d_loc; d_code; d_msg } :: !diags) fmt
  in
  (* semantic facts back the deeper lints when the catalog is at hand;
     without it columns are simply unknown and those lints stay quiet *)
  let inf =
    Option.map
      (fun cat -> Sb_analysis.Infer.analyze ~trust_stats:false ~catalog:cat g)
      catalog
  in
  let prop_of qid i =
    match inf with
    | Some inf -> Sb_analysis.Infer.quant_col_prop inf g qid i
    | None -> Sb_analysis.Props.top_col
  in
  let show e = Fmt.str "%a" (Print.pp_expr g) e in
  let boxes = Qgm.reachable_boxes g in
  (* quantifier ids referenced anywhere in the graph (heads, preds,
     group keys, order, values) — correlation makes this global *)
  let all_refs = Hashtbl.create 32 in
  let note e = List.iter (fun q -> Hashtbl.replace all_refs q ()) (Qgm.quant_refs e) in
  List.iter (Qgm.iter_box_exprs note) boxes;
  List.iter
    (fun (b : Qgm.box) ->
      (* dead setformers: a SELECT-box iterator no expression ever
         reads multiplies rows (or is a leftover of a rewrite) *)
      (match b.b_kind with
      | Qgm.Select ->
        List.iter
          (fun (q : Qgm.quant) ->
            match q.q_type with
            | Qgm.F | Qgm.Ext _ ->
              if
                (not (Hashtbl.mem all_refs q.q_id))
                && List.length (Qgm.setformers b) > 1
              then
                add Warning (Box b.b_id) "unused-quant"
                  "setformer %s is never referenced (pure row multiplier)"
                  q.q_label
            | Qgm.E | Qgm.A | Qgm.S | Qgm.SP _ -> ())
          b.b_quants
      | _ -> ());
      (* constant predicates *)
      List.iter
        (fun (p : Qgm.pred) ->
          match const_truth p.p_expr with
          | Some false ->
            add Warning (Box b.b_id) "always-false"
              "predicate is always false: the box produces no rows"
          | Some true ->
            add Info (Box b.b_id) "always-true" "predicate is always true"
          | None -> ())
        b.b_preds;
      (* prover-backed predicate lints over the box's conjunction *)
      let conjs =
        List.concat_map (fun (p : Qgm.pred) -> Qgm.conjuncts p.p_expr) b.b_preds
        |> List.filter provable
      in
      let module Prover = Sb_analysis.Prover in
      (* contradictory-pred: the conjunction as a whole is unsatisfiable
         even though no single conjunct is constant-false *)
      if
        conjs <> []
        && (not (List.exists (fun c -> const_truth c = Some false) conjs))
        && Prover.satisfiable ~prop_of conjs = Prover.Unsatisfiable
      then
        add Warning (Box b.b_id) "contradictory-pred"
          "predicates are contradictory: the box provably produces no rows"
      else begin
        (* implied-pred: dropping the conjunct changes nothing *)
        List.iteri
          (fun idx c ->
            let others = List.filteri (fun j _ -> j <> idx) conjs in
            if
              others <> []
              && const_truth c <> Some true (* already always-true *)
              && Prover.implies ~prop_of others c = Prover.Proved
            then
              add Info (Box b.b_id) "implied-pred"
                "conjunct %s is implied by the other predicates (redundant)"
                (show c))
          conjs;
        (* null-join-key: an equi-join key that can be NULL silently
           drops rows; worth an IS NOT NULL or a schema fix *)
        if inf <> None then
          List.iter
            (fun c ->
              match c with
              | Qgm.Bin (Ast.Eq, Qgm.Col (q1, i1), Qgm.Col (q2, i2))
                when q1 <> q2 ->
                let setf = List.map (fun q -> q.Qgm.q_id) (Qgm.setformers b) in
                if List.mem q1 setf && List.mem q2 setf then
                  List.iter
                    (fun (q, i) ->
                      let guarded =
                        List.exists
                          (fun c' ->
                            c' = Qgm.Un (Ast.Not, Qgm.Is_null (Qgm.Col (q, i))))
                          conjs
                      in
                      if
                        (prop_of q i).Sb_analysis.Props.cp_nullable
                        && not guarded
                      then
                        add Info (Box b.b_id) "null-join-key"
                          "join key %s can be NULL and is not guarded by IS \
                           NOT NULL (NULL keys never match)"
                          (show (Qgm.Col (q, i))))
                    [ (q1, i1); (q2, i2) ]
              | _ -> ())
            conjs
      end;
      (* shadowed output columns *)
      let rec dup seen = function
        | [] -> ()
        | (hc : Qgm.head_col) :: rest ->
          let n = String.lowercase_ascii hc.hc_name in
          if List.mem n seen then
            add Warning (Box b.b_id) "shadowed-column"
              "output column %s shadows an earlier column of the same name"
              hc.hc_name;
          dup (n :: seen) rest
      in
      dup [] b.b_head;
      (* degenerate CHOOSE *)
      (match b.b_kind with
      | Qgm.Choose when List.length b.b_quants = 1 ->
        add Info (Box b.b_id) "single-choose"
          "CHOOSE with a single alternative (refinement will collapse it)"
      | _ -> ());
      (* LIMIT without ORDER BY: result is implementation-defined *)
      match b.b_limit, b.b_order with
      | Some n, [] ->
        add Info (Box b.b_id) "unordered-limit"
          "LIMIT %d without ORDER BY picks implementation-defined rows" n
      | _ -> ())
    boxes;
  List.rev !diags

let lint_catalog (cat : Catalog.t) : diag list =
  let diags = ref [] in
  let add d_severity d_loc d_code fmt =
    Fmt.kstr (fun d_msg -> diags := { d_severity; d_loc; d_code; d_msg } :: !diags) fmt
  in
  List.iter
    (fun name ->
      match Catalog.find_table cat name with
      | None -> ()
      | Some tab ->
        let rows = Table_store.tuple_count tab in
        let card = tab.Table_store.stats.Stats.ts_cardinality in
        if rows > 0 && card = 0 then
          add Info (Table name) "no-stats"
            "%d row(s) but no statistics: the optimizer uses default selectivities"
            rows
        else if rows > 0 && abs (rows - card) * 2 > rows then
          add Info (Table name) "stale-stats"
            "statistics say %d row(s) but the table has %d: re-run ANALYZE" card
            rows)
    (List.sort compare (Catalog.table_names cat));
  List.rev !diags

(* Per-rule fire/attempt accounting (accumulated by Corona across the
   session) turned into lints.  A rule whose condition has been
   evaluated many times without ever firing is either dead in this
   workload or — the interesting case — guarded by a condition that can
   never hold; either way the DBC should look at it. *)
let dead_rule_threshold = 50

let lint_rules (stats : (string * (int * int)) list) : diag list =
  List.filter_map
    (fun (name, (fires, attempts)) ->
      if fires = 0 && attempts >= dead_rule_threshold then
        Some
          {
            d_severity = Warning;
            d_loc = Rule name;
            d_code = "dead-rule";
            d_msg =
              Fmt.str
                "condition evaluated %d time(s) without ever firing: dead \
                 in this workload, or unsatisfiable"
                attempts;
          }
      else None)
    stats
