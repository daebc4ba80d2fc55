(** Tests for the Query Graph Model: the builder's translation (name
    resolution, semantic analysis, quantifier types), consistency
    checking, graph navigation, and the copy machinery. *)

open Sb_storage
module Qgm = Sb_qgm.Qgm
module Builder = Sb_qgm.Builder
module Check = Sb_qgm.Check
open Test_util

let config () =
  let cat = Catalog.create () in
  let mk name schema = ignore (Catalog.create_table cat ~name ~schema ()) in
  mk "quotations"
    [| Schema.column ~nullable:false "partno" Datatype.Int;
       Schema.column "price" Datatype.Float;
       Schema.column "order_qty" Datatype.Int |];
  mk "inventory"
    [| Schema.column ~nullable:false ~unique:true "partno" Datatype.Int;
       Schema.column "onhand_qty" Datatype.Int;
       Schema.column "type" Datatype.String |];
  mk "edges" [| Schema.column "src" Datatype.Int; Schema.column "dst" Datatype.Int |];
  (cat, Builder.make_config ~catalog:cat ~functions:(Sb_hydrogen.Functions.create ()))

let build text =
  let _, cfg = config () in
  Builder.build_text cfg text

let top_of g = Qgm.top_box g

let quant_types g =
  List.map (fun q -> q.Qgm.q_type) (top_of g).Qgm.b_quants

let test_paper_query_shape () =
  let g =
    build
      "SELECT partno, price, order_qty FROM quotations Q1 WHERE Q1.partno IN \
       (SELECT partno FROM inventory Q3 WHERE Q3.onhand_qty < Q1.order_qty AND \
       Q3.type = 'CPU')"
  in
  Alcotest.(check int) "boxes" 4 (List.length (Qgm.reachable_boxes g));
  Alcotest.(check bool) "quant types F,E" true (quant_types g = [ Qgm.F; Qgm.E ]);
  let top = top_of g in
  Alcotest.(check int) "head arity" 3 (Qgm.arity top);
  Alcotest.(check int) "one conjunct" 1 (List.length top.Qgm.b_preds);
  (* the subquery is correlated: its inner box references Q1 *)
  let sub =
    List.find (fun q -> q.Qgm.q_type = Qgm.E) top.Qgm.b_quants |> fun q ->
    Qgm.box g q.Qgm.q_input
  in
  let refs =
    List.concat_map (fun (p : Qgm.pred) -> Qgm.quant_refs p.Qgm.p_expr) sub.Qgm.b_preds
  in
  let top_f = List.find (fun q -> q.Qgm.q_type = Qgm.F) top.Qgm.b_quants in
  Alcotest.(check bool) "correlated" true (List.mem top_f.Qgm.q_id refs);
  Alcotest.(check (list string)) "consistent" [] (Check.check g)

let test_quantifier_types () =
  let cases =
    [
      ("SELECT partno FROM quotations WHERE partno IN (SELECT partno FROM inventory)", [ Qgm.F; Qgm.E ]);
      ("SELECT partno FROM quotations WHERE EXISTS (SELECT * FROM inventory)", [ Qgm.F; Qgm.E ]);
      ("SELECT partno FROM quotations WHERE partno NOT IN (SELECT partno FROM inventory)", [ Qgm.F; Qgm.A ]);
      ("SELECT partno FROM quotations WHERE NOT EXISTS (SELECT * FROM inventory)", [ Qgm.F; Qgm.A ]);
      ("SELECT partno FROM quotations WHERE price > ALL (SELECT onhand_qty FROM inventory)", [ Qgm.F; Qgm.A ]);
      ("SELECT partno FROM quotations WHERE price > ANY (SELECT onhand_qty FROM inventory)", [ Qgm.F; Qgm.E ]);
      ("SELECT partno FROM quotations WHERE price = (SELECT max(price) FROM quotations)", [ Qgm.F; Qgm.S ]);
    ]
  in
  List.iter
    (fun (text, expected) ->
      let g = build text in
      if quant_types g <> expected then Alcotest.failf "quantifier types for %s" text)
    cases

let test_semantic_errors () =
  let _, cfg = config () in
  let bad =
    [
      "SELECT nosuch FROM quotations";
      "SELECT partno FROM nosuch";
      "SELECT q.partno FROM quotations p";
      "SELECT partno FROM quotations, inventory";  (* ambiguous partno *)
      "SELECT partno + price FROM quotations WHERE partno";  (* non-boolean WHERE *)
      "SELECT nosuchfn(partno) FROM quotations";
      "SELECT partno FROM quotations q, quotations q";  (* duplicate alias *)
      "SELECT price FROM quotations GROUP BY partno";  (* not grouped *)
      "SELECT partno FROM quotations HAVING price > 1";  (* HAVING without GROUP *)
      "SELECT count(*) + partno FROM quotations GROUP BY price";  (* mixed *)
      "(SELECT partno FROM quotations) UNION (SELECT partno, price FROM quotations)";
      "SELECT * FROM quotations ORDER BY 9";
      "SELECT 'a' + 1 FROM quotations";
      "SELECT substr(partno, 1, 2) FROM quotations";  (* type error in function *)
      "WITH RECURSIVE r AS (SELECT src FROM edges UNION SELECT n FROM r) SELECT * FROM r";
      (* recursive def requires explicit columns *)
    ]
  in
  List.iter
    (fun text ->
      match Builder.build_text cfg text with
      | _ -> Alcotest.failf "expected semantic error: %s" text
      | exception Builder.Semantic_error _ -> ())
    bad

let test_group_by_shape () =
  let g =
    build
      "SELECT supplier_region, count(*) AS n FROM (SELECT type AS \
       supplier_region, partno FROM inventory) v GROUP BY supplier_region \
       HAVING count(*) > 1"
  in
  let kinds = List.map (fun b -> b.Qgm.b_kind) (Qgm.reachable_boxes g) in
  Alcotest.(check bool) "has group box" true
    (List.exists (function Qgm.Group_by _ -> true | _ -> false) kinds);
  Alcotest.(check (list string)) "consistent" [] (Check.check g);
  (* having became a predicate on the top select *)
  Alcotest.(check int) "having pred" 1 (List.length (top_of g).Qgm.b_preds)

let test_view_expansion () =
  let cat, cfg = config () in
  Catalog.create_view cat ~name:"cpus" ~text:"SELECT partno, onhand_qty FROM inventory WHERE type = 'CPU'" ();
  let g = Builder.build_text cfg "SELECT partno FROM cpus WHERE onhand_qty > 5" in
  Alcotest.(check (list string)) "consistent" [] (Check.check g);
  (* view box present with its label *)
  Alcotest.(check bool) "view box" true
    (List.exists (fun b -> b.Qgm.b_label = "cpus") (Qgm.reachable_boxes g));
  (* cyclic views rejected *)
  Catalog.create_view cat ~name:"v1" ~text:"SELECT * FROM v2" ();
  Catalog.create_view cat ~name:"v2" ~text:"SELECT * FROM v1" ();
  (match Builder.build_text cfg "SELECT * FROM v1" with
  | _ -> Alcotest.fail "expected cyclic view error"
  | exception Builder.Semantic_error _ -> ())

let test_recursion_cycle () =
  let g =
    build
      "WITH RECURSIVE paths (src, dst) AS (SELECT src, dst FROM edges UNION \
       SELECT p.src, e.dst FROM paths p, edges e WHERE p.dst = e.src) SELECT \
       * FROM paths"
  in
  Alcotest.(check bool) "cycle detected" true
    (List.exists
       (fun (b : Qgm.box) -> Qgm.is_recursive g b.Qgm.b_id)
       (Qgm.reachable_boxes g));
  Alcotest.(check (list string)) "consistent" [] (Check.check g)

let test_copy_subgraph () =
  let g =
    build "SELECT partno FROM quotations WHERE partno IN (SELECT partno FROM inventory)"
  in
  let before = List.length (Qgm.reachable_boxes g) in
  let copy = Qgm.copy_subgraph g g.Qgm.top in
  Alcotest.(check bool) "new box id" true (copy <> g.Qgm.top);
  (* base tables are shared, derived boxes copied *)
  g.Qgm.top <- copy;
  Alcotest.(check (list string)) "copy consistent" [] (Check.check g);
  Alcotest.(check int) "same shape" before (List.length (Qgm.reachable_boxes g))

let test_garbage_collect () =
  let g = build "SELECT partno FROM quotations" in
  let orphan = Qgm.new_box g Qgm.Select in
  orphan.Qgm.b_head <- [ { Qgm.hc_name = "x"; hc_type = None; hc_expr = Some (Qgm.Lit (i 1)) } ];
  let before = Hashtbl.length g.Qgm.boxes in
  Qgm.garbage_collect g;
  Alcotest.(check int) "orphan removed" (before - 1) (Hashtbl.length g.Qgm.boxes)

let test_expr_utils () =
  let e =
    Qgm.Bin
      ( Sb_hydrogen.Ast.And,
        Qgm.Bin (Sb_hydrogen.Ast.Eq, Qgm.Col (1, 0), Qgm.Col (2, 1)),
        Qgm.Quantified (3, Qgm.Col (3, 0)) )
  in
  Alcotest.(check (list int)) "quant refs" [ 1; 2; 3 ] (Qgm.quant_refs e);
  Alcotest.(check int) "col refs" 3 (List.length (Qgm.col_refs e));
  Alcotest.(check bool) "has quantified" true (Qgm.contains_quantified e);
  let e' = Qgm.subst_cols (fun q i -> if q = 1 then Some (Qgm.Col (9, i)) else None) e in
  Alcotest.(check bool) "subst" true (List.mem 9 (Qgm.quant_refs e'));
  Alcotest.(check int) "conjuncts" 2 (List.length (Qgm.conjuncts e))

let test_check_catches_violations () =
  let g = build "SELECT partno FROM quotations" in
  let top = top_of g in
  (* dangling column reference *)
  (List.hd top.Qgm.b_head).Qgm.hc_expr <- Some (Qgm.Col (999, 0));
  Alcotest.(check bool) "missing quant flagged" true (Check.check g <> []);
  (List.hd top.Qgm.b_head).Qgm.hc_expr <-
    Some (Qgm.Col ((List.hd top.Qgm.b_quants).Qgm.q_id, 99));
  Alcotest.(check bool) "bad column flagged" true (Check.check g <> [])

let test_dot_output () =
  let g = build "SELECT partno FROM quotations WHERE partno IN (SELECT partno FROM inventory)" in
  let dot = Sb_qgm.Print.to_dot g in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "mentions table" true (contains ~sub:"quotations" dot)

let suite =
  ( "qgm",
    [
      case "paper query shape (Figure 2a)" test_paper_query_shape;
      case "quantifier types" test_quantifier_types;
      case "semantic errors" test_semantic_errors;
      case "group-by shape" test_group_by_shape;
      case "view expansion" test_view_expansion;
      case "recursion cycle" test_recursion_cycle;
      case "copy subgraph" test_copy_subgraph;
      case "garbage collect" test_garbage_collect;
      case "expression utilities" test_expr_utils;
      case "checker catches violations" test_check_catches_violations;
      case "dot output" test_dot_output;
    ] )
