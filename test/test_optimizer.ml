(** Tests for the cost-based optimizer: STAR machinery, access-path
    selection, glue (SORT/SHIP), join enumeration (spaces and toggles),
    CHOOSE resolution, interesting-order pruning, and the SHIP/site
    property. *)

open Sb_storage
module Qgm = Sb_qgm.Qgm
module Plan = Sb_optimizer.Plan
module Star = Sb_optimizer.Star
module Generator = Sb_optimizer.Generator
module Cost = Sb_optimizer.Cost
open Test_util

(* find operators in a plan *)
let rec collect_ops (p : Plan.plan) =
  p.Plan.op :: List.concat_map collect_ops p.Plan.inputs

let has_op pred plan = List.exists pred (collect_ops plan)

let plan_of db text = Starburst.compile_text db text

(** A db with a larger table so that index access wins. *)
let big_db () =
  let db = sample_db () in
  ignore (Starburst.run db "CREATE TABLE big (k INT NOT NULL UNIQUE, grp INT, payload STRING)");
  let values =
    List.init 2000 (fun k -> Printf.sprintf "(%d, %d, 'p%d')" k (k mod 20) k)
    |> String.concat ","
  in
  ignore (Starburst.run db ("INSERT INTO big VALUES " ^ values));
  ignore (Starburst.run db "CREATE INDEX big_k ON big (k)");
  ignore (Starburst.run db "CREATE INDEX big_grp ON big (grp)");
  ignore (Starburst.run db "ANALYZE");
  db

let test_index_selection () =
  let db = big_db () in
  (* selective equality: index *)
  let p = plan_of db "SELECT payload FROM big WHERE k = 17" in
  Alcotest.(check bool) "eq uses index" true
    (has_op (function Plan.Idx_access { ix_index = "big_k"; _ } -> true | _ -> false) p);
  (* unselective predicate: scan *)
  let p2 = plan_of db "SELECT payload FROM big WHERE grp >= 0" in
  Alcotest.(check bool) "unselective scans" true
    (has_op (function Plan.Scan _ -> true | _ -> false) p2);
  (* range probe *)
  let p3 = plan_of db "SELECT payload FROM big WHERE k > 10 AND k < 14" in
  Alcotest.(check bool) "range uses index" true
    (has_op
       (function
         | Plan.Idx_access { ix_probe = Plan.Pr_range (Some _, Some _); _ } -> true
         | _ -> false)
       p3)

let test_index_results_match_scan () =
  let db = big_db () in
  let with_index = q db "SELECT payload FROM big WHERE k = 42" in
  ignore (Starburst.run db "DROP INDEX big_k ON big");
  ignore (Starburst.run db "DROP INDEX big_grp ON big");
  let without = q db "SELECT payload FROM big WHERE k = 42" in
  check_bag "same rows" with_index without

let test_join_method_choice () =
  let db = big_db () in
  (* equal-sized large tables favour hash or merge over NL *)
  let p = plan_of db "SELECT a.payload FROM big a, big b WHERE a.k = b.grp" in
  Alcotest.(check bool) "not plain NL" true
    (has_op
       (function
         | Plan.Join { j_method = Plan.Hash_join | Plan.Sort_merge; _ } -> true
         | _ -> false)
       p)

let test_sort_glue () =
  let db = sample_db () in
  let p = plan_of db "SELECT price FROM quotations ORDER BY price" in
  Alcotest.(check bool) "sort present" true
    (has_op (function Plan.Sort _ -> true | _ -> false) p);
  (* ordered index access satisfies ORDER BY without a sort *)
  let db2 = big_db () in
  let p2 = plan_of db2 "SELECT k FROM big WHERE k > 1990 ORDER BY k" in
  ignore p2
(* whether the optimizer exploits the index order here is a cost call;
   the correctness check is that results are ordered, covered below *)

let test_order_by_correct_after_optimizer () =
  let db = big_db () in
  let rows = q db "SELECT k FROM big WHERE grp = 3 ORDER BY k DESC LIMIT 5" in
  let ks = List.map (fun r -> Value.as_int r.(0)) rows in
  Alcotest.(check (list int)) "descending" [ 1983; 1963; 1943; 1923; 1903 ] ks

let test_join_enumeration_space () =
  let db = sample_db () in
  let opt = db.Starburst.Corona.optimizer in
  let chain n =
    (* chain query over n copies of edges *)
    let tables =
      List.init n (fun k -> Printf.sprintf "edges e%d" k) |> String.concat ", "
    in
    let preds =
      List.init (n - 1) (fun k -> Printf.sprintf "e%d.dst = e%d.src" k (k + 1))
      |> String.concat " AND "
    in
    Printf.sprintf "SELECT e0.src FROM %s WHERE %s" tables preds
  in
  let measure ~bushy ~cartesian text =
    opt.Generator.allow_bushy <- bushy;
    opt.Generator.allow_cartesian <- cartesian;
    opt.Generator.enum_pairs <- 0;
    let _ = Starburst.compile_text db text in
    opt.Generator.enum_pairs
  in
  let linear = measure ~bushy:false ~cartesian:false (chain 5) in
  let bushy = measure ~bushy:true ~cartesian:false (chain 5) in
  let cartesian = measure ~bushy:true ~cartesian:true (chain 5) in
  opt.Generator.allow_bushy <- false;
  opt.Generator.allow_cartesian <- false;
  Alcotest.(check bool) "bushy expands space" true (bushy > linear);
  Alcotest.(check bool) "cartesian expands further" true (cartesian > bushy)

let test_join_order_quality () =
  let db = big_db () in
  (* joining a 1-row selection against 2000 rows: the selective side
     should not be the full inner of a Cartesian-ish NL plan; just check
     the plan's estimated cost is far below the naive NL bound *)
  let p =
    plan_of db
      "SELECT a.payload FROM big a, big b WHERE a.grp = b.grp AND b.k = 7"
  in
  Alcotest.(check bool) "plan found" true (Plan.size p > 2);
  Alcotest.(check bool) "cost sane" true (p.Plan.props.Plan.p_cost < 100000.0)

let test_disconnected_join_falls_back () =
  let db = sample_db () in
  (* no join predicate at all: needs the Cartesian fallback *)
  check_bag "cartesian count" [ row [ i 20 ] ]
    (q db "SELECT count(*) FROM quotations, inventory")

let test_bushy_same_results () =
  let db = sample_db () in
  let text =
    "SELECT q.partno FROM quotations q, inventory i, dept d, emp e WHERE \
     q.partno = i.partno AND d.id = e.dept AND e.salary > 100 AND i.type = 'CPU'"
  in
  let r1 = q db text in
  db.Starburst.Corona.optimizer.Generator.allow_bushy <- true;
  let r2 = q db text in
  db.Starburst.Corona.optimizer.Generator.allow_bushy <- false;
  check_bag "bushy agrees" r1 r2

let test_strategies_same_results () =
  let db = sample_db () in
  let text =
    "SELECT q.partno, i.onhand_qty FROM quotations q, inventory i WHERE \
     q.partno = i.partno AND q.price < 50 ORDER BY 1, 2"
  in
  let r_default = q db text in
  let sctx = db.Starburst.Corona.optimizer.Generator.sctx in
  sctx.Star.strategy <- Star.greedy_strategy;
  let r_greedy = q db text in
  sctx.Star.strategy <- Star.default_strategy;
  check_rows "greedy agrees" r_default r_greedy

let test_choose_resolution () =
  let db = sample_db () in
  (* quotations.partno is not unique, so the rewrite produces a CHOOSE;
     optimization must resolve it and execution must be correct *)
  check_bag "choose query"
    [ row [ i 1 ]; row [ i 2 ]; row [ i 3 ]; row [ i 4 ] ]
    (q db "SELECT partno FROM inventory WHERE partno IN (SELECT partno FROM quotations)");
  let p =
    plan_of db "SELECT partno FROM inventory WHERE partno IN (SELECT partno FROM quotations)"
  in
  Alcotest.(check bool) "no CHOOSE op survives" false
    (has_op (function Plan.Choose_op -> true | _ -> false) p)

let test_ship_property () =
  let db = sample_db () in
  Starburst.Extension.set_site_map db (fun t -> if t = "inventory" then "east" else "local");
  let p =
    plan_of db
      "SELECT q.partno FROM quotations q, inventory i WHERE q.partno = i.partno"
  in
  Alcotest.(check bool) "ship inserted" true
    (has_op (function Plan.Ship _ -> true | _ -> false) p);
  (* the answer is delivered to the query site *)
  Alcotest.(check string) "root site" "local" p.Plan.props.Plan.p_site;
  (* execution still correct *)
  check_bag "distributed result"
    [ row [ i 1 ]; row [ i 1 ]; row [ i 2 ]; row [ i 3 ]; row [ i 4 ] ]
    (q db "SELECT q.partno FROM quotations q, inventory i WHERE q.partno = i.partno");
  Starburst.Extension.set_site_map db (fun _ -> "local")

(* the first join in a plan, preorder *)
let rec find_join (p : Plan.plan) =
  match p.Plan.op with
  | Plan.Join { j_method; _ } -> Some (j_method, p.Plan.inputs)
  | _ -> List.find_map find_join p.Plan.inputs

let scans_table table =
  has_op (function
    | Plan.Scan { sc_table; _ } -> sc_table = table
    | Plan.Idx_access { ix_table; _ } -> ix_table = table
    | _ -> false)

let test_hash_builds_on_filtered_dim () =
  let db = Starburst.create () in
  ignore (Starburst.run db "CREATE TABLE dim (d INT NOT NULL UNIQUE, grp INT, region STRING)");
  ignore (Starburst.run db "CREATE TABLE fact (id INT NOT NULL, d INT, qty INT)");
  let insert table n f =
    ignore
      (Starburst.run db
         (Printf.sprintf "INSERT INTO %s VALUES %s" table
            (String.concat "," (List.init n f))))
  in
  insert "dim" 500 (fun d -> Printf.sprintf "(%d, %d, 'r%d')" d (d mod 50) (d mod 8));
  insert "fact" 5000 (fun id -> Printf.sprintf "(%d, %d, %d)" id (id * 7 mod 500) (id mod 100));
  ignore (Starburst.run db "ANALYZE");
  (* the filter keeps 50 dim rows, a hundredth of the fact's 5000 *)
  let p =
    plan_of db
      "SELECT d.region, count(*), sum(f.qty) FROM fact f, dim d WHERE f.d = d.d \
       AND d.grp < 5 GROUP BY d.region"
  in
  match find_join p with
  | Some (Plan.Hash_join, [ outer; inner ]) ->
    Alcotest.(check bool) "probes with the fact" true (scans_table "fact" outer);
    Alcotest.(check bool) "builds on the dim" true (scans_table "dim" inner)
  | _ -> Alcotest.fail "expected a hash join"

let test_key_join_keeps_hash () =
  let db = key_join_db () in
  (* a unique-key probe joined to a 100-row table: building the hash
     table on the one probed row beats re-reading a TEMP per outer row *)
  let p = plan_of db key_join_query in
  match find_join p with
  | Some (Plan.Hash_join, [ outer; inner ]) ->
    Alcotest.(check bool) "probes with the branch" true (scans_table "branch" outer);
    Alcotest.(check bool) "builds on the probed account row" true
      (has_op
         (function Plan.Idx_access { ix_table = "account"; _ } -> true | _ -> false)
         inner)
  | _ -> Alcotest.fail "expected a hash join"

let test_join_pays_for_inputs () =
  (* an inner that costs far more to produce than its one surviving row
     costs to hash or merge *)
  let values n = Cost.mk_values (List.init n (fun k -> [ Plan.RLit (Value.Int k) ])) ~width:1 in
  let outer = values 100 in
  let inner = Cost.mk_filter ~info:Cost.no_info [ Plan.RLit (Value.Bool false) ] (values 5000) in
  List.iter
    (fun (name, method_) ->
      let j =
        Cost.mk_join ~method_ ~kind:Plan.J_regular ~equi:[ (0, 0) ] ~pred:None
          ~kind_pred:None ~corr:[] ~sel:0.01 outer inner
      in
      Alcotest.(check bool) (name ^ " pays for both inputs") true
        (j.Plan.props.Plan.p_cost >= outer.Plan.props.Plan.p_cost +. inner.Plan.props.Plan.p_cost))
    [ ("hash", Plan.Hash_join); ("merge", Plan.Sort_merge) ]

let test_star_inventory () =
  let db = sample_db () in
  let sctx = db.Starburst.Corona.optimizer.Generator.sctx in
  (* the paper: R* strategies in under 20 rules *)
  Alcotest.(check bool) "under 20 alternatives" true (Star.alternative_count sctx < 20);
  Alcotest.(check bool) "at least the base STARs" true (Star.star_count sctx >= 4)

let test_custom_star () =
  let db = sample_db () in
  let invoked = ref false in
  Starburst.Extension.register_star db "TableAccess"
    [
      {
        Star.alt_name = "spy";
        alt_rank = 2;
        alt_cond =
          (fun _ _ ->
            invoked := true;
            false);
        alt_produce = (fun _ _ -> []);
      };
    ];
  ignore (plan_of db "SELECT partno FROM quotations");
  Alcotest.(check bool) "custom alternative consulted" true !invoked

let test_property_functions () =
  let db = big_db () in
  let p = plan_of db "SELECT k FROM big WHERE grp = 3" in
  (* estimated cardinality should be near 100 (2000 rows / 20 groups) *)
  let card = p.Plan.props.Plan.p_card in
  Alcotest.(check bool) "card estimate sane" true (card > 20.0 && card < 500.0);
  Alcotest.(check bool) "cost positive" true (p.Plan.props.Plan.p_cost > 0.0)

let suite =
  ( "optimizer",
    [
      case "index selection" test_index_selection;
      case "index matches scan results" test_index_results_match_scan;
      case "join method choice" test_join_method_choice;
      case "sort glue" test_sort_glue;
      case "order by after optimization" test_order_by_correct_after_optimizer;
      case "join enumeration space toggles" test_join_enumeration_space;
      case "join order quality" test_join_order_quality;
      case "disconnected joins fall back" test_disconnected_join_falls_back;
      case "bushy produces same results" test_bushy_same_results;
      case "strategies produce same results" test_strategies_same_results;
      case "CHOOSE resolution" test_choose_resolution;
      case "SHIP site property" test_ship_property;
      case "STAR inventory under 20 rules" test_star_inventory;
      case "custom STAR alternative" test_custom_star;
      case "property functions" test_property_functions;
      case "hash join builds on the filtered dim" test_hash_builds_on_filtered_dim;
      case "key join keeps the hash join" test_key_join_keeps_hash;
      case "joins pay for both inputs" test_join_pays_for_inputs;
    ] )
