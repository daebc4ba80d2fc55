(** The base system's STAR array.

    "Using STARs, we can readily express all the strategies of the R*
    optimizer ... all in under 20 rules" — this file holds those rules:
    table access (scan and index), the three join methods separated from
    join kinds, and the two glue STARs (order and site) that establish
    required properties, adding SORT or SHIP when needed. *)

module Ast = Sb_hydrogen.Ast
open Sb_storage
open Plan
open Star

(* ------------------------------------------------------------------ *)
(* Probe matching for index access                                     *)
(* ------------------------------------------------------------------ *)

(** Built-in matcher for single-column B-tree attachments: recognizes
    [col = v] (equality probe) and ranges [col < v], [v <= col], ...
    where [v] is a literal, host variable or correlation parameter. *)
let btree_matcher : probe_matcher =
 fun am preds ->
  if am.Access_method.am_kind <> "btree" then None
  else
    match am.Access_method.am_columns with
    | [ key ] -> (
      (* any expression not reading the row is a probe constant
         (literals, host variables, parameters, constant functions) *)
      let is_const e = slots_used e = [] && not (rexpr_has_sub e) in
      let eq =
        List.find_opt
          (fun p ->
            match p with
            | RBin (Ast.Eq, RCol c, v) | RBin (Ast.Eq, v, RCol c) ->
              c = key && is_const v
            | _ -> false)
          preds
      in
      match eq with
      | Some (RBin (Ast.Eq, RCol _, v) | RBin (Ast.Eq, v, RCol _)) ->
        Some (Pr_eq [ v ], -1.0 (* computed by caller *), [ eq |> Option.get ])
      | _ ->
        (* range bounds *)
        let lo = ref None and hi = ref None and absorbed = ref [] in
        List.iter
          (fun p ->
            let bound op v =
              match op with
              | Ast.Gt when !lo = None ->
                lo := Some (v, false);
                absorbed := p :: !absorbed
              | Ast.Ge when !lo = None ->
                lo := Some (v, true);
                absorbed := p :: !absorbed
              | Ast.Lt when !hi = None ->
                hi := Some (v, false);
                absorbed := p :: !absorbed
              | Ast.Le when !hi = None ->
                hi := Some (v, true);
                absorbed := p :: !absorbed
              | _ -> ()
            in
            match p with
            | RBin (op, RCol c, v) when c = key && is_const v -> bound op v
            | RBin (op, v, RCol c) when c = key && is_const v ->
              bound (Ast.flip_comparison op) v
            | _ -> ())
          preds;
        if !lo = None && !hi = None then None
        else Some (Pr_range (!lo, !hi), -1.0, !absorbed))
    | _ -> None

(* ------------------------------------------------------------------ *)
(* TableAccess STAR                                                    *)
(* ------------------------------------------------------------------ *)

let table_access_scan : alternative =
  {
    alt_name = "scan";
    alt_rank = 0;
    alt_cond = (fun _ _ -> true);
    alt_produce =
      (fun ctx pl ->
        [
          Cost.mk_scan ~table:pl.pl_table ~stats:pl.pl_stats
            ~site:(ctx.site_of pl.pl_table) ~quant:pl.pl_quant ~cols:pl.pl_cols
            ~preds:pl.pl_preds ~info:pl.pl_info ();
        ]);
  }

let table_access_index : alternative =
  {
    alt_name = "index";
    alt_rank = 1;
    alt_cond = (fun _ pl -> pl.pl_attachments <> []);
    alt_produce =
      (fun ctx pl ->
        List.concat_map
          (fun am ->
            let matchers = !(ctx.probe_matchers) @ [ btree_matcher ] in
            match List.find_map (fun m -> m am pl.pl_preds) matchers with
            | None -> []
            | Some (probe, sel, absorbed) ->
              let residual =
                List.filter (fun p -> not (List.memq p absorbed)) pl.pl_preds
              in
              let key_slots = am.Access_method.am_columns in
              let sel =
                if sel >= 0.0 then sel
                else Cost.probe_selectivity pl.pl_info ~key_slots probe
              in
              let ordered_on =
                if am.Access_method.am_ordered then
                  (* order on the key columns that survive into output
                     slots, as a prefix *)
                  let rec prefix = function
                    | [] -> []
                    | c :: rest -> (
                      match
                        List.find_index (fun x -> x = c) pl.pl_cols
                      with
                      | Some slot -> (slot, Ast.Asc) :: prefix rest
                      | None -> [])
                  in
                  prefix am.Access_method.am_columns
                else []
              in
              [
                Cost.mk_idx_access ~table:pl.pl_table
                  ~index:am.Access_method.am_name ~stats:pl.pl_stats
                  ~site:(ctx.site_of pl.pl_table) ~quant:pl.pl_quant
                  ~cols:pl.pl_cols ~probe ~probe_sel:sel ~ordered_on
                  ~preds:residual ~info:pl.pl_info ();
              ])
          pl.pl_attachments);
  }

(** Index ANDing (section 6's strategy list): when two or more distinct
    attachments each answer part of the predicate, intersect their rid
    sets before fetching. *)
let table_access_index_and : alternative =
  let matches ctx pl =
    let matchers = !(ctx.probe_matchers) @ [ btree_matcher ] in
    List.filter_map
      (fun am ->
        match List.find_map (fun m -> m am pl.pl_preds) matchers with
        | Some (probe, sel, absorbed) ->
          let sel =
            if sel >= 0.0 then sel
            else
              Cost.probe_selectivity pl.pl_info
                ~key_slots:am.Access_method.am_columns probe
          in
          Some (am, probe, sel, absorbed)
        | None -> None)
      pl.pl_attachments
  in
  {
    alt_name = "index-and";
    alt_rank = 2;
    alt_cond = (fun ctx pl -> List.length (matches ctx pl) >= 2);
    alt_produce =
      (fun ctx pl ->
        let ms = matches ctx pl in
        let absorbed_all = List.concat_map (fun (_, _, _, a) -> a) ms in
        let residual =
          List.filter (fun p -> not (List.memq p absorbed_all)) pl.pl_preds
        in
        [
          Cost.mk_idx_and ~table:pl.pl_table ~stats:pl.pl_stats
            ~site:(ctx.site_of pl.pl_table) ~quant:pl.pl_quant ~cols:pl.pl_cols
            ~probes:
              (List.map
                 (fun (am, probe, sel, _) ->
                   (am.Access_method.am_name, probe, sel))
                 ms)
            ~preds:residual ~info:pl.pl_info ();
        ]);
  }

(* ------------------------------------------------------------------ *)
(* Glue STARs                                                          *)
(* ------------------------------------------------------------------ *)

let ordered_have : alternative =
  {
    alt_name = "already-ordered";
    alt_rank = 0;
    alt_cond =
      (fun _ pl ->
        match pl.pl_plan with
        | Some p -> order_satisfies ~have:p.props.p_order ~want:pl.pl_keys
        | None -> false);
    alt_produce = (fun _ pl -> [ Option.get pl.pl_plan ]);
  }

let ordered_sort : alternative =
  {
    alt_name = "sort";
    alt_rank = 0;
    alt_cond =
      (fun _ pl ->
        match pl.pl_plan with
        | Some p -> not (order_satisfies ~have:p.props.p_order ~want:pl.pl_keys)
        | None -> false);
    alt_produce = (fun _ pl -> [ Cost.mk_sort pl.pl_keys (Option.get pl.pl_plan) ]);
  }

let cosite_have : alternative =
  {
    alt_name = "already-local";
    alt_rank = 0;
    alt_cond =
      (fun _ pl ->
        match pl.pl_plan with
        | Some p -> p.props.p_site = pl.pl_site
        | None -> false);
    alt_produce = (fun _ pl -> [ Option.get pl.pl_plan ]);
  }

let cosite_ship : alternative =
  {
    alt_name = "ship";
    alt_rank = 0;
    alt_cond =
      (fun _ pl ->
        match pl.pl_plan with
        | Some p -> p.props.p_site <> pl.pl_site
        | None -> false);
    alt_produce = (fun _ pl -> [ Cost.mk_ship pl.pl_site (Option.get pl.pl_plan) ]);
  }

(* ------------------------------------------------------------------ *)
(* JoinRoot STAR: methods x kinds                                      *)
(* ------------------------------------------------------------------ *)

(** Which methods can implement which kinds ("this does not imply that
    every join method can be combined with every join kind"). *)
let method_supports_kind method_ kind =
  match method_, kind with
  | Nested_loop, _ -> true
  | (Sort_merge | Hash_join), (J_regular | J_exists) -> true
  | (Sort_merge | Hash_join), (J_all | J_scalar | J_set_pred _ | J_ext _) -> false

let co_sited ctx pl (outer : plan) (inner : plan) k =
  let inner' =
    match
      invoke ctx "CoSite" { pl with pl_plan = Some inner; pl_site = outer.props.p_site }
    with
    | p :: _ -> p
    | [] -> inner
  in
  k inner'

let join_sel pl (outer : plan) (_inner : plan) =
  Cost.join_selectivity ~outer_info:pl.pl_info
    ~inner_info:(fun i -> pl.pl_info (Array.length outer.props.p_slots + i))
    ~equi:pl.pl_equi ~pred:pl.pl_pred ~info_joined:pl.pl_info

let join_nl : alternative =
  {
    alt_name = "nested-loop";
    alt_rank = 0;
    alt_cond = (fun _ _ -> true);
    alt_produce =
      (fun ctx pl ->
        let outer = Option.get pl.pl_outer and inner = Option.get pl.pl_inner in
        co_sited ctx pl outer inner (fun inner ->
            (* the full predicate (equi conjuncts included) is evaluated
               by the NL join *)
            let equi_pred =
              List.map
                (fun (o, i) ->
                  RBin (Ast.Eq, RCol o, RCol (Array.length outer.props.p_slots + i)))
                pl.pl_equi
            in
            let pred =
              match equi_pred @ Option.to_list pl.pl_pred with
              | [] -> None
              | e :: rest ->
                Some (List.fold_left (fun a b -> RBin (Ast.And, a, b)) e rest)
            in
            let inner = if pl.pl_corr = [] then Cost.mk_temp inner else inner in
            [
              Cost.mk_join ~bound:pl.pl_bound ~method_:Nested_loop
                ~kind:pl.pl_kind ~equi:[] ~pred ~kind_pred:pl.pl_kind_pred
                ~corr:pl.pl_corr ~sel:(join_sel pl outer inner) outer inner;
            ]));
  }

let join_merge : alternative =
  {
    alt_name = "sort-merge";
    alt_rank = 1;
    alt_cond =
      (fun _ pl ->
        pl.pl_equi <> [] && pl.pl_corr = []
        && method_supports_kind Sort_merge pl.pl_kind);
    alt_produce =
      (fun ctx pl ->
        let outer = Option.get pl.pl_outer and inner = Option.get pl.pl_inner in
        co_sited ctx pl outer inner (fun inner ->
            let okeys = List.map (fun (o, _) -> (o, Ast.Asc)) pl.pl_equi in
            let ikeys = List.map (fun (_, i) -> (i, Ast.Asc)) pl.pl_equi in
            let outers = invoke ctx "Ordered" { pl with pl_plan = Some outer; pl_keys = okeys } in
            let inners = invoke ctx "Ordered" { pl with pl_plan = Some inner; pl_keys = ikeys } in
            List.concat_map
              (fun o ->
                List.map
                  (fun i ->
                    Cost.mk_join ~bound:pl.pl_bound ~method_:Sort_merge
                      ~kind:pl.pl_kind ~equi:pl.pl_equi ~pred:pl.pl_pred
                      ~kind_pred:pl.pl_kind_pred ~corr:[]
                      ~sel:(join_sel pl o i) o i)
                  inners)
              outers));
  }

let join_hash : alternative =
  {
    alt_name = "hash";
    alt_rank = 1;
    alt_cond =
      (fun _ pl ->
        pl.pl_equi <> [] && pl.pl_corr = []
        && method_supports_kind Hash_join pl.pl_kind);
    alt_produce =
      (fun ctx pl ->
        let outer = Option.get pl.pl_outer and inner = Option.get pl.pl_inner in
        co_sited ctx pl outer inner (fun inner ->
            [
              Cost.mk_join ~bound:pl.pl_bound ~method_:Hash_join
                ~kind:pl.pl_kind ~equi:pl.pl_equi ~pred:pl.pl_pred
                ~kind_pred:pl.pl_kind_pred ~corr:[]
                ~sel:(join_sel pl outer inner) outer inner;
            ]));
  }

(** Installs the base STAR array into [ctx]. *)
let install ctx =
  register ctx "TableAccess"
    [ table_access_scan; table_access_index; table_access_index_and ];
  register ctx "Ordered" [ ordered_have; ordered_sort ];
  register ctx "CoSite" [ cosite_have; cosite_ship ];
  register ctx "JoinRoot" [ join_nl; join_merge; join_hash ]
