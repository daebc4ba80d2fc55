(** The cost model and per-LOLEPOP property functions.

    "Each LOLEPOP changes selected properties of its operands, in a way
    influenced by its parameters, usually adding cost.  These changes,
    including the appropriate cost and cardinality estimates, are
    defined by a ... function for each LOLEPOP" (section 6).  The smart
    constructors below are exactly those property functions: each builds
    a plan node and derives its output properties from its operands'. *)

open Sb_storage
module Ast = Sb_hydrogen.Ast
open Plan

(* --- cost constants (abstract units: 1.0 = one page I/O) --- *)

let io_page = 1.0
let cpu_tuple = 0.01
let cpu_pred = 0.004
let hash_tuple = 0.02
let sort_tuple_log = 0.015
let ship_tuple = 0.08
let temp_tuple = 0.01
(* root-to-leaf descent / fetching one row through an index *)
let index_probe = 2.5
let fetch_row = 0.3

(** Maps an output slot to the base-table statistics of the column it
    carries, when known. *)
type slot_info = int -> (Stats.t * int) option

let no_info : slot_info = fun _ -> None

(* ------------------------------------------------------------------ *)
(* Selectivity                                                         *)
(* ------------------------------------------------------------------ *)

let clamp s = Float.max 0.0001 (Float.min 1.0 s)

let rec selectivity (info : slot_info) (e : rexpr) : float =
  match e with
  | RLit (Value.Bool true) -> 1.0
  | RLit (Value.Bool false) -> 0.0
  | RBin (Ast.And, a, b) -> clamp (selectivity info a *. selectivity info b)
  | RBin (Ast.Or, a, b) ->
    let sa = selectivity info a and sb = selectivity info b in
    clamp (sa +. sb -. (sa *. sb))
  | RUn (Ast.Not, a) -> clamp (1.0 -. selectivity info a)
  | RBin (Ast.Eq, RCol i, (RLit _ | RUn (Ast.Neg, RLit _)))
  | RBin (Ast.Eq, (RLit _ | RUn (Ast.Neg, RLit _)), RCol i) -> (
    match info i with
    | Some (stats, col) -> clamp (Stats.eq_selectivity stats col)
    | None -> Stats.default_eq_selectivity)
  | RBin (Ast.Eq, RCol _, (RHost _ | RParam _))
  | RBin (Ast.Eq, (RHost _ | RParam _), RCol _) ->
    Stats.default_eq_selectivity
  | RBin (Ast.Neq, a, b) -> clamp (1.0 -. selectivity info (RBin (Ast.Eq, a, b)))
  | RBin (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), RCol i, RLit v) -> (
    match info i with
    | Some (stats, col) ->
      let o =
        match op with
        | Ast.Lt -> `Lt
        | Ast.Le -> `Le
        | Ast.Gt -> `Gt
        | Ast.Ge -> `Ge
        | _ -> assert false
      in
      clamp (Stats.range_selectivity stats col ~op:o v)
    | None -> Stats.default_range_selectivity)
  | RBin (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), RLit v, RCol i) ->
    selectivity info (RBin (Ast.flip_comparison op, RCol i, RLit v))
  | RBin ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _) ->
    Stats.default_range_selectivity
  | RBin (Ast.Eq, _, _) -> Stats.default_eq_selectivity
  | RLike _ -> 0.1
  | RIs_null (RCol i) -> (
    match info i with
    | Some (stats, col) when stats.Stats.ts_cardinality > 0
                             && col < Array.length stats.Stats.ts_columns ->
      clamp
        (float_of_int stats.Stats.ts_columns.(col).Stats.cs_nulls
        /. float_of_int stats.Stats.ts_cardinality)
    | _ -> 0.05)
  | RIs_null _ -> 0.05
  | RSub { sub_kind = Sk_exists; _ } -> 0.5
  | RSub _ -> 0.3
  | _ -> 0.33

let conj_selectivity info preds =
  List.fold_left (fun acc p -> acc *. selectivity info p) 1.0 preds

(** Distinct values carried by a slot, when derivable. *)
let slot_distinct (info : slot_info) i =
  match info i with
  | Some (stats, col) -> Some (float_of_int (Stats.distinct_of stats col))
  | None -> None

(* ------------------------------------------------------------------ *)
(* Property functions (smart constructors)                             *)
(* ------------------------------------------------------------------ *)

let pred_eval_cost preds card = float_of_int (List.length preds) *. cpu_pred *. card

let mk_scan ~table ~(stats : Stats.t) ~site ~quant ~cols ~preds ~info () : plan =
  let n = float_of_int (max 1 stats.Stats.ts_cardinality) in
  let sel = conj_selectivity info preds in
  let props =
    {
      p_quants = [ quant ];
      p_slots = Array.of_list (List.map (fun c -> (quant, c)) cols);
      p_order = [];
      p_site = site;
      p_distinct = false;
      p_cost =
        (float_of_int (max 1 stats.Stats.ts_pages) *. io_page)
        +. (n *. cpu_tuple) +. pred_eval_cost preds n;
      p_card = Float.max 1.0 (n *. sel);
    }
  in
  { op = Scan { sc_table = table; sc_cols = cols; sc_preds = preds }; inputs = []; props }

let probe_selectivity (info : slot_info) ~key_slots = function
  | Pr_eq _ -> (
    (* product of 1/distinct over the key columns *)
    List.fold_left
      (fun acc slot ->
        match slot_distinct info slot with
        | Some d -> acc /. Float.max 1.0 d
        | None -> acc *. Stats.default_eq_selectivity)
      1.0 key_slots
    |> clamp)
  | Pr_range (lo, hi) -> (
    let key = match key_slots with k :: _ -> Some k | [] -> None in
    let bound_sel op b =
      match b with
      | Some (RLit v, _) -> (
        match Option.bind key info with
        | Some (stats, col) -> Stats.range_selectivity stats col ~op v
        | None -> Stats.default_range_selectivity)
      | Some _ -> Stats.default_range_selectivity
      | None -> 1.0
    in
    match lo, hi with
    | None, None -> 1.0
    | _ ->
      (* fraction below the high bound minus fraction below the low *)
      let below_hi = bound_sel `Le hi in
      let below_lo = if lo = None then 0.0 else bound_sel `Le lo in
      clamp (below_hi -. Float.min below_lo below_hi))
  | Pr_custom _ -> 0.05

let mk_idx_access ~table ~index ~(stats : Stats.t) ~site ~quant ~cols ~probe
    ~probe_sel ~ordered_on ~preds ~info () : plan =
  let n = float_of_int (max 1 stats.Stats.ts_cardinality) in
  let matched = Float.max 1.0 (n *. probe_sel) in
  let residual_sel = conj_selectivity info preds in
  let props =
    {
      p_quants = [ quant ];
      p_slots = Array.of_list (List.map (fun c -> (quant, c)) cols);
      p_order = ordered_on;
      p_site = site;
      p_distinct = false;
      p_cost =
        index_probe +. (matched *. (fetch_row +. cpu_tuple))
        +. pred_eval_cost preds matched;
      p_card = Float.max 1.0 (matched *. residual_sel);
    }
  in
  {
    op =
      Idx_access
        { ix_table = table; ix_index = index; ix_probe = probe; ix_cols = cols;
          ix_preds = preds };
    inputs = [];
    props;
  }

(** Property function for index ANDing: the matched set is the product
    of the probes' selectivities; each probe costs a descent plus leaf
    touches, and only the intersection is fetched. *)
let mk_idx_and ~table ~(stats : Stats.t) ~site ~quant ~cols
    ~(probes : (string * probe_spec * float) list) ~preds ~info () : plan =
  let n = float_of_int (max 1 stats.Stats.ts_cardinality) in
  let matched_each = List.map (fun (_, _, sel) -> Float.max 1.0 (n *. sel)) probes in
  let intersection =
    Float.max 1.0
      (List.fold_left (fun acc (_, _, sel) -> acc *. sel) 1.0 probes *. n)
  in
  let residual_sel = conj_selectivity info preds in
  let probe_cost =
    List.fold_left (fun acc m -> acc +. index_probe +. (m *. cpu_tuple)) 0.0
      matched_each
  in
  let props =
    {
      p_quants = [ quant ];
      p_slots = Array.of_list (List.map (fun c -> (quant, c)) cols);
      p_order = [];
      p_site = site;
      p_distinct = false;
      p_cost =
        probe_cost +. (intersection *. (fetch_row +. cpu_tuple))
        +. pred_eval_cost preds intersection;
      p_card = Float.max 1.0 (intersection *. residual_sel);
    }
  in
  {
    op =
      Idx_and
        {
          ia_table = table;
          ia_probes = List.map (fun (name, probe, _) -> (name, probe)) probes;
          ia_cols = cols;
          ia_preds = preds;
        };
    inputs = [];
    props;
  }

let mk_filter ~info preds (input : plan) : plan =
  if preds = [] then input
  else
    let sel = conj_selectivity info preds in
    let sub_cost =
      (* embedded subplans are charged per evaluation *)
      List.fold_left
        (fun acc p ->
          fold_rexpr
            (fun acc e ->
              match e with
              | RSub s -> acc +. s.sub_plan.props.p_cost
              | RScalar_sub s -> acc +. s.ssub_plan.props.p_cost
              | _ -> acc)
            acc p)
        0.0 preds
    in
    let props =
      {
        input.props with
        p_cost =
          input.props.p_cost
          +. pred_eval_cost preds input.props.p_card
          +. (sub_cost *. input.props.p_card *. 0.25 (* demand caching *));
        p_card = Float.max 1.0 (input.props.p_card *. sel);
      }
    in
    { op = Filter preds; inputs = [ input ]; props }

let mk_or_filter ~info disjuncts (input : plan) : plan =
  let sel =
    clamp
      (List.fold_left
         (fun acc d -> acc +. selectivity info d -. (acc *. selectivity info d))
         0.0 disjuncts)
  in
  let props =
    {
      input.props with
      p_cost =
        input.props.p_cost
        +. (float_of_int (List.length disjuncts) *. cpu_pred *. input.props.p_card);
      p_card = Float.max 1.0 (input.props.p_card *. sel);
    }
  in
  { op = Or_filter disjuncts; inputs = [ input ]; props }

let mk_project ?slots exprs (input : plan) : plan =
  let slots =
    match slots with
    | Some s -> s
    | None ->
      Array.of_list
        (List.map
           (function
             | RCol i when i < width input -> input.props.p_slots.(i)
             | _ -> computed_slot)
           exprs)
  in
  (* order is preserved when the ordering slots survive the projection *)
  let remap i =
    let found = ref None in
    List.iteri
      (fun j e -> if !found = None && e = RCol i then found := Some j)
      exprs;
    !found
  in
  let rec surviving = function
    | [] -> []
    | (i, d) :: rest -> (
      match remap i with
      | Some j -> (j, d) :: surviving rest
      | None -> [] (* prefix only *))
  in
  let props =
    {
      input.props with
      p_slots = slots;
      p_order = surviving input.props.p_order;
      p_cost = input.props.p_cost +. (cpu_tuple *. input.props.p_card);
      p_distinct = false;
    }
  in
  { op = Project exprs; inputs = [ input ]; props }

let mk_sort keys (input : plan) : plan =
  let n = input.props.p_card in
  let props =
    {
      input.props with
      p_order = keys;
      p_cost =
        input.props.p_cost
        +. (n *. sort_tuple_log *. Float.max 1.0 (Float.log (Float.max 2.0 n)));
    }
  in
  { op = Sort keys; inputs = [ input ]; props }

let mk_temp (input : plan) : plan =
  let props =
    { input.props with p_cost = input.props.p_cost +. (temp_tuple *. input.props.p_card) }
  in
  { op = Temp; inputs = [ input ]; props }

let mk_ship site (input : plan) : plan =
  if input.props.p_site = site then input
  else
    let props =
      {
        input.props with
        p_site = site;
        p_cost = input.props.p_cost +. (ship_tuple *. input.props.p_card);
      }
    in
    { op = Ship site; inputs = [ input ]; props }

let mk_limit n (input : plan) : plan =
  let props =
    { input.props with p_card = Float.min input.props.p_card (float_of_int n) }
  in
  { op = Limit_op n; inputs = [ input ]; props }

let mk_distinct ~info (input : plan) : plan =
  if input.props.p_distinct then input
  else
    let card =
      (* product of per-slot distinct counts bounds the result *)
      let bound =
        Array.to_list (Array.mapi (fun i _ -> i) input.props.p_slots)
        |> List.fold_left
             (fun acc i ->
               match slot_distinct info i with
               | Some d -> acc *. d
               | None -> acc *. 1000.0)
             1.0
      in
      Float.max 1.0 (Float.min input.props.p_card bound)
    in
    let props =
      {
        input.props with
        p_distinct = true;
        p_card = card;
        p_cost = input.props.p_cost +. (hash_tuple *. input.props.p_card);
      }
    in
    { op = Distinct_op; inputs = [ input ]; props }

(** Join selectivity from equi-join columns (Selinger's 1/max(d1,d2) per
    column pair). *)
let join_selectivity ~outer_info ~inner_info ~equi ~pred ~info_joined =
  let equi_sel =
    List.fold_left
      (fun acc (o, i) ->
        let d1 = Option.value ~default:100.0 (slot_distinct outer_info o) in
        let d2 = Option.value ~default:100.0 (slot_distinct inner_info i) in
        acc /. Float.max 1.0 (Float.max d1 d2))
      1.0 equi
  in
  let pred_sel =
    match pred with Some p -> selectivity info_joined p | None -> 1.0
  in
  clamp (equi_sel *. pred_sel)

(** Output cardinality for each join kind: quantified kinds emit at most
    one row per outer row. *)
let kind_card ~kind ~outer_card ~regular_card =
  match kind with
  | J_regular | J_ext _ -> Float.max 1.0 regular_card
  | J_exists | J_all | J_set_pred _ -> Float.max 1.0 (outer_card *. 0.5)
  | J_scalar -> Float.max 1.0 outer_card

let mk_join ?(bound = false) ~method_ ~kind ~equi ~pred ~kind_pred ~corr ~sel (outer : plan)
    (inner : plan) : plan =
  let no = outer.props.p_card and ni = inner.props.p_card in
  let regular_card = no *. ni *. sel in
  let card = kind_card ~kind ~outer_card:no ~regular_card in
  let method_cost =
    match method_ with
    | Nested_loop ->
      if corr = [] then
        (* inner produced once (TEMP is the caller's business), then
           re-read once per outer tuple *)
        inner.props.p_cost +. (no *. cpu_tuple) +. (no *. ni *. cpu_pred)
      else
        (* evaluate-on-demand: re-open the inner per distinct binding;
           assume half the openings hit the correlation cache *)
        no *. 0.5 *. inner.props.p_cost
    | Sort_merge -> inner.props.p_cost +. ((no +. ni) *. cpu_tuple *. 2.0)
    | Hash_join -> inner.props.p_cost +. (ni *. hash_tuple) +. (no *. cpu_tuple)
  in
  let out_slots =
    match kind with
    | J_regular | J_ext _ -> Array.append outer.props.p_slots inner.props.p_slots
    | J_exists | J_all | J_set_pred _ -> outer.props.p_slots
    | J_scalar -> Array.append outer.props.p_slots [| computed_slot |]
  in
  let order =
    match method_ with
    | Nested_loop -> outer.props.p_order
    | Sort_merge ->
      (* result ordered by the outer merge keys *)
      List.map (fun (o, _) -> (o, Ast.Asc)) equi
    | Hash_join -> []
  in
  let props =
    {
      p_quants =
        (match kind with
        | J_regular | J_ext _ ->
          List.sort_uniq Int.compare (outer.props.p_quants @ inner.props.p_quants)
        | _ -> outer.props.p_quants);
      p_slots = out_slots;
      p_order = order;
      p_site = outer.props.p_site;
      p_distinct = false;
      p_cost = outer.props.p_cost +. method_cost +. (card *. cpu_tuple);
      p_card = card;
    }
  in
  {
    op =
      Join
        { j_method = method_; j_kind = kind; j_equi = equi; j_pred = pred;
          j_corr = corr; j_kind_pred = kind_pred; j_bound = bound };
    inputs = [ outer; inner ];
    props;
  }

let mk_group ~keys ~aggs ~sorted ~info (input : plan) : plan =
  let n = input.props.p_card in
  let groups =
    if keys = [] then 1.0
    else
      let bound =
        List.fold_left
          (fun acc k ->
            match slot_distinct info k with
            | Some d -> acc *. d
            | None -> acc *. 30.0)
          1.0 keys
      in
      Float.max 1.0 (Float.min n bound)
  in
  let cost =
    input.props.p_cost
    +. (n *. (if sorted then cpu_tuple else hash_tuple))
    +. (n *. cpu_tuple *. float_of_int (List.length aggs))
  in
  let props =
    {
      input.props with
      p_slots =
        Array.append
          (Array.of_list (List.map (fun k -> input.props.p_slots.(k)) keys))
          (Array.make (List.length aggs) computed_slot);
      p_order = (if sorted then List.mapi (fun i _ -> (i, Ast.Asc)) keys else []);
      p_distinct = keys <> [];
      p_cost = cost;
      p_card = groups;
    }
  in
  { op = Group { g_keys = keys; g_aggs = aggs; g_sorted = sorted }; inputs = [ input ]; props }

let mk_setop op (l : plan) (r : plan) : plan =
  let nl = l.props.p_card and nr = r.props.p_card in
  let card, cost_extra, distinct =
    match op with
    | Union_all -> (nl +. nr, cpu_tuple *. (nl +. nr), false)
    | Intersect_op all -> (Float.min nl nr, hash_tuple *. (nl +. nr), not all)
    | Except_op all -> (nl, hash_tuple *. (nl +. nr), not all)
    | _ -> invalid_arg "mk_setop"
  in
  let props =
    {
      l.props with
      p_order = [];
      p_distinct = distinct;
      p_cost = l.props.p_cost +. r.props.p_cost +. cost_extra;
      p_card = Float.max 1.0 card;
    }
  in
  { op; inputs = [ l; r ]; props }

let mk_values rows ~width:w : plan =
  let props =
    {
      p_quants = [];
      p_slots = Array.make w computed_slot;
      p_order = [];
      p_site = "local";
      p_distinct = false;
      p_cost = cpu_tuple *. float_of_int (List.length rows);
      p_card = Float.max 1.0 (float_of_int (List.length rows));
    }
  in
  { op = Values_scan rows; inputs = []; props }

(** Property function for the Bloom reduction: the subject keeps the
    join selectivity's fraction of rows (plus ~5% false positives). *)
let mk_bloom ~subject_key ~source_key ~sel (subject : plan) (source : plan) : plan =
  let props =
    {
      subject.props with
      p_cost =
        subject.props.p_cost +. source.props.p_cost
        +. (cpu_tuple *. (subject.props.p_card +. source.props.p_card));
      p_card = Float.max 1.0 (subject.props.p_card *. Float.min 1.0 (sel *. 1.05));
    }
  in
  {
    op = Bloom_filter { bl_subject_key = subject_key; bl_source_key = source_key; bl_bits = 1 lsl 16 };
    inputs = [ subject; source ];
    props;
  }

let mk_fixpoint ~distinct (seed : plan) (step : plan) : plan =
  (* the fixpoint is assumed to run a handful of rounds over data of the
     seed's magnitude *)
  let rounds = 6.0 in
  let props =
    {
      seed.props with
      p_order = [];
      p_distinct = true;
      p_cost = seed.props.p_cost +. (rounds *. step.props.p_cost);
      p_card = Float.max 1.0 (seed.props.p_card *. rounds);
    }
  in
  { op = Fixpoint { fx_distinct = distinct }; inputs = [ seed; step ]; props }

let mk_rec_delta ~quant ~width:w ~card : plan =
  let props =
    {
      p_quants = [ quant ];
      p_slots = Array.init w (fun i -> (quant, i));
      p_order = [];
      p_site = "local";
      p_distinct = false;
      p_cost = cpu_tuple *. card;
      p_card = Float.max 1.0 card;
    }
  in
  { op = Rec_delta { rd_width = w }; inputs = []; props }

let mk_table_fn ~name ~args ~quant ~width:w (inputs : plan list) : plan =
  let in_card =
    List.fold_left (fun acc p -> acc +. p.props.p_card) 1.0 inputs
  in
  let props =
    {
      p_quants = [ quant ];
      p_slots = Array.init w (fun i -> (quant, i));
      p_order = [];
      p_site = "local";
      p_distinct = false;
      p_cost =
        List.fold_left (fun acc p -> acc +. p.props.p_cost) 0.0 inputs
        +. (cpu_tuple *. in_card);
      p_card = Float.max 1.0 in_card;
    }
  in
  { op = Table_fn_scan { tf_name = name; tf_args = args }; inputs; props }
