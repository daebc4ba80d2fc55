(** The plan optimizer driver: optimizes each QGM operation
    independently, bottom up, using the rule-driven plan generator
    (STARs, {!Star}) and the join enumerator (section 6, [ONO88]).

    Correlated subqueries compile to parameterized subplans; their
    parameters surface as [RParam]s bound by the enclosing join's
    evaluate-on-demand machinery at run time. *)

module Qgm = Sb_qgm.Qgm
module Ast = Sb_hydrogen.Ast
module Functions = Sb_hydrogen.Functions
open Sb_storage
open Plan

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

type t = {
  cat : Catalog.t;
  fns : Functions.t;
  sctx : Star.ctx;
  mutable allow_bushy : bool;  (** composite inners ("bushy trees") *)
  mutable allow_cartesian : bool;
  select_handlers : (t -> env -> Qgm.t -> Qgm.box -> Plan.plan option) list ref;
      (** extension hooks for SELECT boxes with extension setformers
          (e.g. the outer-join extension's PF handler) *)
  mutable use_analysis : bool;
      (** consult property inference ({!Sb_analysis.Infer}) to tighten
          cardinality estimates (key-covered joins, row bounds) *)
  mutable analysis : Sb_analysis.Infer.t option;
      (** inferred properties of the graph being optimized *)
  (* join-enumerator accounting, read by the bench harness *)
  mutable enum_subsets : int;
  mutable enum_pairs : int;
}

(** One parameter-collection environment; a fresh one is opened at every
    subplan boundary (subquery joins, residual subquery predicates). *)
and env = {
  e_params : ((int * int), int) Hashtbl.t;  (** (quant, col) -> param index *)
  mutable e_nparams : int;
  e_rec : (int * int) list;  (** recursive boxes under compilation: box id -> quant for deltas *)
}

let create ~catalog ~functions () : t =
  let sctx =
    Star.create ~catalog ~site_of:(fun table -> catalog.Catalog.site_of table) ()
  in
  Base_stars.install sctx;
  {
    cat = catalog;
    fns = functions;
    sctx;
    allow_bushy = false;
    allow_cartesian = false;
    select_handlers = ref [];
    use_analysis = true;
    analysis = None;
    enum_subsets = 0;
    enum_pairs = 0;
  }

let session t =
  { t with sctx = Star.session t.sctx; allow_bushy = false;
    allow_cartesian = false; use_analysis = true; analysis = None;
    enum_subsets = 0; enum_pairs = 0 }

let fresh_env ?(rec_ctx = []) () =
  { e_params = Hashtbl.create 4; e_nparams = 0; e_rec = rec_ctx }

let intern_param env key =
  match Hashtbl.find_opt env.e_params key with
  | Some i -> i
  | None ->
    let i = env.e_nparams in
    env.e_nparams <- i + 1;
    Hashtbl.replace env.e_params key i;
    i

let params_of env : (int * int) array =
  let a = Array.make env.e_nparams (-1, -1) in
  Hashtbl.iter (fun k i -> a.(i) <- k) env.e_params;
  a

(* ------------------------------------------------------------------ *)
(* Statistics helpers                                                  *)
(* ------------------------------------------------------------------ *)

let table_stats t name =
  match Catalog.find_table t.cat name with
  | Some tab ->
    let stats = tab.Table_store.stats in
    if stats.Stats.ts_cardinality = 0 && Table_store.tuple_count tab > 0 then
      Table_store.analyze tab
    else stats
  | None -> Stats.empty

(** Slot info for a plan, resolving slot provenance to base-table
    statistics through the QGM graph. *)
let plan_info t (g : Qgm.t) (p : plan) : Cost.slot_info =
 fun slot ->
  if slot < 0 || slot >= Array.length p.props.p_slots then None
  else
    let q, c = p.props.p_slots.(slot) in
    if q < 0 then None
    else
      match Hashtbl.find_opt g.Qgm.quants q with
      | None -> None
      | Some quant -> (
        match (Qgm.box g quant.Qgm.q_input).Qgm.b_kind with
        | Qgm.Base_table name -> Some (table_stats t name, c)
        | _ -> None)

(* ------------------------------------------------------------------ *)
(* Inferred-property helpers                                           *)
(* ------------------------------------------------------------------ *)

module Infer = Sb_analysis.Infer

(** Caps [p]'s cardinality estimate from above — never below one row,
    since downstream cost formulas divide by cardinalities. *)
let cap_card (cap : float) (p : plan) : plan =
  if cap < p.props.p_card then
    { p with props = { p.props with p_card = Float.max 1.0 cap } }
  else p

(** Caps a finished box plan by the box's inferred row bound
    ([bp_max_rows]: declared keys, GROUP BY key-range widths, LIMITs,
    single-row subquery proofs). *)
let clamp_box_card t (b : Qgm.box) (p : plan) : plan =
  match t.analysis with
  | None -> p
  | Some inf -> (
    match (Infer.box_props inf b.Qgm.b_id).Sb_analysis.Props.bp_max_rows with
    | Some n -> cap_card (float_of_int n) p
    | None -> p)

(** When the equi-join columns on one side cover a derived key of that
    side's quantifier, every row of the other side matches at most one
    row, so the join output is capped by the other side's estimate —
    the key/foreign-key case the default selectivity model
    underestimates for derived inputs (no statistics resolve). *)
let key_join_cap t (g : Qgm.t) ~(outer : plan) ~(inner : plan)
    ~(equi : (int * int) list) (p : plan) : plan =
  match t.analysis, equi with
  | None, _ | _, [] -> p
  | Some inf, _ ->
    let side_covered (side : plan) proj =
      match side.props.p_quants with
      | [ qid ] ->
        let cols =
          List.filter_map
            (fun eq ->
              let s = proj eq in
              if s >= 0 && s < Array.length side.props.p_slots then begin
                let q, c = side.props.p_slots.(s) in
                if q = qid && c >= 0 then Some c else None
              end
              else None)
            equi
        in
        cols <> []
        && Infer.quant_has_key inf g qid (List.sort_uniq Int.compare cols)
      | _ -> false
    in
    let p = if side_covered inner snd then cap_card outer.props.p_card p else p in
    if side_covered outer fst then cap_card inner.props.p_card p else p

(** All columns of quantifier [q] referenced anywhere in the graph. *)
let needed_cols (g : Qgm.t) qid : int list =
  let cols = ref [] in
  let note e =
    List.iter (fun (q, i) -> if q = qid then cols := i :: !cols) (Qgm.col_refs e)
  in
  Hashtbl.iter (fun _ b -> Qgm.iter_box_exprs note b) g.Qgm.boxes;
  List.sort_uniq Int.compare !cols

(** Quantifiers referenced inside the subtree rooted at [box_id] that do
    not belong to it — correlations to enclosing scopes, or to sibling
    setformers (lateral references). *)
let free_quant_refs (g : Qgm.t) box_id : int list =
  let seen = Hashtbl.create 8 in
  let owned = Hashtbl.create 16 in
  let refs = ref [] in
  let note e = refs := Qgm.quant_refs e @ !refs in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      let b = Qgm.box g id in
      List.iter (fun q -> Hashtbl.replace owned q.Qgm.q_id ()) b.Qgm.b_quants;
      Qgm.iter_box_exprs note b;
      List.iter (fun q -> visit q.Qgm.q_input) b.Qgm.b_quants
    end
  in
  visit box_id;
  List.sort_uniq Int.compare !refs
  |> List.filter (fun r -> not (Hashtbl.mem owned r))

(* Splits join conjuncts into equi slot pairs [(outer slot, inner slot)]
   (a column equality with one side in each input, either way round) and
   the rest.  Both lists come out in reverse order of [exprs]. *)
let split_equi ~(outer : plan) ~(inner : plan) (exprs : Qgm.expr list) :
    (int * int) list * Qgm.expr list =
  List.fold_left
    (fun (equi, rest) e ->
      match e with
      | Qgm.Bin (Ast.Eq, Qgm.Col (q1, c1), Qgm.Col (q2, c2)) -> (
        match (slot_of outer (q1, c1), slot_of inner (q2, c2)) with
        | Some o, Some i -> ((o, i) :: equi, rest)
        | _ -> (
          match (slot_of outer (q2, c2), slot_of inner (q1, c1)) with
          | Some o, Some i -> ((o, i) :: equi, rest)
          | _ -> (equi, e :: rest)))
      | e -> (equi, e :: rest))
    ([], []) exprs

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

(** [slotmap] resolves local column references to slots; anything it
    cannot resolve becomes a correlation parameter of [env].  Scalar
    subquery quantifiers compile to embedded subplans. *)
let rec compile_expr t ~(g : Qgm.t) ~env ~slotmap (e : Qgm.expr) : rexpr =
  let recur = compile_expr t ~g ~env ~slotmap in
  match e with
  | Qgm.Lit v -> RLit v
  | Qgm.Host v -> RHost v
  | Qgm.Col (qid, i) -> (
    match slotmap (qid, i) with
    | Some s -> RCol s
    | None -> (
      match Hashtbl.find_opt g.Qgm.quants qid with
      | Some q when q.Qgm.q_type = Qgm.S ->
        (* scalar subquery *)
        let sub, params = compile_box t ~g ~rec_ctx:env.e_rec q.Qgm.q_input in
        let ssub_params =
          Array.to_list params |> List.map (fun key -> recur (Qgm.Col (fst key, snd key)))
        in
        RScalar_sub { ssub_plan = sub; ssub_params }
      | _ -> RParam (intern_param env (qid, i))))
  | Qgm.Bin (op, a, b) -> RBin (op, recur a, recur b)
  | Qgm.Un (op, a) -> RUn (op, recur a)
  | Qgm.Fun (n, args) -> RFun (n, List.map recur args)
  | Qgm.Agg _ -> unsupported "aggregate outside GROUP BY compilation"
  | Qgm.Case (arms, els) ->
    RCase (List.map (fun (c, v) -> (recur c, recur v)) arms, Option.map recur els)
  | Qgm.Is_null a -> RIs_null (recur a)
  | Qgm.Like (a, p) -> RLike (recur a, p)
  | Qgm.Quantified (qid, inner) ->
    (* residual quantified predicate: an embedded subplan (the uniform
       mechanism behind the OR operator, section 7) *)
    let q = Qgm.quant g qid in
    let sub, params = compile_box t ~g ~rec_ctx:env.e_rec q.Qgm.q_input in
    let sub_env = fresh_env ~rec_ctx:env.e_rec () in
    (* inner predicate: subquery columns are inner slots; everything
       else becomes a parameter of the sub_spec *)
    let inner_slotmap (iq, ic) = if iq = qid then Some ic else None in
    let sub_pred = compile_expr t ~g ~env:sub_env ~slotmap:inner_slotmap inner in
    (* parameter sources: subplan correlation params first, then the
       inner-pred params *)
    let all_params =
      Array.to_list params @ Array.to_list (params_of sub_env)
    in
    (* renumber: sub_pred params came after plan params *)
    let sub_pred =
      map_rexpr
        (function
          | RParam i -> RParam (Array.length params + i)
          | e -> e)
        sub_pred
    in
    let sub_params = List.map (fun (q, c) -> recur (Qgm.Col (q, c))) all_params in
    let sub_kind =
      match q.Qgm.q_type with
      | Qgm.E -> Sk_exists
      | Qgm.A -> Sk_all
      | Qgm.SP name -> Sk_set_pred name
      | Qgm.F | Qgm.S | Qgm.Ext _ ->
        unsupported "Quantified over setformer quantifier"
    in
    (* the subplan's own RParams index into the same parameter list
       prefix, which is the layout the executor expects *)
    RSub { sub_kind; sub_plan = sub; sub_params; sub_pred }

(* ------------------------------------------------------------------ *)
(* Access plans for one quantifier                                     *)
(* ------------------------------------------------------------------ *)

(** Plans for iterating quantifier [q], with [preds] (QGM conjuncts
    referencing only [q] locally) pushed as close to the data as
    possible. *)
and access_plans ?(all_cols = false) t ~g ~env (q : Qgm.quant)
    (preds : Qgm.expr list) : plan list =
  let input = Qgm.box g q.Qgm.q_input in
  match List.assoc_opt q.Qgm.q_input env.e_rec with
  | Some w ->
    (* a reference to the table being computed by an enclosing fixpoint:
       iterate the current delta *)
    let delta = Cost.mk_rec_delta ~quant:q.Qgm.q_id ~width:w ~card:128.0 in
    let slotmap (pq, pc) = if pq = q.Qgm.q_id then Some pc else None in
    let rpreds = List.map (compile_expr t ~g ~env ~slotmap) preds in
    [ Cost.mk_filter ~info:Cost.no_info rpreds delta ]
  | None -> (
  match input.Qgm.b_kind with
  | Qgm.Base_table name ->
    let tab =
      match Catalog.find_table t.cat name with
      | Some tab -> tab
      | None -> unsupported "table %s disappeared" name
    in
    let stats = table_stats t name in
    let cols =
      if all_cols then List.init (Array.length tab.Table_store.schema) Fun.id
      else
        match needed_cols g q.Qgm.q_id with
        | [] -> [ 0 ]  (* existence-only access still needs one column *)
        | cols -> cols
    in
    (* predicates over base column indices; non-local refs -> params *)
    let slotmap (pq, pc) = if pq = q.Qgm.q_id then Some pc else None in
    let rpreds = List.map (compile_expr t ~g ~env ~slotmap) preds in
    let info slot =
      if slot >= 0 && slot < Array.length tab.Table_store.schema then
        Some (stats, slot)
      else None
    in
    let payload =
      Star.make_payload ~quant:q.Qgm.q_id ~table:name ~stats ~cols ~preds:rpreds
        ~info ~attachments:tab.Table_store.attachments ()
    in
    let plans = Star.invoke t.sctx "TableAccess" payload in
    (* scan predicates are over column indices; re-expressed over output
       slots happens inside the executor, so nothing more to do *)
    plans
  | _ ->
    (* derived table (or recursive delta): compile the box, relabel its
       output to this quantifier, then filter *)
    let sub, params = compile_box t ~g ~rec_ctx:env.e_rec q.Qgm.q_input in
    (* the subplan is embedded inline, so its correlation parameters
       must live in this env's numbering *)
    let sub =
      if Array.length params = 0 then sub
      else begin
        let remap = Array.map (fun key -> intern_param env key) params in
        renumber_params (fun i -> remap.(i)) sub
      end
    in
    let relabeled =
      {
        sub with
        props =
          {
            sub.props with
            p_quants = [ q.Qgm.q_id ];
            p_slots = Array.mapi (fun i _ -> (q.Qgm.q_id, i)) sub.props.p_slots;
          };
      }
    in
    let slotmap (pq, pc) = if pq = q.Qgm.q_id then Some pc else None in
    let rpreds = List.map (compile_expr t ~g ~env ~slotmap) preds in
    [ Cost.mk_filter ~info:(plan_info t g relabeled) rpreds relabeled ])

(* ------------------------------------------------------------------ *)
(* Join enumeration                                                    *)
(* ------------------------------------------------------------------ *)

(** Enumerates join orders for the setformers of a SELECT box by
    iteratively constructing progressively larger iterator sets from
    two smaller ones.  Composite inners and Cartesian products are
    pruned unless enabled (the R*-compatible default). *)
and enumerate_joins t ~g ~env ~(quants : Qgm.quant list)
    ~(accesses : (int * plan list) list) ~(join_preds : Qgm.expr list) :
    plan list =
  let n = List.length quants in
  let qid_arr = Array.of_list (List.map (fun q -> q.Qgm.q_id) quants) in
  let idx_of qid =
    let rec go i = if qid_arr.(i) = qid then i else go (i + 1) in
    go 0
  in
  let full = (1 lsl n) - 1 in
  let memo : (int, plan list) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i q -> Hashtbl.replace memo (1 lsl i) (List.assoc q.Qgm.q_id accesses))
    quants;
  (* precompute which quantifier mask each join predicate needs *)
  let pred_masks =
    List.map
      (fun p ->
        let local =
          List.filter_map
            (fun qid ->
              if Array.exists (fun x -> x = qid) qid_arr then
                Some (1 lsl idx_of qid)
              else None)
            (Qgm.quant_refs p)
        in
        (List.fold_left ( lor ) 0 local, p))
      join_preds
  in
  let slotmap_of (outer : plan) (inner : plan) (qc : int * int) =
    match slot_of outer qc with
    | Some s -> Some s
    | None -> (
      match slot_of inner qc with
      | Some s -> Some (Array.length outer.props.p_slots + s)
      | None -> None)
  in
  let try_join allow_cartesian m1 m2 acc =
    let union = m1 lor m2 in
    let applicable =
      List.filter
        (fun (mask, _) ->
          mask land union = mask && mask land m1 <> 0 && mask land m2 <> 0)
        pred_masks
    in
    if applicable = [] && not allow_cartesian then acc
    else begin
      t.enum_pairs <- t.enum_pairs + 1;
      let outers = try Hashtbl.find memo m1 with Not_found -> [] in
      let inners = try Hashtbl.find memo m2 with Not_found -> [] in
      let preds = List.map snd applicable in
      List.fold_left
        (fun acc outer ->
          List.fold_left
            (fun acc inner ->
              let equi, rest = split_equi ~outer ~inner preds in
              let pred =
                match rest with
                | [] -> None
                | es ->
                  let compiled =
                    List.map
                      (fun e ->
                        compile_expr t ~g ~env ~slotmap:(slotmap_of outer inner) e)
                      es
                  in
                  Some
                    (match compiled with
                    | e :: tl -> List.fold_left (fun a b -> RBin (Ast.And, a, b)) e tl
                    | [] -> assert false)
              in
              let payload =
                Star.make_payload ~outer ~inner ~kind:J_regular ~equi
                  ?pred ~info:(plan_info t g outer) ()
              in
              List.map
                (key_join_cap t g ~outer ~inner ~equi)
                (Star.invoke t.sctx "JoinRoot" payload)
              @ acc)
            acc outers)
        acc inners
      |> fun x -> x
    end
  in
  let run allow_cartesian =
    Hashtbl.reset memo;
    List.iteri
      (fun i q -> Hashtbl.replace memo (1 lsl i) (List.assoc q.Qgm.q_id accesses))
      quants;
    for size = 2 to n do
      for m = 1 to full do
        if
          (* popcount m = size *)
          let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
          pop m = size
        then begin
          t.enum_subsets <- t.enum_subsets + 1;
          let plans = ref [] in
          (* split m into outer m1 and inner m2 *)
          let rec submasks s =
            if s = 0 then ()
            else begin
              let m2 = s and m1 = m lxor s in
              if m1 <> 0 then begin
                let inner_is_single = m2 land (m2 - 1) = 0 in
                if t.allow_bushy || inner_is_single then
                  plans := try_join allow_cartesian m1 m2 !plans
              end;
              submasks ((s - 1) land m)
            end
          in
          submasks m;
          Hashtbl.replace memo m (t.sctx.Star.strategy.Star.st_prune !plans)
        end
      done
    done;
    try Hashtbl.find memo full with Not_found -> []
  in
  let plans =
    if n = 1 then List.assoc (List.hd quants).Qgm.q_id accesses
    else
      match run t.allow_cartesian with
      | [] -> (
        (* disconnected join graph: retry allowing Cartesian products *)
        match run true with
        | [] -> unsupported "join enumeration produced no plan"
        | plans -> plans)
      | plans -> plans
  in
  (* the answer is delivered to the query site: a plan left at a remote
     site pays to ship its result back, which can reorder the prune's
     cost ranking, and the caller takes the head *)
  List.map (Cost.mk_ship "local") plans
  |> List.stable_sort (fun (a : plan) b -> Float.compare a.props.p_cost b.props.p_cost)

(* ------------------------------------------------------------------ *)
(* Subquery application (joins with special kinds)                     *)
(* ------------------------------------------------------------------ *)

(** Applies one subquery quantifier consumed as a whole-conjunct
    [Quantified] predicate, as a join whose {e kind} reflects the
    quantifier type (section 7: "we treat subqueries as special types
    of join"). *)
and apply_subquery_join t ~g ~env (outer : plan) (q : Qgm.quant)
    (inner_pred : Qgm.expr) : plan =
  let kind =
    match q.Qgm.q_type with
    | Qgm.E -> J_exists
    | Qgm.A -> J_all
    | Qgm.S -> J_scalar
    | Qgm.SP name -> J_set_pred name
    | Qgm.F | Qgm.Ext _ -> unsupported "setformer in subquery application"
  in
  let sub, params = compile_box t ~g ~rec_ctx:env.e_rec q.Qgm.q_input in
  let ow = Array.length outer.props.p_slots in
  (* correlation parameter sources over outer slots (or outer params) *)
  let outer_slotmap qc = slot_of outer qc in
  let corr =
    Array.to_list params
    |> List.map (fun (pq, pc) ->
           compile_expr t ~g ~env ~slotmap:outer_slotmap (Qgm.Col (pq, pc)))
  in
  (* the per-inner-row predicate over [outer @ inner] slots *)
  let joined_slotmap (iq, ic) =
    if iq = q.Qgm.q_id then Some (ow + ic) else outer_slotmap (iq, ic)
  in
  let kind_pred = compile_expr t ~g ~env ~slotmap:joined_slotmap inner_pred in
  (* extract equi conjuncts for hash/merge when uncorrelated; only the
     existential kind treats the comparison as a match condition — for
     ALL/set-predicate/scalar kinds the predicate must be evaluated per
     inner row, so it stays in kind_pred *)
  let extract_equi = kind = J_exists in
  let equi, residual =
    List.fold_left
      (fun (equi, residual) e ->
        match e with
        | RBin (Ast.Eq, RCol o, RCol i) when extract_equi && o < ow && i >= ow ->
          ((o, i - ow) :: equi, residual)
        | RBin (Ast.Eq, RCol i, RCol o) when extract_equi && o < ow && i >= ow ->
          ((o, i - ow) :: equi, residual)
        | e -> (equi, e :: residual))
      ([], [])
      (let rec conj = function
         | RBin (Ast.And, a, b) -> conj a @ conj b
         | e -> [ e ]
       in
       conj kind_pred)
  in
  let kind_pred_residual =
    match residual with
    | [] -> None
    | e :: tl -> Some (List.fold_left (fun a b -> RBin (Ast.And, a, b)) e tl)
  in
  let payload =
    Star.make_payload ~outer ~inner:sub ~kind ~equi
      ?kind_pred:kind_pred_residual ~corr ~bound:true
      ~info:(plan_info t g outer) ()
  in
  match Star.invoke t.sctx "JoinRoot" payload with
  | p :: _ -> p
  | [] -> unsupported "no plan for subquery join"

(** Applies a lateral setformer: the inner box is re-evaluated per outer
    row through the parameter-bound nested-loop machinery, and its
    columns are appended to the output (a regular-kind bound join). *)
and apply_lateral_join t ~g ~env (outer : plan) (q : Qgm.quant) : plan =
  let sub, params = compile_box t ~g ~rec_ctx:env.e_rec q.Qgm.q_input in
  let sub =
    {
      sub with
      props =
        {
          sub.props with
          p_quants = [ q.Qgm.q_id ];
          p_slots = Array.mapi (fun i _ -> (q.Qgm.q_id, i)) sub.props.p_slots;
        };
    }
  in
  let outer_slotmap qc = slot_of outer qc in
  let corr =
    Array.to_list params
    |> List.map (fun (pq, pc) ->
           compile_expr t ~g ~env ~slotmap:outer_slotmap (Qgm.Col (pq, pc)))
  in
  Cost.mk_join ~bound:true ~method_:Nested_loop ~kind:J_regular ~equi:[]
    ~pred:None ~kind_pred:None ~corr ~sel:1.0 outer sub

(* ------------------------------------------------------------------ *)
(* Box compilation                                                     *)
(* ------------------------------------------------------------------ *)

(** Compiles a box to a plan whose output slots are the box's head
    columns in order.  Returns the plan and its correlation parameters
    (references to quantifiers of enclosing boxes). *)
and compile_box t ~(g : Qgm.t) ?(rec_ctx = []) (box_id : int) :
    plan * (int * int) array =
  let b = Qgm.box g box_id in
  let env = fresh_env ~rec_ctx () in
  (* boxes on the cycle of an already-active fixpoint compile normally;
     a newly-reached recursive box starts a fixpoint *)
  let inside_active_recursion =
    rec_ctx <> []
    && List.exists
         (fun (rid, _) ->
           let seen = Hashtbl.create 8 in
           let rec go id =
             id = rid
             || (not (Hashtbl.mem seen id))
                && begin
                  Hashtbl.replace seen id ();
                  List.exists
                    (fun q -> go q.Qgm.q_input)
                    (Qgm.box g id).Qgm.b_quants
                end
           in
           go box_id)
         rec_ctx
  in
  let plan =
    if Qgm.is_recursive g box_id && not inside_active_recursion then
      compile_recursive t ~g ~env b
    else
      match b.Qgm.b_kind with
      | Qgm.Select -> compile_select t ~g ~env b
      | Qgm.Group_by keys -> compile_group_by t ~g ~env b keys
      | Qgm.Set_op (op, all) -> compile_set_op t ~g ~env b op all
      | Qgm.Values_box rows -> compile_values t ~g ~env b rows
      | Qgm.Table_fn (name, args) -> compile_table_fn t ~g ~env b name args
      | Qgm.Choose -> compile_choose t ~g ~env b
      | Qgm.Base_table name ->
        (* direct base-table access (a bare quantifier-less reference) *)
        let stats = table_stats t name in
        let cols = List.init (Qgm.arity b) Fun.id in
        Cost.mk_scan ~table:name ~stats ~site:(t.sctx.Star.site_of name)
          ~quant:(-1) ~cols ~preds:[] ~info:Cost.no_info ()
      | Qgm.Ext_op name ->
        (match
           List.find_map (fun h -> h t env g b) !(t.select_handlers)
         with
        | Some p -> p
        | None -> unsupported "extension operation %s has no plan handler" name)
  in
  (plan, params_of env)

(* --- SELECT --- *)

and compile_select t ~g ~env (b : Qgm.box) : plan =
  (* extension setformers (e.g. PF) are handled by registered hooks *)
  let has_ext_setformer =
    List.exists
      (fun q -> match q.Qgm.q_type with Qgm.Ext _ -> true | _ -> false)
      (Qgm.setformers b)
  in
  let base =
    if has_ext_setformer then
      match List.find_map (fun h -> h t env g b) !(t.select_handlers) with
      | Some p -> p
      | None ->
        unsupported
          "SELECT box %d contains extension setformers and no handler is \
           registered"
          b.Qgm.b_id
    else compile_select_body t ~g ~env b
  in
  finish_box t ~g ~env b base

(** The common tail of box compilation: head projection, DISTINCT,
    ORDER BY and LIMIT. *)
and finish_box t ~g ~env (b : Qgm.box) (input : plan) : plan =
  let slotmap qc = slot_of input qc in
  let head_exprs =
    List.map
      (fun hc ->
        match hc.Qgm.hc_expr with
        | Some e -> compile_expr t ~g ~env ~slotmap e
        | None -> unsupported "box %d: head column without expression" b.Qgm.b_id)
      b.Qgm.b_head
  in
  let identity =
    List.length head_exprs = Array.length input.props.p_slots
    && List.for_all2 (fun i e -> e = RCol i)
         (List.init (List.length head_exprs) Fun.id)
         head_exprs
  in
  let slots =
    Array.of_list
      (List.map
         (function
           | RCol i when i < Array.length input.props.p_slots ->
             input.props.p_slots.(i)
           | _ -> computed_slot)
         head_exprs)
  in
  let projected =
    if identity then input else Cost.mk_project ~slots head_exprs input
  in
  let distincted =
    if b.Qgm.b_distinct then
      Cost.mk_distinct ~info:(plan_info t g projected) projected
    else projected
  in
  let ordered =
    if b.Qgm.b_order = [] then distincted
    else begin
      let compiled =
        List.map (fun (e, d) -> (compile_expr t ~g ~env ~slotmap e, d)) b.Qgm.b_order
      in
      let find ce =
        let rec go i = function
          | [] -> None
          | he :: rest -> if he = ce then Some i else go (i + 1) rest
        in
        go 0 head_exprs
      in
      let missing = List.filter (fun (ce, _) -> find ce = None) compiled in
      if missing = [] then
        Cost.mk_sort
          (List.map (fun (ce, d) -> (Option.get (find ce), d)) compiled)
          distincted
      else if b.Qgm.b_distinct then
        unsupported
          "ORDER BY expressions must appear in the output when SELECT DISTINCT \
           is used (box %d)"
          b.Qgm.b_id
      else begin
        (* hidden sort columns: project head plus the missing order keys,
           sort, then drop the extras *)
        let n = List.length head_exprs in
        let extras = List.map fst missing in
        let wide =
          Cost.mk_project
            ~slots:(Array.append slots (Array.make (List.length extras) computed_slot))
            (head_exprs @ extras) input
        in
        let key_slot ce =
          match find ce with
          | Some i -> i
          | None ->
            let rec go i = function
              | [] -> assert false
              | e :: rest -> if e = ce then n + i else go (i + 1) rest
            in
            go 0 extras
        in
        let sorted =
          Cost.mk_sort (List.map (fun (ce, d) -> (key_slot ce, d)) compiled) wide
        in
        Cost.mk_project ~slots (List.init n (fun i -> RCol i)) sorted
      end
    end
  in
  clamp_box_card t b
    (match b.Qgm.b_limit with
    | Some n -> Cost.mk_limit n ordered
    | None -> ordered)

and compile_select_body t ~g ~env (b : Qgm.box) : plan =
  let setformers = List.filter (fun q -> q.Qgm.q_type = Qgm.F) b.Qgm.b_quants in
  let setformer_ids = List.map (fun q -> q.Qgm.q_id) setformers in
  (* a setformer whose input references a sibling setformer is lateral:
     it cannot enter the commutative join enumeration and is instead
     applied afterwards through a parameter-bound nested-loop join *)
  let lateral_ids =
    List.filter_map
      (fun q ->
        if List.mem_assoc q.Qgm.q_input env.e_rec then None
        else
          let free = free_quant_refs g q.Qgm.q_input in
          if List.exists (fun r -> List.mem r setformer_ids && r <> q.Qgm.q_id) free
          then Some q.Qgm.q_id
          else None)
      setformers
  in
  let plain_setformers =
    List.filter (fun q -> not (List.mem q.Qgm.q_id lateral_ids)) setformers
  in
  let subquery_ids =
    List.filter_map
      (fun q ->
        match q.Qgm.q_type with
        | Qgm.E | Qgm.A | Qgm.S | Qgm.SP _ -> Some q.Qgm.q_id
        | Qgm.F | Qgm.Ext _ -> None)
      b.Qgm.b_quants
  in
  if setformers = [] then
    unsupported "SELECT box %d has no setformer (constant selects unsupported)"
      b.Qgm.b_id;
  (* classify predicates *)
  let sargable : (int * Qgm.expr list) list ref =
    ref (List.map (fun q -> (q.Qgm.q_id, [])) setformers)
  in
  let join_preds = ref [] and subquery_joins = ref [] and residual = ref [] in
  List.iter
    (fun (p : Qgm.pred) ->
      let e = p.Qgm.p_expr in
      let refs = Qgm.quant_refs e in
      let local_f = List.filter (fun r -> List.mem r setformer_ids) refs in
      let local_sub = List.filter (fun r -> List.mem r subquery_ids) refs in
      match e with
      | Qgm.Quantified (qid, inner) when List.mem qid subquery_ids ->
        subquery_joins := (qid, inner) :: !subquery_joins
      | _ when Qgm.contains_quantified e -> residual := e :: !residual
      | _ when local_sub <> [] ->
        (* references a scalar subquery column *)
        residual := e :: !residual
      | _ when List.exists (fun r -> List.mem r lateral_ids) refs ->
        (* evaluated after the lateral apply *)
        residual := e :: !residual
      | _ -> (
        match local_f with
        | [ q ] when not (List.mem q lateral_ids) ->
          sargable := List.map (fun (k, ps) -> if k = q then (k, ps @ [ e ]) else (k, ps)) !sargable
        | [] -> residual := e :: !residual
        | _ -> join_preds := e :: !join_preds))
    b.Qgm.b_preds;
  (* scalar quantifiers referenced from the head only also end up
     compiled lazily by compile_expr; nothing to do here *)
  if plain_setformers = [] then
    unsupported
      "box %d: all setformers are mutually lateral (cyclic references)"
      b.Qgm.b_id;
  let accesses =
    List.map
      (fun q ->
        (q.Qgm.q_id, access_plans t ~g ~env q (List.assoc q.Qgm.q_id !sargable)))
      plain_setformers
  in
  let joined =
    match
      enumerate_joins t ~g ~env ~quants:plain_setformers ~accesses
        ~join_preds:!join_preds
    with
    | p :: _ -> p
    | [] -> unsupported "no join plan for box %d" b.Qgm.b_id
  in
  (* lateral applies, in declaration order *)
  let joined =
    List.fold_left
      (fun outer qid -> apply_lateral_join t ~g ~env outer (Qgm.quant g qid))
      joined lateral_ids
  in
  (* subqueries as joins, applied in declaration order *)
  let with_subqueries =
    List.fold_left
      (fun plan (qid, inner) ->
        apply_subquery_join t ~g ~env plan (Qgm.quant g qid) inner)
      joined
      (List.rev !subquery_joins)
  in
  (* residual predicates; a disjunction containing subqueries becomes
     the OR operator *)
  let slotmap qc = slot_of with_subqueries qc in
  let compile_res e = compile_expr t ~g ~env ~slotmap e in
  let refs_subquery e =
    List.exists
      (fun r ->
        List.mem r subquery_ids
        ||
        match Hashtbl.find_opt g.Qgm.quants r with
        | Some qq -> qq.Qgm.q_type = Qgm.S
        | None -> false)
      (Qgm.quant_refs e)
  in
  let or_preds, plain =
    List.partition
      (fun e ->
        match e with
        | Qgm.Bin (Ast.Or, _, _) -> Qgm.contains_quantified e || refs_subquery e
        | _ -> false)
      !residual
  in
  let filtered =
    let info = plan_info t g with_subqueries in
    let p1 =
      if plain = [] then with_subqueries
      else Cost.mk_filter ~info (List.map compile_res plain) with_subqueries
    in
    List.fold_left
      (fun plan e ->
        let rec disj = function
          | Qgm.Bin (Ast.Or, a, b) -> disj a @ disj b
          | e -> [ e ]
        in
        Cost.mk_or_filter ~info:(plan_info t g plan)
          (List.map compile_res (disj e))
          plan)
      p1 or_preds
  in
  filtered

(* --- GROUP BY --- *)

and compile_group_by t ~g ~env (b : Qgm.box) (keys : Qgm.expr list) : plan =
  let input_q =
    match Qgm.setformers b with
    | [ q ] -> q
    | _ -> unsupported "GROUP BY box %d must have one input" b.Qgm.b_id
  in
  (* predicates on a GROUP BY box filter its input before grouping *)
  let preds = List.map (fun (p : Qgm.pred) -> p.Qgm.p_expr) b.Qgm.b_preds in
  let input =
    match access_plans t ~g ~env input_q preds with
    | p :: _ -> p
    | [] -> unsupported "no access plan for GROUP BY input"
  in
  let slotmap qc = slot_of input qc in
  let key_slots =
    List.map
      (fun k ->
        match compile_expr t ~g ~env ~slotmap k with
        | RCol s -> s
        | _ -> unsupported "GROUP BY key must be a column of the input box")
      keys
  in
  (* aggregates in head order *)
  let aggs =
    List.filter_map
      (fun hc ->
        match hc.Qgm.hc_expr with
        | Some (Qgm.Agg (name, distinct, arg)) ->
          let slot =
            Option.map
              (fun a ->
                match compile_expr t ~g ~env ~slotmap a with
                | RCol s -> s
                | _ -> unsupported "aggregate argument must be an input column")
              arg
          in
          Some (name, distinct, slot)
        | _ -> None)
      b.Qgm.b_head
  in
  (* choose between hash grouping and sort-based (streamed) grouping *)
  let info = plan_info t g input in
  let hash_plan = Cost.mk_group ~keys:key_slots ~aggs ~sorted:false ~info input in
  let plans =
    if key_slots = [] then [ hash_plan ]
    else begin
      let want = List.map (fun s -> (s, Ast.Asc)) key_slots in
      let payload = Star.make_payload ~plan:input ~keys:want () in
      let sorted_inputs = Star.invoke t.sctx "Ordered" payload in
      hash_plan
      :: List.map
           (fun si -> Cost.mk_group ~keys:key_slots ~aggs ~sorted:true ~info si)
           sorted_inputs
    end
  in
  let best =
    List.fold_left
      (fun (best : plan) p -> if p.props.p_cost < best.props.p_cost then p else best)
      (List.hd plans) (List.tl plans)
  in
  (* group output slots: keys (provenance preserved), then aggregates;
     map the head through *)
  let k = List.length key_slots in
  let head_exprs =
    List.map
      (fun hc ->
        match hc.Qgm.hc_expr with
        | Some (Qgm.Agg (name, distinct, arg)) ->
          let slot =
            Option.map
              (fun a ->
                match compile_expr t ~g ~env ~slotmap a with
                | RCol s -> s
                | _ -> assert false)
              arg
          in
          let rec idx i = function
            | [] -> unsupported "aggregate not found in GROUP output"
            | (n, d, s) :: rest ->
              if n = name && d = distinct && s = slot then i else idx (i + 1) rest
          in
          RCol (k + idx 0 aggs)
        | Some (Qgm.Col _ as e) -> (
          match compile_expr t ~g ~env ~slotmap e with
          | RCol s ->
            let rec key_idx i = function
              | [] -> unsupported "head column of GROUP BY is not grouped"
              | ks :: rest -> if ks = s then i else key_idx (i + 1) rest
            in
            RCol (key_idx 0 key_slots)
          | _ -> unsupported "GROUP BY head column")
        | Some _ -> unsupported "complex expressions in GROUP BY box head"
        | None -> unsupported "GROUP BY head column without expression")
      b.Qgm.b_head
  in
  let slots =
    Array.of_list
      (List.map
         (function
           | RCol i when i < Array.length best.props.p_slots -> best.props.p_slots.(i)
           | _ -> computed_slot)
         head_exprs)
  in
  let identity =
    List.length head_exprs = Array.length best.props.p_slots
    && List.mapi (fun i e -> e = RCol i) head_exprs |> List.for_all Fun.id
  in
  clamp_box_card t b
    (if identity then best else Cost.mk_project ~slots head_exprs best)

(* --- set operations --- *)

and compile_set_op t ~g ~env (b : Qgm.box) (op : Ast.set_op) (all : bool) : plan =
  let arms =
    List.map
      (fun q ->
        match access_plans t ~g ~env q [] with
        | p :: _ -> p
        | [] -> unsupported "no plan for set-operation arm")
      (Qgm.setformers b)
  in
  match arms with
  | [ l; r ] ->
    let combined =
      match op with
      | Ast.Union ->
        let u = Cost.mk_setop Union_all l r in
        if all then u else Cost.mk_distinct ~info:Cost.no_info u
      | Ast.Intersect -> Cost.mk_setop (Intersect_op all) l r
      | Ast.Except -> Cost.mk_setop (Except_op all) l r
    in
    (* relabel to the box's own quantifier space: the parent relabels
       again, so provenance resets to computed *)
    {
      combined with
      props =
        {
          combined.props with
          p_slots = Array.map (fun _ -> computed_slot) combined.props.p_slots;
        };
    }
  | _ -> unsupported "set operation box %d must have two inputs" b.Qgm.b_id

(* --- VALUES --- *)

and compile_values t ~g ~env (b : Qgm.box) rows : plan =
  let no_slots (_ : int * int) = None in
  let rrows =
    List.map (List.map (compile_expr t ~g ~env ~slotmap:no_slots)) rows
  in
  Cost.mk_values rrows ~width:(Qgm.arity b)

(* --- table functions --- *)

and compile_table_fn t ~g ~env (b : Qgm.box) name args : plan =
  if Functions.find_table_fn t.fns name = None then
    unsupported "table function %s is not registered" name;
  let inputs =
    List.map
      (fun q ->
        match access_plans ~all_cols:true t ~g ~env q [] with
        | p :: _ -> p
        | [] -> unsupported "no plan for table-function input")
      (Qgm.setformers b)
  in
  let no_slots (_ : int * int) = None in
  let rargs = List.map (compile_expr t ~g ~env ~slotmap:no_slots) args in
  Cost.mk_table_fn ~name ~args:rargs ~quant:(-1) ~width:(Qgm.arity b) inputs

(* --- CHOOSE --- *)

and compile_choose t ~g ~env (b : Qgm.box) : plan =
  (* cost both alternatives, keep the cheaper: the optimizer eliminates
     the CHOOSE operation (section 5) *)
  let alts =
    List.map
      (fun q ->
        match access_plans t ~g ~env q [] with
        | p :: _ -> p
        | [] -> unsupported "no plan for CHOOSE alternative")
      b.Qgm.b_quants
  in
  match alts with
  | [] -> unsupported "empty CHOOSE box"
  | p :: rest ->
    List.fold_left
      (fun (best : plan) c -> if c.props.p_cost < best.props.p_cost then c else best)
      p rest

(* --- recursion --- *)

and compile_recursive t ~g ~env (b : Qgm.box) : plan =
  (* expected shape: identity SELECT over a UNION whose arms divide into
     seed (no cycle back) and step (ranges over this box) *)
  let fail () =
    unsupported
      "unsupported recursion shape at box %d (expected WITH RECURSIVE name AS \
       (seed UNION step))"
      b.Qgm.b_id
  in
  match b.Qgm.b_kind, b.Qgm.b_quants with
  | Qgm.Select, [ uq ] -> (
    let ubox = Qgm.box g uq.Qgm.q_input in
    match ubox.Qgm.b_kind with
    | Qgm.Set_op (Ast.Union, all) ->
      let reaches src =
        let seen = Hashtbl.create 8 in
        let rec go id =
          id = b.Qgm.b_id
          || (not (Hashtbl.mem seen id))
             && begin
               Hashtbl.replace seen id ();
               List.exists (fun q -> go q.Qgm.q_input) (Qgm.box g id).Qgm.b_quants
             end
        in
        go src
      in
      let seeds, steps =
        List.partition (fun a -> not (reaches a.Qgm.q_input)) (Qgm.setformers ubox)
      in
      if seeds = [] || steps = [] then fail ();
      let rec_ctx = (b.Qgm.b_id, Qgm.arity b) :: env.e_rec in
      let compile_arm ctx_rec (a : Qgm.quant) =
        let p, params = compile_box t ~g ~rec_ctx:ctx_rec a.Qgm.q_input in
        if Array.length params = 0 then p
        else begin
          let remap = Array.map (fun key -> intern_param env key) params in
          renumber_params (fun i -> remap.(i)) p
        end
      in
      let union_plans plans =
        match plans with
        | [] -> fail ()
        | p :: rest -> List.fold_left (fun a b -> Cost.mk_setop Union_all a b) p rest
      in
      let seed = union_plans (List.map (compile_arm env.e_rec) seeds) in
      let step = union_plans (List.map (compile_arm rec_ctx) steps) in
      let fx = Cost.mk_fixpoint ~distinct:(not all) seed step in
      { fx with props = { fx.props with p_slots = Array.map (fun _ -> computed_slot) fx.props.p_slots } }
    | _ -> fail ())
  | _ -> fail ()

(* ------------------------------------------------------------------ *)
(* Recursive-delta access: quantifiers over a box being fixpointed     *)
(* ------------------------------------------------------------------ *)

(* access_plans handles the base-table and derived cases; a quantifier
   over a box in rec_ctx lands in the derived case, which would loop.
   Intercept it here by overriding compile_box for those boxes. *)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Optimizes the whole QGM; the resulting plan computes the top box's
    head columns. *)
let optimize t (g : Qgm.t) : plan =
  (* property inference first: the plan generator consults it for key
     joins and row bounds.  Statistics are trusted here — a cost
     estimate may be wrong, unlike a rewrite, and analyzed intervals
     sharpen range bounds considerably.  Advisory only: any inference
     failure falls back to uninformed costing. *)
  t.analysis <-
    (if not t.use_analysis then None
     else
       try Some (Infer.analyze ~trust_stats:true ~catalog:t.cat g)
       with exn ->
         Logs.debug (fun m ->
             m "optimizer: property inference failed: %s" (Printexc.to_string exn));
         None);
  let compile () =
    let plan, params = compile_box t ~g g.Qgm.top in
    if Array.length params > 0 then
      unsupported "top-level query has unbound correlation parameters";
    plan
  in
  let tracer = t.sctx.Star.tracer in
  if not (Sb_obs.Trace.enabled tracer) then compile ()
  else begin
    let inv0 = t.sctx.Star.invocations in
    let gen0 = t.sctx.Star.plans_generated in
    let pru0 = t.sctx.Star.plans_pruned in
    let sub0 = t.enum_subsets and pair0 = t.enum_pairs in
    Sb_obs.Trace.with_span tracer "optimize.generate" (fun () ->
        let plan = compile () in
        Sb_obs.Trace.add_attr tracer "star_expansions"
          (string_of_int (t.sctx.Star.invocations - inv0));
        Sb_obs.Trace.add_attr tracer "plans_generated"
          (string_of_int (t.sctx.Star.plans_generated - gen0));
        Sb_obs.Trace.add_attr tracer "plans_pruned"
          (string_of_int (t.sctx.Star.plans_pruned - pru0));
        Sb_obs.Trace.add_attr tracer "enum_subsets"
          (string_of_int (t.enum_subsets - sub0));
        Sb_obs.Trace.add_attr tracer "enum_pairs"
          (string_of_int (t.enum_pairs - pair0));
        plan)
  end
