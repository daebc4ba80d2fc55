(** STARs — STrategy Alternative Rules (section 6, [LOHM88]).

    Executable plans are defined by a grammar-like set of parameterized
    production rules.  A STAR has a name (a nonterminal), parameters
    (the {!payload}), and one or more alternative definitions in terms
    of LOLEPOPs or other STARs; IF-conditions gate each alternative and
    ranks allow pruning.  The three aspects the paper keeps orthogonal —
    (1) the STAR array, (2) the rule evaluator ({!invoke}), and (3) the
    search {!strategy} — are separate values here, so each can be
    replaced independently: a DBC adds or replaces alternatives without
    touching the evaluator, and the strategy (alternative ordering, rank
    bound, plan pruning) without touching either. *)

module Qgm = Sb_qgm.Qgm
module Ast = Sb_hydrogen.Ast
open Sb_storage

(** Parameters passed to a STAR invocation.  Not every STAR uses every
    field; [make_payload] fills defaults. *)
type payload = {
  pl_quant : int;  (** QGM quantifier the plans are for *)
  pl_table : string;  (** base table (TableAccess) *)
  pl_stats : Stats.t;
  pl_cols : int list;  (** base columns needed *)
  pl_preds : Plan.rexpr list;  (** predicates over base column indices *)
  pl_info : Cost.slot_info;  (** selectivity info for the above *)
  pl_attachments : Access_method.instance list;
  pl_outer : Plan.plan option;
  pl_inner : Plan.plan option;
  pl_kind : Plan.join_kind;
  pl_equi : (int * int) list;
  pl_pred : Plan.rexpr option;
  pl_kind_pred : Plan.rexpr option;
  pl_corr : Plan.rexpr list;
  pl_bound : bool;  (** inner owns its parameter space (subquery joins) *)
  pl_keys : (int * Ast.order_dir) list;  (** required order (glue) *)
  pl_site : string;  (** required site (glue) *)
  pl_plan : Plan.plan option;  (** subject of glue STARs *)
}

let make_payload ?(quant = -1) ?(table = "") ?(stats = Stats.empty) ?(cols = [])
    ?(preds = []) ?(info = Cost.no_info) ?(attachments = []) ?outer ?inner
    ?(kind = Plan.J_regular) ?(equi = []) ?pred ?kind_pred ?(corr = [])
    ?(bound = false) ?(keys = []) ?(site = "local") ?plan () =
  {
    pl_quant = quant;
    pl_table = table;
    pl_stats = stats;
    pl_cols = cols;
    pl_preds = preds;
    pl_info = info;
    pl_attachments = attachments;
    pl_outer = outer;
    pl_inner = inner;
    pl_kind = kind;
    pl_equi = equi;
    pl_pred = pred;
    pl_kind_pred = kind_pred;
    pl_corr = corr;
    pl_bound = bound;
    pl_keys = keys;
    pl_site = site;
    pl_plan = plan;
  }

(** Recognizes an index probe for an attachment given the available
    predicates (over base column indices).  Returns the probe, its
    selectivity, and the predicates it fully absorbs.  Extensions (e.g.
    the R-tree's [overlaps] probe) register their own matchers. *)
type probe_matcher =
  Access_method.instance ->
  Plan.rexpr list ->
  (Plan.probe_spec * float * Plan.rexpr list) option

type ctx = {
  catalog : Catalog.t;
  stars : (string, star) Hashtbl.t;  (** the STAR array *)
  probe_matchers : probe_matcher list ref;
  mutable strategy : strategy;
  site_of : string -> string;
  mutable invocations : int;  (** STAR invocations (bench accounting) *)
  mutable plans_generated : int;  (** plans produced before pruning *)
  mutable plans_pruned : int;  (** plans discarded by the strategy *)
  mutable tracer : Sb_obs.Trace.t;  (** spans per expansion when enabled *)
  mutable governor : Sb_resil.Limits.gov option;
      (** per-query plan-node budget, charged on every expansion *)
}

and star = { star_name : string; mutable alternatives : alternative list }

and alternative = {
  alt_name : string;
  alt_rank : int;  (** alternatives above the strategy's rank are pruned *)
  alt_cond : ctx -> payload -> bool;
  alt_produce : ctx -> payload -> Plan.plan list;
}

and strategy = {
  st_name : string;
  st_max_rank : int;
  st_order : alternative list -> alternative list;
      (** evaluation order — the prioritized-queue mechanism: breadth-
          first, depth-first or custom orders arise from this ordering *)
  st_prune : Plan.plan list -> Plan.plan list;
      (** which generated plans survive (interesting-order pruning) *)
}

exception Opt_error of string

let error fmt = Fmt.kstr (fun s -> raise (Opt_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Evaluator                                                           *)
(* ------------------------------------------------------------------ *)

let find_star ctx name =
  match Hashtbl.find_opt ctx.stars name with
  | Some s -> s
  | None -> error "no STAR named %s" name

(** Evaluates a STAR: filters alternatives by rank and condition, orders
    them per the strategy, evaluates each, and prunes the union of their
    plans. *)
let invoke ctx name payload : Plan.plan list =
  let star = find_star ctx name in
  ctx.invocations <- ctx.invocations + 1;
  let expand () =
    let applicable =
      List.filter
        (fun a -> a.alt_rank <= ctx.strategy.st_max_rank && a.alt_cond ctx payload)
        star.alternatives
    in
    let plans =
      List.concat_map
        (fun a -> a.alt_produce ctx payload)
        (ctx.strategy.st_order applicable)
    in
    ctx.plans_generated <- ctx.plans_generated + List.length plans;
    (match ctx.governor with
    | Some gov -> Sb_resil.Limits.charge_plan_nodes gov (List.length plans)
    | None -> ());
    if plans = [] then
      error "STAR %s produced no plan (quant %d)" name payload.pl_quant;
    let kept = ctx.strategy.st_prune plans in
    ctx.plans_pruned <- ctx.plans_pruned + (List.length plans - List.length kept);
    (plans, kept)
  in
  if not (Sb_obs.Trace.enabled ctx.tracer) then snd (expand ())
  else
    Sb_obs.Trace.with_span ctx.tracer "star.expand"
      ~attrs:[ ("star", name) ]
      (fun () ->
        let plans, kept = expand () in
        Sb_obs.Trace.add_attr ctx.tracer "generated"
          (string_of_int (List.length plans));
        Sb_obs.Trace.add_attr ctx.tracer "pruned"
          (string_of_int (List.length plans - List.length kept));
        kept)

(** Registers a STAR; merging alternatives if the name exists. *)
let register ctx (name : string) (alts : alternative list) =
  match Hashtbl.find_opt ctx.stars name with
  | Some s -> s.alternatives <- s.alternatives @ alts
  | None -> Hashtbl.replace ctx.stars name { star_name = name; alternatives = alts }

let star_count ctx = Hashtbl.length ctx.stars

let alternative_count ctx =
  Hashtbl.fold (fun _ s acc -> acc + List.length s.alternatives) ctx.stars 0

(* ------------------------------------------------------------------ *)
(* Default strategy                                                    *)
(* ------------------------------------------------------------------ *)

(** Does [order] satisfy the required [keys] as a prefix? *)
let order_satisfies ~(have : (int * Ast.order_dir) list) ~(want : (int * Ast.order_dir) list) =
  let rec go have want =
    match have, want with
    | _, [] -> true
    | [], _ :: _ -> false
    | h :: hs, w :: ws -> h = w && go hs ws
  in
  go have want

(** Does [q] strictly dominate [p]?  [q] must be at the same site, at
    least as good on every property a later operator could want — cost,
    estimated cardinality, duplicate-freeness, and [p]'s output order
    (as a prefix of [q]'s) — and strictly better on cost or
    cardinality.  Keeping [p] then never helps: any plan built on it
    has a counterpart built on [q] that is no worse. *)
let dominates (q : Plan.plan) (p : Plan.plan) =
  let qp = q.Plan.props and pp = p.Plan.props in
  qp.Plan.p_site = pp.Plan.p_site
  && qp.Plan.p_cost <= pp.Plan.p_cost
  && qp.Plan.p_card <= pp.Plan.p_card
  && (qp.Plan.p_distinct || not pp.Plan.p_distinct)
  && order_satisfies ~have:qp.Plan.p_order ~want:pp.Plan.p_order
  && (qp.Plan.p_cost < pp.Plan.p_cost || qp.Plan.p_card < pp.Plan.p_card)

(** Keep the cheapest plan overall plus the cheapest per interesting
    property combination (order, site, distinct) — the System R pruning
    criterion generalized to properties — after discarding strictly
    dominated plans (worse in cost {e and} cardinality with no
    compensating property). *)
let interesting_prune ?(max_plans = 8) (plans : Plan.plan list) : Plan.plan list =
  let plans =
    List.filter (fun p -> not (List.exists (fun q -> dominates q p) plans)) plans
  in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (p : Plan.plan) ->
      let key = (p.Plan.props.Plan.p_order, p.Plan.props.Plan.p_site, p.Plan.props.Plan.p_distinct) in
      match Hashtbl.find_opt groups key with
      | Some (best : Plan.plan) when best.Plan.props.Plan.p_cost <= p.Plan.props.Plan.p_cost -> ()
      | _ -> Hashtbl.replace groups key p)
    plans;
  let kept = Hashtbl.fold (fun _ p acc -> p :: acc) groups [] in
  let sorted =
    List.sort
      (fun (a : Plan.plan) b -> Float.compare a.Plan.props.Plan.p_cost b.Plan.props.Plan.p_cost)
      kept
  in
  List.filteri (fun i _ -> i < max_plans) sorted

let default_strategy =
  {
    st_name = "rank-ordered";
    st_max_rank = 100;
    st_order =
      (fun alts ->
        List.stable_sort (fun a b -> Int.compare a.alt_rank b.alt_rank) alts);
    st_prune = interesting_prune ~max_plans:8;
  }

(** A cheaper strategy: first applicable alternative only (greedy). *)
let greedy_strategy =
  {
    st_name = "greedy";
    st_max_rank = 0;
    st_order = (fun alts -> alts);
    st_prune = interesting_prune ~max_plans:1;
  }

let create ~catalog ~site_of () : ctx =
  {
    catalog;
    stars = Hashtbl.create 16;
    strategy = default_strategy;
    probe_matchers = ref [];
    site_of;
    invocations = 0;
    plans_generated = 0;
    plans_pruned = 0;
    tracer = Sb_obs.Trace.noop;
    governor = None;
  }

let session ctx =
  { (create ~catalog:ctx.catalog ~site_of:ctx.site_of ()) with
    stars = ctx.stars; probe_matchers = ctx.probe_matchers }
