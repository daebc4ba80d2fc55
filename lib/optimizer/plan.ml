(** Query evaluation plans: trees of LOLEPOPs (LOw-LEvel Plan OPerators,
    section 6) over streams of tuples, plus the runtime expression
    language they evaluate.

    Each LOLEPOP "is expressed as a function that operates on 0 or more
    streams of tuples, and produces 0 or more new streams (typically
    one)"; a plan is a nesting of such invocations.  Properties
    (relational / operational / estimated) summarize each plan's output
    table and are updated by each operator's property function (in
    {!Cost}). *)

open Sb_storage
module Ast = Sb_hydrogen.Ast

(** Join {e methods} are control structures, join {e kinds} are the
    functions performed during the join (section 7); the two compose,
    though not every method suits every kind. *)
type join_method = Nested_loop | Sort_merge | Hash_join

type join_kind =
  | J_regular
  | J_exists  (** semi-join: emit outer when some inner matches *)
  | J_all  (** op-ALL join: emit outer when predicate holds for all inner *)
  | J_scalar  (** scalar-subquery join: append the single inner value *)
  | J_set_pred of string  (** DBC set-predicate function, e.g. majority *)
  | J_ext of string  (** extension kinds, e.g. "left_outer" *)

let join_kind_name = function
  | J_regular -> "regular"
  | J_exists -> "exists"
  | J_all -> "all"
  | J_scalar -> "scalar"
  | J_set_pred n -> "set:" ^ n
  | J_ext n -> n

let join_method_name = function
  | Nested_loop -> "NL"
  | Sort_merge -> "MERGE"
  | Hash_join -> "HASH"

(** Runtime expressions, evaluated over a tuple of {e slots} plus bound
    correlation {e parameters}.  [RSub] embeds a whole subplan — the
    uniform mechanism behind residual subquery predicates and the OR
    operator. *)
type rexpr =
  | RLit of Value.t
  | RCol of int  (** slot of the input tuple *)
  | RParam of int  (** correlation parameter *)
  | RHost of string  (** host-language variable, bound at execution *)
  | RBin of Ast.binop * rexpr * rexpr
  | RUn of Ast.unop * rexpr
  | RFun of string * rexpr list
  | RCase of (rexpr * rexpr) list * rexpr option
  | RIs_null of rexpr
  | RLike of rexpr * string
  | RSub of sub_spec  (** quantified subquery as a predicate *)
  | RScalar_sub of scalar_sub_spec  (** scalar subquery as a value *)

and sub_spec = {
  sub_kind : sub_kind;
  sub_plan : plan;
  sub_params : rexpr list;  (** evaluated over the outer tuple *)
  sub_pred : rexpr;
      (** per-inner-row predicate: [RCol] = inner slots, [RParam] = the
          parameters above *)
}

and sub_kind = Sk_exists | Sk_all | Sk_set_pred of string

and scalar_sub_spec = {
  ssub_plan : plan;
  ssub_params : rexpr list;
}

(* --- operators --- *)

and probe_spec =
  | Pr_eq of rexpr list  (** key equality; exprs over params/constants *)
  | Pr_range of (rexpr * bool) option * (rexpr * bool) option
  | Pr_custom of string * rexpr list  (** extension probe, e.g. overlaps *)

and op =
  | Scan of {
      sc_table : string;
      sc_cols : int list;  (** base columns kept, in output-slot order *)
      sc_preds : rexpr list;  (** pushed into the scan (paper's SCAN) *)
    }
  | Idx_access of {
      ix_table : string;
      ix_index : string;
      ix_probe : probe_spec;
      ix_cols : int list;
      ix_preds : rexpr list;  (** residual, applied after fetch *)
    }
  | Idx_and of {
      ia_table : string;
      ia_probes : (string * probe_spec) list;  (** index name, probe *)
      ia_cols : int list;
      ia_preds : rexpr list;  (** residual, applied after fetch *)
    }
      (** index ANDing (section 6): intersect the rid sets of several
          probes, then fetch each surviving record once *)
  | Filter of rexpr list  (** conjunctive *)
  | Or_filter of rexpr list
      (** the OR operator (section 7): disjuncts evaluated left to
          right; a tuple rejected by one is handed to the next *)
  | Project of rexpr list  (** one expression per output slot *)
  | Sort of (int * Ast.order_dir) list
  | Join of {
      j_method : join_method;
      j_kind : join_kind;
      j_equi : (int * int) list;  (** outer slot, inner slot *)
      j_pred : rexpr option;
          (** over concatenated [outer; inner] slots (regular/ext kinds)
              or [outer slots; inner via RParam]… no: always over the
              concatenation of outer and inner slots *)
      j_corr : rexpr list;
          (** correlation parameter sources, over outer slots; inner is
              re-evaluated on demand when these change *)
      j_bound : bool;
          (** the inner plan owns its parameter space: its [RParam]s are
              bound positionally from [j_corr] (subquery joins); when
              false, the inner shares the enclosing parameter space
              (regular joins) *)
      j_kind_pred : rexpr option;
          (** for quantified kinds (exists/all/set): per-inner-row truth,
              over [outer @ inner] slots *)
    }
  | Group of {
      g_keys : int list;
      g_aggs : (string * bool * int option) list;
          (** name, distinct, argument slot ([None] = count of rows) *)
      g_sorted : bool;  (** input already ordered by the keys *)
    }
  | Distinct_op
  | Union_all
  | Intersect_op of bool  (** ALL? *)
  | Except_op of bool  (** ALL? *)
  | Temp  (** materialize the input stream *)
  | Ship of string  (** move the stream to a site *)
  | Limit_op of int
  | Values_scan of rexpr list list
  | Table_fn_scan of { tf_name : string; tf_args : rexpr list }
  | Bloom_filter of {
      bl_subject_key : int;  (** key slot of input 0 (the filtered side) *)
      bl_source_key : int;  (** key slot of input 1 (the key source) *)
      bl_bits : int;
    }
      (** Bloom-join reduction [MACK86]: pass input-0 rows whose key
          {e may} appear among input 1's keys; a join above re-verifies
          (false positives only reduce the saving, never correctness) *)
  | Fixpoint of { fx_distinct : bool }
      (** recursion driver: inputs = [seed; step]; the step contains a
          [Rec_delta] leaf re-bound to the newest delta each round *)
  | Rec_delta of { rd_width : int }
  | Choose_op
      (** runtime CHOOSE (section 5 / [GRAE89]): kept only when the
          optimizer defers the decision; the QES evaluates input 0 *)

(* --- properties --- *)

and props = {
  (* relational *)
  p_quants : int list;  (** QGM quantifiers covered (sorted) *)
  p_slots : (int * int) array;
      (** provenance of each output slot: [(quant, col)], or [(-1, _)]
          for computed values *)
  (* operational *)
  p_order : (int * Ast.order_dir) list;  (** output order, by slot *)
  p_site : string;
  p_distinct : bool;  (** output known duplicate-free *)
  (* estimated *)
  p_cost : float;  (** cumulative *)
  p_card : float;  (** estimated output rows *)
}

and plan = { op : op; inputs : plan list; props : props }

let width (p : plan) = Array.length p.props.p_slots

(** Output slot currently carrying [(quant, col)], if any. *)
let slot_of (p : plan) (quant, col) =
  let found = ref None in
  Array.iteri
    (fun s (q, c) -> if !found = None && q = quant && c = col then found := Some s)
    p.props.p_slots;
  !found

let computed_slot = (-1, 0)

(* ------------------------------------------------------------------ *)
(* Rexpr utilities                                                     *)
(* ------------------------------------------------------------------ *)

let rec map_rexpr f (e : rexpr) : rexpr =
  let e' =
    match e with
    | RLit _ | RCol _ | RParam _ | RHost _ -> e
    | RBin (op, a, b) -> RBin (op, map_rexpr f a, map_rexpr f b)
    | RUn (op, a) -> RUn (op, map_rexpr f a)
    | RFun (n, args) -> RFun (n, List.map (map_rexpr f) args)
    | RCase (arms, els) ->
      RCase
        ( List.map (fun (c, v) -> (map_rexpr f c, map_rexpr f v)) arms,
          Option.map (map_rexpr f) els )
    | RIs_null a -> RIs_null (map_rexpr f a)
    | RLike (a, p) -> RLike (map_rexpr f a, p)
    | RSub s -> RSub { s with sub_params = List.map (map_rexpr f) s.sub_params }
    | RScalar_sub s ->
      RScalar_sub { s with ssub_params = List.map (map_rexpr f) s.ssub_params }
  in
  f e'

(** Remaps slot references (not descending into subplan predicates,
    whose [RCol]s refer to inner slots). *)
let shift_slots shift e =
  map_rexpr (function RCol i -> RCol (shift i) | e -> e) e

let rec fold_rexpr f acc e =
  let acc = f acc e in
  match e with
  | RLit _ | RCol _ | RParam _ | RHost _ -> acc
  | RBin (_, a, b) -> fold_rexpr f (fold_rexpr f acc a) b
  | RUn (_, a) | RIs_null a | RLike (a, _) -> fold_rexpr f acc a
  | RFun (_, args) -> List.fold_left (fold_rexpr f) acc args
  | RCase (arms, els) ->
    let acc =
      List.fold_left (fun acc (c, v) -> fold_rexpr f (fold_rexpr f acc c) v) acc arms
    in
    (match els with Some e -> fold_rexpr f acc e | None -> acc)
  | RSub s -> List.fold_left (fold_rexpr f) acc s.sub_params
  | RScalar_sub s -> List.fold_left (fold_rexpr f) acc s.ssub_params

let slots_used e =
  fold_rexpr (fun acc e -> match e with RCol i -> i :: acc | _ -> acc) [] e
  |> List.sort_uniq Int.compare

let rexpr_has_sub e =
  fold_rexpr
    (fun acc e -> acc || match e with RSub _ | RScalar_sub _ -> true | _ -> false)
    false e

(* ------------------------------------------------------------------ *)
(* Pretty-printing (EXPLAIN PLAN)                                      *)
(* ------------------------------------------------------------------ *)

let rec pp_rexpr ppf = function
  | RLit v -> Fmt.string ppf (Value.to_literal v)
  | RCol i -> Fmt.pf ppf "$%d" i
  | RParam i -> Fmt.pf ppf "?%d" i
  | RHost v -> Fmt.pf ppf ":%s" v
  | RBin (op, a, b) ->
    Fmt.pf ppf "(%a %s %a)" pp_rexpr a (Ast.binop_name op) pp_rexpr b
  | RUn (Ast.Neg, a) -> Fmt.pf ppf "(- %a)" pp_rexpr a
  | RUn (Ast.Not, a) -> Fmt.pf ppf "(NOT %a)" pp_rexpr a
  | RFun (n, args) -> Fmt.pf ppf "%s(%a)" n Fmt.(list ~sep:(Fmt.any ", ") pp_rexpr) args
  | RCase _ -> Fmt.string ppf "CASE..."
  | RIs_null a -> Fmt.pf ppf "(%a IS NULL)" pp_rexpr a
  | RLike (a, p) -> Fmt.pf ppf "(%a LIKE '%s')" pp_rexpr a p
  | RSub s ->
    let k =
      match s.sub_kind with
      | Sk_exists -> "EXISTS"
      | Sk_all -> "ALL"
      | Sk_set_pred n -> n
    in
    Fmt.pf ppf "%s[subplan](%a)" k pp_rexpr s.sub_pred
  | RScalar_sub _ -> Fmt.string ppf "SCALAR[subplan]"

let op_name = function
  | Scan { sc_table; _ } -> Fmt.str "SCAN(%s)" sc_table
  | Idx_access { ix_table; ix_index; _ } -> Fmt.str "IXSCAN(%s.%s)" ix_table ix_index
  | Idx_and { ia_table; ia_probes; _ } ->
    Fmt.str "IXAND(%s:%s)" ia_table
      (String.concat "&" (List.map fst ia_probes))
  | Filter _ -> "FILTER"
  | Or_filter _ -> "OR"
  | Project _ -> "PROJECT"
  | Sort _ -> "SORT"
  | Join { j_method; j_kind; _ } ->
    Fmt.str "JOIN[%s,%s]" (join_method_name j_method) (join_kind_name j_kind)
  | Group _ -> "GROUP"
  | Distinct_op -> "DISTINCT"
  | Union_all -> "UNION-ALL"
  | Intersect_op all -> if all then "INTERSECT-ALL" else "INTERSECT"
  | Except_op all -> if all then "EXCEPT-ALL" else "EXCEPT"
  | Temp -> "TEMP"
  | Ship site -> Fmt.str "SHIP(%s)" site
  | Limit_op n -> Fmt.str "LIMIT(%d)" n
  | Values_scan _ -> "VALUES"
  | Table_fn_scan { tf_name; _ } -> Fmt.str "TABLEFN(%s)" tf_name
  | Bloom_filter _ -> "BLOOM"
  | Fixpoint _ -> "FIXPOINT"
  | Rec_delta _ -> "REC-DELTA"
  | Choose_op -> "CHOOSE"

let op_detail = function
  | Scan { sc_preds; sc_cols; _ } ->
    Fmt.str "cols=[%a] preds=[%a]"
      Fmt.(list ~sep:(Fmt.any ", ") int)
      sc_cols
      Fmt.(list ~sep:(Fmt.any ", ") pp_rexpr)
      sc_preds
  | Idx_access { ix_probe; ix_preds; _ } ->
    let probe =
      match ix_probe with
      | Pr_eq es -> Fmt.str "eq(%a)" Fmt.(list ~sep:(Fmt.any ", ") pp_rexpr) es
      | Pr_range _ -> "range"
      | Pr_custom (n, es) -> Fmt.str "%s(%a)" n Fmt.(list ~sep:(Fmt.any ", ") pp_rexpr) es
    in
    Fmt.str "probe=%s residual=[%a]" probe Fmt.(list ~sep:(Fmt.any ", ") pp_rexpr) ix_preds
  | Filter preds | Or_filter preds ->
    Fmt.str "[%a]" Fmt.(list ~sep:(Fmt.any ", ") pp_rexpr) preds
  | Project exprs -> Fmt.str "[%a]" Fmt.(list ~sep:(Fmt.any ", ") pp_rexpr) exprs
  | Sort keys ->
    Fmt.str "[%a]"
      Fmt.(
        list ~sep:(Fmt.any ", ") (fun ppf (i, d) ->
            Fmt.pf ppf "$%d%s" i (match d with Ast.Asc -> "" | Ast.Desc -> " DESC")))
      keys
  | Join { j_equi; j_pred; _ } ->
    Fmt.str "equi=[%a]%a"
      Fmt.(list ~sep:(Fmt.any ", ") (fun ppf (a, b) -> Fmt.pf ppf "$%d=$%d" a b))
      j_equi
      Fmt.(option (fun ppf p -> Fmt.pf ppf " pred=%a" pp_rexpr p))
      j_pred
  | Group { g_keys; g_aggs; g_sorted } ->
    Fmt.str "keys=[%a] aggs=[%a]%s"
      Fmt.(list ~sep:(Fmt.any ", ") int)
      g_keys
      Fmt.(
        list ~sep:(Fmt.any ", ") (fun ppf (n, d, a) ->
            Fmt.pf ppf "%s%s(%a)" n
              (if d then " distinct" else "")
              (option int) a))
      g_aggs
      (if g_sorted then " (streamed)" else "")
  | _ -> ""

let rec pp ?(indent = 0) ppf (p : plan) =
  let pad = String.make (indent * 2) ' ' in
  let detail = op_detail p.op in
  Fmt.pf ppf "%s%s%s  {cost=%.2f card=%.0f%s%s}@." pad (op_name p.op)
    (if detail = "" then "" else " " ^ detail)
    p.props.p_cost p.props.p_card
    (match p.props.p_order with
    | [] -> ""
    | o ->
      Fmt.str " order=[%s]"
        (String.concat ","
           (List.map
              (fun (i, d) ->
                Fmt.str "$%d%s" i (match d with Ast.Asc -> "" | Ast.Desc -> "v"))
              o)))
    (if p.props.p_site = "local" then "" else " site=" ^ p.props.p_site);
  List.iter (fun c -> pp ~indent:(indent + 1) ppf c) p.inputs

let to_string p =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_geometry ppf ~max_indent:9_998 ~margin:10_000;
  pp ppf p;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(** Counts operators in a plan (used by tests and the bench harness). *)
let rec size (p : plan) = 1 + List.fold_left (fun a c -> a + size c) 0 p.inputs

(** Rewrites every runtime expression of a plan in the {e current}
    parameter space: descends through inputs but not into the inner
    plans of parameter-bound joins nor into embedded subplans (both own
    their parameter spaces — [map_rexpr] already stops at [RSub]
    boundaries). *)
let rec map_plan_rexprs f (p : plan) : plan =
  let mr = map_rexpr f in
  let probe = function
    | Pr_eq es -> Pr_eq (List.map mr es)
    | Pr_range (lo, hi) ->
      Pr_range
        ( Option.map (fun (e, b) -> (mr e, b)) lo,
          Option.map (fun (e, b) -> (mr e, b)) hi )
    | Pr_custom (n, es) -> Pr_custom (n, List.map mr es)
  in
  let op =
    match p.op with
    | Scan s -> Scan { s with sc_preds = List.map mr s.sc_preds }
    | Idx_access s ->
      Idx_access
        { s with ix_preds = List.map mr s.ix_preds; ix_probe = probe s.ix_probe }
    | Idx_and s ->
      Idx_and
        {
          s with
          ia_preds = List.map mr s.ia_preds;
          ia_probes = List.map (fun (n, p) -> (n, probe p)) s.ia_probes;
        }
    | Filter ps -> Filter (List.map mr ps)
    | Or_filter ps -> Or_filter (List.map mr ps)
    | Project es -> Project (List.map mr es)
    | Join j ->
      Join
        {
          j with
          j_pred = Option.map mr j.j_pred;
          j_kind_pred = Option.map mr j.j_kind_pred;
          j_corr = List.map mr j.j_corr;
        }
    | Values_scan rows -> Values_scan (List.map (List.map mr) rows)
    | Table_fn_scan t -> Table_fn_scan { t with tf_args = List.map mr t.tf_args }
    | ( Sort _ | Group _ | Distinct_op | Union_all | Intersect_op _ | Except_op _
      | Temp | Ship _ | Limit_op _ | Bloom_filter _ | Fixpoint _ | Rec_delta _
      | Choose_op ) as op ->
      op
  in
  let inputs =
    match op with
    | Join j when j.j_bound -> (
      match p.inputs with
      | [ o; i ] -> [ map_plan_rexprs f o; i ]
      | l -> l)
    | _ -> List.map (map_plan_rexprs f) p.inputs
  in
  { p with op; inputs }

(** Renumbers the plan's correlation parameters: [RParam i] becomes
    [RParam (remap i)]. *)
let renumber_params remap (p : plan) : plan =
  map_plan_rexprs (function RParam i -> RParam (remap i) | e -> e) p
