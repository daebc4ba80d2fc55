(** Translation of Hydrogen ASTs into QGM, with name resolution and
    semantic analysis ("semantic analysis of the query is also done
    during parsing, so the QGM produced is guaranteed to be valid").

    Subqueries become quantifiers: IN/EXISTS/ANY produce existential [E]
    quantifiers, ALL and NOT IN produce universal [A] quantifiers, scalar
    subqueries produce [S] quantifiers, and DBC set-predicate functions
    produce [Ext name] quantifiers — all consumed in predicates through
    {!Qgm.constructor:Quantified} nodes.  Views and table expressions are
    resolved here; cyclic table-expression references (recursion) become
    cyclic range edges. *)

open Sb_storage
module Ast = Sb_hydrogen.Ast
module Functions = Sb_hydrogen.Functions
module Parser = Sb_hydrogen.Parser

exception Semantic_error of string

let error fmt = Fmt.kstr (fun s -> raise (Semantic_error s)) fmt

type config = {
  catalog : Catalog.t;
  functions : Functions.t;
  mutable enabled_ops : string list;
      (** extension table operations enabled by a DBC, e.g.
          ["left_outer_join"] *)
}

let make_config ~catalog ~functions = { catalog; functions; enabled_ops = [] }

let op_enabled cfg name = List.mem name cfg.enabled_ops

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

(** One FROM-item visible to name resolution: an alias plus the mapping
    from column names to positions of the quantifier's input box. *)
type binding = {
  bind_alias : string;
  bind_quant : Qgm.quant;
  bind_cols : (string * int) list;
}

type scope = {
  sc_bindings : binding list;
  sc_extra : (string option * string -> Qgm.expr option) option;
      (** consulted first; used for GROUP BY output scopes *)
  sc_parent : scope option;
}

let empty_scope = { sc_bindings = []; sc_extra = None; sc_parent = None }

let norm = String.lowercase_ascii

let binding_lookup (b : binding) col =
  List.assoc_opt (norm col) b.bind_cols

(** Resolves [qual.col]; searches the scope chain outward (references to
    outer scopes are correlations). *)
let rec resolve_col scope (qual, col) : Qgm.expr =
  let try_extra =
    match scope.sc_extra with Some f -> f (qual, col) | None -> None
  in
  match try_extra with
  | Some e -> e
  | None ->
    let candidates =
      match qual with
      | Some q ->
        List.filter (fun b -> norm b.bind_alias = norm q) scope.sc_bindings
        |> List.filter_map (fun b ->
               Option.map (fun i -> (b, i)) (binding_lookup b col))
      | None ->
        List.filter_map
          (fun b -> Option.map (fun i -> (b, i)) (binding_lookup b col))
          scope.sc_bindings
    in
    (match candidates with
    | [ (b, i) ] -> Qgm.Col (b.bind_quant.Qgm.q_id, i)
    | [] ->
      (match scope.sc_parent with
      | Some parent -> resolve_col parent (qual, col)
      | None ->
        (match qual with
        | Some q -> error "unknown column %s.%s" q col
        | None -> error "unknown column %s" col))
    | _ :: _ :: _ ->
      error "ambiguous column %s%s" (match qual with Some q -> q ^ "." | None -> "") col)

(* ------------------------------------------------------------------ *)
(* Types of QGM expressions                                            *)
(* ------------------------------------------------------------------ *)

let rec type_of cfg (g : Qgm.t) (e : Qgm.expr) : Datatype.t option =
  match e with
  | Qgm.Lit v -> Value.type_of v
  | Qgm.Col (qid, i) ->
    let q = Qgm.quant g qid in
    Qgm.col_type g q i
  | Qgm.Host _ -> None
  | Qgm.Bin (op, a, b) -> (
    let ta = type_of cfg g a and tb = type_of cfg g b in
    match op with
    | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or ->
      Some Datatype.Bool
    | Ast.Concat -> Some Datatype.String
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> (
      match ta, tb with
      | Some Datatype.Int, Some Datatype.Int ->
        if op = Ast.Div then Some Datatype.Int else Some Datatype.Int
      | Some (Datatype.Int | Datatype.Float), Some (Datatype.Int | Datatype.Float)
        -> Some Datatype.Float
      | None, _ | _, None -> None
      | Some t, _ -> error "arithmetic over %s" (Datatype.to_string t)))
  | Qgm.Un (Ast.Neg, a) -> type_of cfg g a
  | Qgm.Un (Ast.Not, _) -> Some Datatype.Bool
  | Qgm.Fun (name, args) -> (
    match Functions.find_scalar cfg.functions name with
    | None -> error "unknown function %s" name
    | Some f -> (
      (match f.Functions.sf_arity with
      | Some n when n <> List.length args ->
        error "%s expects %d arguments, got %d" name n (List.length args)
      | _ -> ());
      match f.Functions.sf_type (List.map (type_of cfg g) args) with
      | Ok t -> t
      | Error msg -> error "%s: %s" name msg))
  | Qgm.Agg (name, _, arg) -> (
    match Functions.find_aggregate cfg.functions name with
    | None -> error "unknown aggregate %s" name
    | Some f -> (
      match f.Functions.af_type (Option.bind arg (type_of cfg g)) with
      | Ok t -> t
      | Error msg -> error "%s: %s" name msg))
  | Qgm.Case (arms, els) -> (
    List.iter
      (fun (c, _) ->
        match type_of cfg g c with
        | Some Datatype.Bool | None -> ()
        | Some t -> error "CASE condition of type %s" (Datatype.to_string t))
      arms;
    let arm_types =
      List.map (fun (_, v) -> type_of cfg g v) arms
      @ match els with Some e -> [ type_of cfg g e ] | None -> []
    in
    match List.find_opt Option.is_some arm_types with
    | Some t -> t
    | None -> None)
  | Qgm.Is_null _ -> Some Datatype.Bool
  | Qgm.Like _ -> Some Datatype.Bool
  | Qgm.Quantified _ -> Some Datatype.Bool

let check_boolean cfg g ctx e =
  match type_of cfg g e with
  | Some Datatype.Bool | None -> ()
  | Some t -> error "%s must be boolean, found %s" ctx (Datatype.to_string t)

(* ------------------------------------------------------------------ *)
(* Build context                                                       *)
(* ------------------------------------------------------------------ *)

type ctx = {
  cfg : config;
  g : Qgm.t;
  mutable base_boxes : (string * Qgm.box_id) list;  (* one box per table *)
  mutable table_exprs : (string * Qgm.box_id) list;  (* WITH bindings *)
  mutable view_stack : string list;  (* cycle detection for views *)
}

let base_table_box ctx name (tab : Table_store.t) : Qgm.box_id =
  match List.assoc_opt (norm name) ctx.base_boxes with
  | Some id -> id
  | None ->
    let b =
      Qgm.new_box ctx.g ~label:tab.Table_store.name
        (Qgm.Base_table tab.Table_store.name)
    in
    b.Qgm.b_head <-
      Array.to_list tab.Table_store.schema
      |> List.map (fun c ->
             {
               Qgm.hc_name = c.Schema.col_name;
               hc_type = Some c.Schema.col_type;
               hc_expr = None;
             });
    ctx.base_boxes <- (norm name, b.Qgm.b_id) :: ctx.base_boxes;
    b.Qgm.b_id

let head_binding alias (q : Qgm.quant) (head : Qgm.head_col list) : binding =
  {
    bind_alias = alias;
    bind_quant = q;
    bind_cols = List.mapi (fun i hc -> (norm hc.Qgm.hc_name, i)) head;
  }

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(** Converts an AST expression into a QGM expression.
    [box] is where subquery quantifiers are attached; [scope] resolves
    column names; [pre] (if given) is consulted on every node first —
    the GROUP BY output scope uses it to capture grouping expressions
    and aggregates. *)
let rec convert_expr ctx ~(box : Qgm.box) ~scope ?pre (e : Ast.expr) : Qgm.expr =
  let recur = convert_expr ctx ~box ~scope ?pre in
  match Option.bind pre (fun f -> f e) with
  | Some q -> q
  | None -> (
    match e with
    | Ast.Lit v -> Qgm.Lit v
    | Ast.Col (qual, col) -> resolve_col scope (qual, col)
    | Ast.Host v -> Qgm.Host v
    | Ast.Bin (op, a, b) -> Qgm.Bin (op, recur a, recur b)
    | Ast.Un (Ast.Not, inner) -> convert_negated ctx ~box ~scope ?pre inner
    | Ast.Un (op, a) -> Qgm.Un (op, recur a)
    | Ast.Func (name, args) ->
      (* the parser cannot know which names are aggregates *)
      if Functions.is_aggregate ctx.cfg.functions name then begin
        match args with
        | [ a ] -> recur (Ast.Agg (name, false, Some a))
        | _ -> error "aggregate %s takes one argument" name
      end
      else begin
        if Functions.find_scalar ctx.cfg.functions name = None then
          error "unknown function %s" name;
        Qgm.Fun (name, List.map recur args)
      end
    | Ast.Agg (name, distinct, arg) ->
      if Functions.find_aggregate ctx.cfg.functions name = None then
        error "unknown aggregate %s" name;
      (* reaching here outside a GROUP BY output scope is an error the
         caller detects via Qgm.contains_agg / Check *)
      Qgm.Agg (name, distinct, Option.map recur arg)
    | Ast.Case (arms, els) ->
      Qgm.Case
        ( List.map (fun (c, v) -> (recur c, recur v)) arms,
          Option.map recur els )
    | Ast.Is_null a -> Qgm.Is_null (recur a)
    | Ast.In_list (a, items) ->
      (* x IN (v1 .. vn)  ≡  x = v1 OR ... *)
      let x = recur a in
      let eqs = List.map (fun item -> Qgm.Bin (Ast.Eq, x, recur item)) items in
      (match eqs with
      | [] -> Qgm.Lit (Value.Bool false)
      | e :: rest -> List.fold_left (fun acc e -> Qgm.Bin (Ast.Or, acc, e)) e rest)
    | Ast.In_query (a, q) ->
      let x = recur a in
      let qu = subquery_quant ctx ~box ~scope Qgm.E q in
      Qgm.Quantified (qu.Qgm.q_id, Qgm.Bin (Ast.Eq, x, Qgm.Col (qu.Qgm.q_id, 0)))
    | Ast.Exists q ->
      let qu = subquery_quant ctx ~box ~scope Qgm.E q in
      Qgm.Quantified (qu.Qgm.q_id, Qgm.Lit (Value.Bool true))
    | Ast.Quant_cmp (a, op, kind, q) ->
      let x = recur a in
      let qtype =
        match kind with
        | Ast.Q_all -> Qgm.A
        | Ast.Q_any -> Qgm.E
        | Ast.Q_named name ->
          if Functions.find_set_predicate ctx.cfg.functions name = None then
            error "unknown set predicate %s" name;
          Qgm.SP (norm name)
      in
      let qu = subquery_quant ctx ~box ~scope qtype q in
      Qgm.Quantified (qu.Qgm.q_id, Qgm.Bin (op, x, Qgm.Col (qu.Qgm.q_id, 0)))
    | Ast.Scalar_query q ->
      let qu = subquery_quant ctx ~box ~scope Qgm.S q in
      Qgm.Col (qu.Qgm.q_id, 0)
    | Ast.Between (a, lo, hi) ->
      let x = recur a in
      Qgm.Bin (Ast.And, Qgm.Bin (Ast.Ge, x, recur lo), Qgm.Bin (Ast.Le, x, recur hi))
    | Ast.Like (a, pat) -> Qgm.Like (recur a, pat))

(** NOT pushed over subquery constructs so that anti-joins become
    universal quantifiers: NOT IN / NOT (op ANY) give [A] quantifiers,
    NOT EXISTS gives an [A] quantifier with predicate FALSE, and
    NOT (op ALL) gives an [E] quantifier with the negated comparison. *)
and convert_negated ctx ~box ~scope ?pre (e : Ast.expr) : Qgm.expr =
  let recur = convert_expr ctx ~box ~scope ?pre in
  match e with
  | Ast.In_query (a, q) ->
    let x = recur a in
    let qu = subquery_quant ctx ~box ~scope Qgm.A q in
    Qgm.Quantified
      ( qu.Qgm.q_id,
        Qgm.Un (Ast.Not, Qgm.Bin (Ast.Eq, x, Qgm.Col (qu.Qgm.q_id, 0))) )
  | Ast.Exists q ->
    let qu = subquery_quant ctx ~box ~scope Qgm.A q in
    Qgm.Quantified (qu.Qgm.q_id, Qgm.Lit (Value.Bool false))
  | Ast.Quant_cmp (a, op, Ast.Q_all, q) ->
    let x = recur a in
    let qu = subquery_quant ctx ~box ~scope Qgm.E q in
    Qgm.Quantified
      ( qu.Qgm.q_id,
        Qgm.Un (Ast.Not, Qgm.Bin (op, x, Qgm.Col (qu.Qgm.q_id, 0))) )
  | Ast.Quant_cmp (a, op, Ast.Q_any, q) ->
    let x = recur a in
    let qu = subquery_quant ctx ~box ~scope Qgm.A q in
    Qgm.Quantified
      ( qu.Qgm.q_id,
        Qgm.Un (Ast.Not, Qgm.Bin (op, x, Qgm.Col (qu.Qgm.q_id, 0))) )
  | Ast.Un (Ast.Not, inner) -> recur inner
  | e -> Qgm.Un (Ast.Not, recur e)

(** Builds the subquery's box and attaches a quantifier of [qtype] to
    [box].  The enclosing [scope] becomes the parent scope, so inner
    references to outer quantifiers (correlation) resolve naturally. *)
and subquery_quant ctx ~box ~scope qtype (q : Ast.query) : Qgm.quant =
  let sub = build_query ctx ~scope:(Some scope) q in
  Qgm.new_quant ctx.g ~parent:box.Qgm.b_id ~input:sub qtype

(* ------------------------------------------------------------------ *)
(* FROM items                                                          *)
(* ------------------------------------------------------------------ *)

(** Adds quantifiers for [item] to [box]; returns bindings and appends
    join predicates (from explicit JOIN ... ON) to [box]. *)
and build_from ctx ~(box : Qgm.box) ~scope (item : Ast.from_item) : binding list =
  match item with
  | Ast.From_table (name, alias) ->
    let alias = Option.value ~default:name alias in
    (* resolution order: table expressions, then views, then tables *)
    (match List.assoc_opt (norm name) ctx.table_exprs with
    | Some box_id ->
      let input = Qgm.box ctx.g box_id in
      let q = Qgm.new_quant ctx.g ~label:alias ~parent:box.Qgm.b_id ~input:box_id Qgm.F in
      [ head_binding alias q input.Qgm.b_head ]
    | None -> (
      match Catalog.find_view ctx.cfg.catalog name with
      | Some view -> build_view ctx ~box ~alias view
      | None -> (
        match Catalog.find_table ctx.cfg.catalog name with
        | Some tab ->
          let id = base_table_box ctx name tab in
          let q = Qgm.new_quant ctx.g ~label:alias ~parent:box.Qgm.b_id ~input:id Qgm.F in
          [ head_binding alias q (Qgm.box ctx.g id).Qgm.b_head ]
        | None -> error "unknown table or view %s" name)))
  | Ast.From_query (q, alias, cols) ->
    let sub = build_query ctx ~scope:(Some scope) q in
    let sub_box = Qgm.box ctx.g sub in
    (match cols with
    | Some names ->
      if List.length names <> Qgm.arity sub_box then
        error "derived table %s: %d column names for %d columns" alias
          (List.length names) (Qgm.arity sub_box);
      sub_box.Qgm.b_head <-
        List.map2
          (fun hc name -> { hc with Qgm.hc_name = name })
          sub_box.Qgm.b_head names
    | None -> ());
    let q = Qgm.new_quant ctx.g ~label:alias ~parent:box.Qgm.b_id ~input:sub Qgm.F in
    [ head_binding alias q sub_box.Qgm.b_head ]
  | Ast.From_func (name, args, alias) ->
    build_table_fn ctx ~box ~scope name args alias
  | Ast.From_join (l, Ast.Inner, r, on) ->
    let bl = build_from ctx ~box ~scope l in
    let br = build_from ctx ~box ~scope r in
    let bindings = bl @ br in
    let jscope = { sc_bindings = bindings; sc_extra = None; sc_parent = Some scope } in
    let cond = convert_expr ctx ~box ~scope:jscope on in
    check_boolean ctx.cfg ctx.g "ON condition" cond;
    box.Qgm.b_preds <-
      box.Qgm.b_preds
      @ List.map (fun e -> Qgm.pred e) (Qgm.conjuncts cond);
    bindings
  | Ast.From_join (l, Ast.Left_outer, r, on) ->
    build_outer_join ctx ~box ~scope l r on
  | Ast.From_join (l, Ast.Right_outer, r, on) ->
    build_outer_join ctx ~box ~scope r l on
  | Ast.From_join (_, Ast.Full_outer, _, _) ->
    error "FULL OUTER JOIN is not supported"

(** Left outer join: available once a DBC has enabled the
    ["left_outer_join"] operation (section 4's running example).  A
    dedicated SELECT box is built whose preserved side ranges through a
    [PF] (Preserve-ForEach) setformer; the base system's rewrite rules
    are conservative about [PF], and the extension registers its own. *)
and build_outer_join ctx ~box ~scope outer inner on : binding list =
  if not (op_enabled ctx.cfg "left_outer_join") then
    error
      "LEFT OUTER JOIN requires the outer-join extension (register it via \
       Extension.enable_outer_join)";
  let oj = Qgm.new_box ctx.g ~label:"OJ" Qgm.Select in
  let bl = build_oj_side ctx ~oj ~scope outer in
  (* the preserved side's setformers become PF *)
  let preserved =
    List.concat_map
      (fun b ->
        List.filter (fun q -> q.Qgm.q_id = b.bind_quant.Qgm.q_id) oj.Qgm.b_quants)
      bl
  in
  List.iter
    (fun q -> if q.Qgm.q_type = Qgm.F then q.Qgm.q_type <- Qgm.Ext "PF")
    preserved;
  let br = build_oj_side ctx ~oj ~scope inner in
  let bindings = bl @ br in
  let jscope = { sc_bindings = bindings; sc_extra = None; sc_parent = Some scope } in
  let cond = convert_expr ctx ~box:oj ~scope:jscope on in
  check_boolean ctx.cfg ctx.g "ON condition" cond;
  oj.Qgm.b_preds <-
    List.map (fun e -> Qgm.pred e) (Qgm.conjuncts cond);
  wrap_bindings ctx ~box ~label:"OJq" oj bindings

(* One side of an outer join.  A side that is itself an inner join
   becomes a SELECT box of its own, so each side is one setformer and
   the inner join's ON predicates stay with its own quantifiers instead
   of joining the outer join's conditions. *)
and build_oj_side ctx ~oj ~scope item : binding list =
  match item with
  | Ast.From_join (_, Ast.Inner, _, _) ->
    let sb = Qgm.new_box ctx.g ~label:"J" Qgm.Select in
    let bindings = build_from ctx ~box:sb ~scope item in
    wrap_bindings ctx ~box:oj ~label:"Jq" sb bindings
  | item -> build_from ctx ~box:oj ~scope item

(* Gives [sub] a head of every column of every binding, in binding
   order, and ranges one F quantifier of [box] over it; each original
   alias resolves into a slice of that quantifier. *)
and wrap_bindings ctx ~box ~label (sub : Qgm.box) bindings : binding list =
  let head, rebound =
    let cols = ref [] and rebound = ref [] in
    List.iter
      (fun b ->
        let start = List.length !cols in
        let input = Qgm.box ctx.g b.bind_quant.Qgm.q_input in
        (* the binding's own columns: a binding may itself be a slice *)
        let names = List.sort (fun (_, i) (_, j) -> Int.compare i j) b.bind_cols in
        List.iter
          (fun (name, i) ->
            let hc = List.nth input.Qgm.b_head i in
            cols :=
              !cols
              @ [
                  {
                    Qgm.hc_name = Fmt.str "%s_%s" b.bind_alias name;
                    hc_type = hc.Qgm.hc_type;
                    hc_expr = Some (Qgm.Col (b.bind_quant.Qgm.q_id, i));
                  };
                ])
          names;
        rebound := !rebound @ [ (b.bind_alias, start, List.map fst names) ])
      bindings;
    (!cols, !rebound)
  in
  sub.Qgm.b_head <- head;
  let q =
    Qgm.new_quant ctx.g ~label ~parent:box.Qgm.b_id ~input:sub.Qgm.b_id Qgm.F
  in
  List.map
    (fun (alias, start, names) ->
      {
        bind_alias = alias;
        bind_quant = q;
        bind_cols = List.mapi (fun i n -> (n, start + i)) names;
      })
    rebound

and build_view ctx ~box ~alias (view : Catalog.view_def) : binding list =
  if List.mem (norm view.Catalog.view_name) ctx.view_stack then
    error "cyclic view reference through %s" view.Catalog.view_name;
  ctx.view_stack <- norm view.Catalog.view_name :: ctx.view_stack;
  let wq =
    try Parser.query_text view.Catalog.view_text
    with e ->
      error "view %s: cannot parse stored definition (%s)" view.Catalog.view_name
        (Printexc.to_string e)
  in
  let sub = build_with_query ctx ~scope:None wq in
  ctx.view_stack <- List.tl ctx.view_stack;
  let sub_box = Qgm.box ctx.g sub in
  (match view.Catalog.view_columns with
  | Some names ->
    if List.length names <> Qgm.arity sub_box then
      error "view %s: %d column names for %d columns" view.Catalog.view_name
        (List.length names) (Qgm.arity sub_box);
    sub_box.Qgm.b_head <-
      List.map2 (fun hc name -> { hc with Qgm.hc_name = name }) sub_box.Qgm.b_head
        names
  | None -> ());
  sub_box.Qgm.b_label <- view.Catalog.view_name;
  let q = Qgm.new_quant ctx.g ~label:alias ~parent:box.Qgm.b_id ~input:sub Qgm.F in
  [ head_binding alias q sub_box.Qgm.b_head ]

and build_table_fn ctx ~box ~scope name args alias : binding list =
  let tf =
    match Functions.find_table_fn ctx.cfg.functions name with
    | Some tf -> tf
    | None -> error "unknown table function %s" name
  in
  let alias = Option.value ~default:name alias in
  let fn_box = Qgm.new_box ctx.g ~label:alias (Qgm.Table_fn (name, [])) in
  let table_args = ref [] and value_args = ref [] in
  List.iter
    (fun arg ->
      match arg with
      | Ast.Targ_table item ->
        let bs = build_from ctx ~box:fn_box ~scope item in
        List.iter
          (fun b ->
            table_args := !table_args @ [ Qgm.box ctx.g b.bind_quant.Qgm.q_input ])
          bs
      | Ast.Targ_expr e ->
        let qe = convert_expr ctx ~box:fn_box ~scope e in
        if Qgm.col_refs qe <> [] then
          error "table function %s: value arguments cannot reference columns" name;
        value_args := !value_args @ [ qe ])
    args;
  fn_box.Qgm.b_kind <- Qgm.Table_fn (name, !value_args);
  let arg_schemas =
    List.map
      (fun (b : Qgm.box) ->
        Array.of_list
          (List.map
             (fun hc ->
               Schema.column hc.Qgm.hc_name
                 (Option.value ~default:Datatype.String hc.Qgm.hc_type))
             b.Qgm.b_head))
      !table_args
  in
  let out_schema =
    match
      tf.Functions.tf_type ~arg_tables:arg_schemas
        ~arg_values:(List.map (fun e -> type_of ctx.cfg ctx.g e) !value_args)
    with
    | Ok s -> s
    | Error msg -> error "table function %s: %s" name msg
  in
  fn_box.Qgm.b_head <-
    Array.to_list out_schema
    |> List.map (fun c ->
           {
             Qgm.hc_name = c.Schema.col_name;
             hc_type = Some c.Schema.col_type;
             hc_expr = None;
           });
  let q = Qgm.new_quant ctx.g ~label:alias ~parent:box.Qgm.b_id ~input:fn_box.Qgm.b_id Qgm.F in
  [ head_binding alias q fn_box.Qgm.b_head ]

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(** Builds [q]; returns the id of its result box. *)
and build_query ctx ~scope (q : Ast.query) : Qgm.box_id =
  let parent_scope = scope in
  match q with
  | Ast.Select sel -> build_select ctx ~scope:parent_scope sel
  | Ast.Set_op (op, all, l, r) ->
    let lb = build_query ctx ~scope l in
    let rb = build_query ctx ~scope r in
    let lbox = Qgm.box ctx.g lb and rbox = Qgm.box ctx.g rb in
    if Qgm.arity lbox <> Qgm.arity rbox then
      error "set operation arity mismatch: %d vs %d" (Qgm.arity lbox)
        (Qgm.arity rbox);
    let b = Qgm.new_box ctx.g (Qgm.Set_op (op, all)) in
    ignore (Qgm.new_quant ctx.g ~parent:b.Qgm.b_id ~input:lb Qgm.F);
    ignore (Qgm.new_quant ctx.g ~parent:b.Qgm.b_id ~input:rb Qgm.F);
    b.Qgm.b_head <-
      List.map2
        (fun l r ->
          {
            Qgm.hc_name = l.Qgm.hc_name;
            hc_type = (if l.Qgm.hc_type = None then r.Qgm.hc_type else l.Qgm.hc_type);
            hc_expr = None;
          })
        lbox.Qgm.b_head rbox.Qgm.b_head;
    b.Qgm.b_distinct <- not all;
    b.Qgm.b_id
  | Ast.Values rows ->
    if rows = [] then error "VALUES requires at least one row";
    let b = Qgm.new_box ctx.g (Qgm.Values_box []) in
    let scope0 =
      match parent_scope with Some s -> s | None -> empty_scope
    in
    let arity = List.length (List.hd rows) in
    let qrows =
      List.map
        (fun row ->
          if List.length row <> arity then error "VALUES rows of unequal arity";
          List.map (fun e -> convert_expr ctx ~box:b ~scope:scope0 e) row)
        rows
    in
    b.Qgm.b_kind <- Qgm.Values_box qrows;
    b.Qgm.b_head <-
      List.mapi
        (fun i _ ->
          let ty =
            (* first non-null type in the column *)
            List.fold_left
              (fun acc row ->
                if acc <> None then acc
                else type_of ctx.cfg ctx.g (List.nth row i))
              None qrows
          in
          { Qgm.hc_name = Fmt.str "c%d" (i + 1); hc_type = ty; hc_expr = None })
        (List.hd rows);
    b.Qgm.b_id

and build_select ctx ~scope (sel : Ast.select) : Qgm.box_id =
  let sb = Qgm.new_box ctx.g Qgm.Select in
  (* FROM items are visible left to right, so a derived table or table
     function may be correlated with earlier siblings ("table
     expressions ... may be correlated with other parts of the query",
     section 2); the optimizer plans such references as lateral
     nested-loop applies *)
  let bindings =
    List.fold_left
      (fun acc item ->
        let visible =
          { sc_bindings = acc; sc_extra = None; sc_parent = scope }
        in
        acc @ build_from ctx ~box:sb ~scope:visible item)
      [] sel.Ast.sel_from
  in
  (* duplicate aliases are an error *)
  let () =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun b ->
        let k = norm b.bind_alias in
        if Hashtbl.mem seen k then error "duplicate table alias %s" b.bind_alias;
        Hashtbl.replace seen k ())
      bindings
  in
  let sc = { sc_bindings = bindings; sc_extra = None; sc_parent = scope } in
  (match sel.Ast.sel_where with
  | Some w ->
    let e = convert_expr ctx ~box:sb ~scope:sc w in
    check_boolean ctx.cfg ctx.g "WHERE" e;
    sb.Qgm.b_preds <-
      sb.Qgm.b_preds @ List.map (fun e -> Qgm.pred e) (Qgm.conjuncts e)
  | None -> ());
  (* does the query aggregate? *)
  let rec ast_has_agg (e : Ast.expr) =
    match e with
    | Ast.Agg _ -> true
    | Ast.Func (f, args) ->
      Functions.is_aggregate ctx.cfg.functions f
      || List.exists ast_has_agg args
    | Ast.Bin (_, a, b) -> ast_has_agg a || ast_has_agg b
    | Ast.Un (_, a) | Ast.Is_null a | Ast.Like (a, _) -> ast_has_agg a
    | Ast.Case (arms, els) ->
      List.exists (fun (c, v) -> ast_has_agg c || ast_has_agg v) arms
      || (match els with Some e -> ast_has_agg e | None -> false)
    | Ast.Between (a, lo, hi) -> ast_has_agg a || ast_has_agg lo || ast_has_agg hi
    | Ast.In_list (a, items) -> ast_has_agg a || List.exists ast_has_agg items
    | Ast.Lit _ | Ast.Col _ | Ast.Host _ | Ast.In_query _ | Ast.Exists _
    | Ast.Quant_cmp _ | Ast.Scalar_query _ ->
      false
  in
  let items_have_agg =
    List.exists
      (function Ast.Item (e, _) -> ast_has_agg e | Ast.Star | Ast.Qualified_star _ -> false)
      sel.Ast.sel_items
    || (match sel.Ast.sel_having with Some h -> ast_has_agg h | None -> false)
  in
  let grouped = sel.Ast.sel_group <> [] || items_have_agg in
  if not grouped then begin
    (* plain select/project/join *)
    if sel.Ast.sel_having <> None then error "HAVING requires GROUP BY";
    let head = build_items ctx ~box:sb ~scope:sc bindings sel.Ast.sel_items in
    sb.Qgm.b_head <- head;
    sb.Qgm.b_distinct <- sel.Ast.sel_distinct;
    sb.Qgm.b_order <-
      List.map
        (fun (e, d) -> (convert_order ctx ~box:sb ~scope:sc head e, d))
        sel.Ast.sel_order;
    sb.Qgm.b_limit <- sel.Ast.sel_limit;
    sb.Qgm.b_id
  end
  else build_grouped ctx ~scope ~sb ~sc sel

(** Converts select items into head columns. *)
and build_items ctx ~box ~scope ?pre bindings (items : Ast.sel_item list) :
    Qgm.head_col list =
  let expand_binding (b : binding) =
    List.map
      (fun (name, i) ->
        let e = Qgm.Col (b.bind_quant.Qgm.q_id, i) in
        {
          Qgm.hc_name = name;
          hc_type = type_of ctx.cfg ctx.g e;
          hc_expr = Some e;
        })
      (List.sort (fun (_, i) (_, j) -> Int.compare i j) b.bind_cols)
  in
  List.concat_map
    (fun item ->
      match item with
      | Ast.Star ->
        if bindings = [] then error "SELECT * with no FROM clause";
        List.concat_map expand_binding bindings
      | Ast.Qualified_star t -> (
        match
          List.find_opt (fun b -> norm b.bind_alias = norm t) bindings
        with
        | Some b -> expand_binding b
        | None -> error "unknown table alias %s.*" t)
      | Ast.Item (e, alias) ->
        let qe = convert_expr ctx ~box ~scope ?pre e in
        let name =
          match alias with
          | Some a -> a
          | None -> (
            match e with
            | Ast.Col (_, c) -> c
            | Ast.Agg (f, _, _) -> f
            | Ast.Func (f, _) -> f
            | _ -> Fmt.str "c%d" (List.length items))
        in
        [ { Qgm.hc_name = name; hc_type = type_of ctx.cfg ctx.g qe; hc_expr = Some qe } ])
    items

(** ORDER BY keys: positional integers refer to select items, aliases
    refer to select items, otherwise normal resolution. *)
and convert_order ctx ~box ~scope ?pre (head : Qgm.head_col list) (e : Ast.expr) :
    Qgm.expr =
  match e with
  | Ast.Lit (Value.Int n) ->
    if n < 1 || n > List.length head then
      error "ORDER BY position %d out of range" n;
    (match (List.nth head (n - 1)).Qgm.hc_expr with
    | Some e -> e
    | None -> error "ORDER BY position %d unavailable" n)
  | Ast.Col (None, name)
    when List.exists (fun hc -> norm hc.Qgm.hc_name = norm name) head -> (
    match
      (List.find (fun hc -> norm hc.Qgm.hc_name = norm name) head).Qgm.hc_expr
    with
    | Some e -> e
    | None -> error "cannot ORDER BY column %s" name)
  | e -> convert_expr ctx ~box ~scope ?pre e

(** Grouped select: a lower SELECT box computes grouping keys and
    aggregate arguments, a GROUP BY box forms groups and applies
    aggregates, and an upper SELECT box computes the final items and
    applies HAVING. *)
and build_grouped ctx ~scope ~sb ~sc (sel : Ast.select) : Qgm.box_id =
  (* grouping expressions, converted in the lower scope *)
  let gexprs =
    List.map (fun e -> (e, convert_expr ctx ~box:sb ~scope:sc e)) sel.Ast.sel_group
  in
  List.iter
    (fun (_, qe) ->
      if Qgm.contains_quantified qe then
        error "subqueries in GROUP BY expressions are not supported")
    gexprs;
  (* lower head starts with the group keys *)
  sb.Qgm.b_head <-
    List.mapi
      (fun i (_, qe) ->
        {
          Qgm.hc_name = Fmt.str "g%d" (i + 1);
          hc_type = type_of ctx.cfg ctx.g qe;
          hc_expr = Some qe;
        })
      gexprs;
  let gb = Qgm.new_box ctx.g ~label:"GB" (Qgm.Group_by []) in
  let gq = Qgm.new_quant ctx.g ~label:"Qg" ~parent:gb.Qgm.b_id ~input:sb.Qgm.b_id Qgm.F in
  let k = List.length gexprs in
  gb.Qgm.b_kind <-
    Qgm.Group_by (List.init k (fun i -> Qgm.Col (gq.Qgm.q_id, i)));
  (* GROUP BY head: group keys pass through; aggregates are appended on
     demand as the upper box's expressions are converted *)
  gb.Qgm.b_head <-
    List.mapi
      (fun i (_, _) ->
        let src = List.nth sb.Qgm.b_head i in
        {
          Qgm.hc_name = src.Qgm.hc_name;
          hc_type = src.Qgm.hc_type;
          hc_expr = Some (Qgm.Col (gq.Qgm.q_id, i));
        })
      gexprs;
  let tb = Qgm.new_box ctx.g ~label:"HAV" Qgm.Select in
  let tq = Qgm.new_quant ctx.g ~label:"Qt" ~parent:tb.Qgm.b_id ~input:gb.Qgm.b_id Qgm.F in
  (* appends an aggregate over the lower box to both heads, returning
     the upper-box column that carries it *)
  let add_aggregate name distinct (arg : Ast.expr option) : Qgm.expr =
    let qarg = Option.map (convert_expr ctx ~box:sb ~scope:sc) arg in
    (* column of the lower box carrying the argument *)
    let arg_col =
      Option.map
        (fun qe ->
          let existing =
            List.mapi (fun i hc -> (i, hc)) sb.Qgm.b_head
            |> List.find_opt (fun (_, hc) -> hc.Qgm.hc_expr = Some qe)
          in
          match existing with
          | Some (i, _) -> i
          | None ->
            sb.Qgm.b_head <-
              sb.Qgm.b_head
              @ [
                  {
                    Qgm.hc_name = Fmt.str "a%d" (List.length sb.Qgm.b_head);
                    hc_type = type_of ctx.cfg ctx.g qe;
                    hc_expr = Some qe;
                  };
                ];
            List.length sb.Qgm.b_head - 1)
        qarg
    in
    let agg =
      Qgm.Agg (name, distinct, Option.map (fun i -> Qgm.Col (gq.Qgm.q_id, i)) arg_col)
    in
    (* reuse an existing identical aggregate column *)
    let existing =
      List.mapi (fun i hc -> (i, hc)) gb.Qgm.b_head
      |> List.find_opt (fun (_, hc) -> hc.Qgm.hc_expr = Some agg)
    in
    let idx =
      match existing with
      | Some (i, _) -> i
      | None ->
        gb.Qgm.b_head <-
          gb.Qgm.b_head
          @ [
              {
                Qgm.hc_name = Fmt.str "agg%d" (List.length gb.Qgm.b_head);
                hc_type = type_of ctx.cfg ctx.g agg;
                hc_expr = Some agg;
              };
            ];
        List.length gb.Qgm.b_head - 1
    in
    Qgm.Col (tq.Qgm.q_id, idx)
  in
  (* upper-scope conversion hook: grouping expressions and aggregates
     short-circuit to upper-box columns *)
  let pre (e : Ast.expr) : Qgm.expr option =
    let matches_group =
      List.mapi (fun i (ast, _) -> (i, ast)) gexprs
      |> List.find_opt (fun (_, ast) -> ast = e)
    in
    match matches_group with
    | Some (i, _) -> Some (Qgm.Col (tq.Qgm.q_id, i))
    | None -> (
      match e with
      | Ast.Agg (name, distinct, arg) ->
        if Functions.find_aggregate ctx.cfg.functions name = None then
          error "unknown aggregate %s" name;
        Some (add_aggregate name distinct arg)
      | Ast.Func (name, [ arg ]) when Functions.is_aggregate ctx.cfg.functions name
        ->
        Some (add_aggregate name false (Some arg))
      | _ -> None)
  in
  (* upper scope: group keys by name; unresolved names fall to the outer
     scope (correlation), not to the lower box *)
  let group_col_names =
    List.concat
      (List.mapi
         (fun i (ast, _) ->
           match ast with
           | Ast.Col (qual, name) ->
             [ ((qual, norm name), i); ((None, norm name), i) ]
           | _ -> [])
         gexprs)
  in
  let upper_scope =
    {
      sc_bindings = [];
      sc_extra =
        Some
          (fun (qual, name) ->
            let find key = List.assoc_opt key group_col_names in
            match find (qual, norm name) with
            | Some i -> Some (Qgm.Col (tq.Qgm.q_id, i))
            | None -> (
              match find (None, norm name) with
              | Some i -> Some (Qgm.Col (tq.Qgm.q_id, i))
              | None ->
                (* a qualified name whose qualifier is a lower binding
                   but is not grouped: give a precise error *)
                (match qual with
                | Some q
                  when List.exists
                         (fun b -> norm b.bind_alias = norm q)
                         sc.sc_bindings ->
                  error "column %s.%s must appear in GROUP BY" q name
                | None
                  when List.exists
                         (fun b -> binding_lookup b name <> None)
                         sc.sc_bindings ->
                  error "column %s must appear in GROUP BY" name
                | _ -> None)));
      sc_parent = scope;
    }
  in
  let head = build_items ctx ~box:tb ~scope:upper_scope ~pre [] sel.Ast.sel_items in
  (* SELECT * is meaningless under GROUP BY *)
  List.iter
    (function
      | Ast.Star | Ast.Qualified_star _ ->
        error "SELECT * cannot be used with GROUP BY or aggregates"
      | Ast.Item _ -> ())
    sel.Ast.sel_items;
  tb.Qgm.b_head <- head;
  (match sel.Ast.sel_having with
  | Some h ->
    let e = convert_expr ctx ~box:tb ~scope:upper_scope ~pre h in
    check_boolean ctx.cfg ctx.g "HAVING" e;
    tb.Qgm.b_preds <- List.map (fun e -> Qgm.pred e) (Qgm.conjuncts e)
  | None -> ());
  tb.Qgm.b_distinct <- sel.Ast.sel_distinct;
  tb.Qgm.b_order <-
    List.map
      (fun (e, d) ->
        (convert_order ctx ~box:tb ~scope:upper_scope ~pre head e, d))
      sel.Ast.sel_order;
  tb.Qgm.b_limit <- sel.Ast.sel_limit;
  tb.Qgm.b_id

(* ------------------------------------------------------------------ *)
(* WITH (table expressions, possibly recursive)                        *)
(* ------------------------------------------------------------------ *)

and build_with_query ctx ~scope (wq : Ast.with_query) : Qgm.box_id =
  let saved = ctx.table_exprs in
  if wq.Ast.with_recursive then begin
    (* pre-create a pass-through box per definition so that references
       (including self-references) resolve; cycles become cyclic range
       edges, detected by the executor as fixpoints *)
    let placeholders =
      List.map
        (fun (name, cols, _) ->
          let cols =
            match cols with
            | Some cols -> cols
            | None ->
              error
                "recursive table expression %s requires an explicit column list"
                name
          in
          let p = Qgm.new_box ctx.g ~label:name Qgm.Select in
          p.Qgm.b_head <-
            List.map
              (fun c -> { Qgm.hc_name = c; hc_type = None; hc_expr = None })
              cols;
          ctx.table_exprs <- (norm name, p.Qgm.b_id) :: ctx.table_exprs;
          (name, p))
        wq.Ast.with_defs
    in
    List.iter2
      (fun (name, _, q) (_, (p : Qgm.box)) ->
        let body = build_query ctx ~scope q in
        let body_box = Qgm.box ctx.g body in
        if Qgm.arity body_box <> Qgm.arity p then
          error "table expression %s: %d columns declared, body has %d" name
            (Qgm.arity p) (Qgm.arity body_box);
        let q = Qgm.new_quant ctx.g ~label:name ~parent:p.Qgm.b_id ~input:body Qgm.F in
        p.Qgm.b_head <-
          List.mapi
            (fun i hc ->
              {
                hc with
                Qgm.hc_type = (List.nth body_box.Qgm.b_head i).Qgm.hc_type;
                hc_expr = Some (Qgm.Col (q.Qgm.q_id, i));
              })
            p.Qgm.b_head)
      wq.Ast.with_defs placeholders
  end
  else
    List.iter
      (fun (name, cols, q) ->
        let id = build_query ctx ~scope q in
        let b = Qgm.box ctx.g id in
        (match cols with
        | Some names ->
          if List.length names <> Qgm.arity b then
            error "table expression %s: %d column names for %d columns" name
              (List.length names) (Qgm.arity b);
          b.Qgm.b_head <-
            List.map2 (fun hc n -> { hc with Qgm.hc_name = n }) b.Qgm.b_head names
        | None -> ());
        b.Qgm.b_label <- name;
        ctx.table_exprs <- (norm name, id) :: ctx.table_exprs)
      wq.Ast.with_defs;
  let body = build_query ctx ~scope wq.Ast.with_body in
  ctx.table_exprs <- saved;
  body

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Builds a full QGM for [wq]; the result box becomes the top box. *)
let build (cfg : config) (wq : Ast.with_query) : Qgm.t =
  let g = Qgm.create () in
  let ctx = { cfg; g; base_boxes = []; table_exprs = []; view_stack = [] } in
  let top = build_with_query ctx ~scope:None wq in
  g.Qgm.top <- top;
  Check.assert_consistent g;
  g

(** Builds a QGM for a query given as text. *)
let build_text (cfg : config) (text : string) : Qgm.t =
  build cfg (Parser.query_text text)
