(** Random catalogs and queries.  See gen.mli for the contracts. *)

open Sb_storage
module Ast = Sb_hydrogen.Ast
module Pretty = Sb_hydrogen.Pretty

type col = {
  c_name : string;
  c_type : Datatype.t;
  c_nullable : bool;
  c_unique : bool;
}

type table = {
  t_name : string;
  t_cols : col list;
  t_rows : Value.t list list;
  t_index : string option;
}

type catalog = table list

(* ------------------------------------------------------------------ *)
(* Catalogs and data                                                   *)
(* ------------------------------------------------------------------ *)

let string_pool =
  [ "a"; "b"; "c"; "ab"; "ba"; "x"; "zz"; "o'k"; "m m"; "" ]

let gen_value rng (c : col) ~row_idx ~base =
  if c.c_unique then Value.Int (base + row_idx)
  else if c.c_nullable && Sprng.chance rng 0.25 then Value.Null
  else
    match c.c_type with
    | Datatype.Int -> Value.Int (Sprng.skewed rng 16 - 3)
    | Datatype.Float -> Value.Float (float_of_int (Sprng.range rng (-8) 40) *. 0.5)
    | Datatype.Bool -> Value.Bool (Sprng.bool rng)
    | Datatype.String -> Value.String (List.nth string_pool (Sprng.skewed rng 10))
    | Datatype.Ext _ -> Value.Null

let gen_table rng i =
  let name = Printf.sprintf "f%d" (i + 1) in
  let key =
    {
      c_name = "k";
      c_type = Datatype.Int;
      c_nullable = false;
      c_unique = Sprng.chance rng 0.5;
    }
  in
  let n_extra = Sprng.range rng 2 4 in
  let extras =
    List.init n_extra (fun j ->
        let ty =
          Sprng.weighted rng
            [ (4, Datatype.Int); (2, Datatype.Float); (3, Datatype.String);
              (1, Datatype.Bool) ]
        in
        {
          c_name = Printf.sprintf "c%d" (j + 1);
          c_type = ty;
          c_nullable = Sprng.chance rng 0.8;
          c_unique = false;
        })
  in
  let cols = key :: extras in
  let n_rows = Sprng.skewed rng 29 in
  let base = Sprng.int rng 5 in
  let rows =
    List.init n_rows (fun r ->
        List.map (fun c -> gen_value rng c ~row_idx:r ~base) cols)
  in
  let index =
    if Sprng.chance rng 0.4 then
      let int_cols =
        List.filter (fun c -> c.c_type = Datatype.Int) cols
      in
      Some (Sprng.choose rng int_cols).c_name
    else None
  in
  { t_name = name; t_cols = cols; t_rows = rows; t_index = index }

let gen_catalog rng =
  let n = Sprng.range rng 2 4 in
  List.init n (gen_table rng)

let ddl_of_catalog (cat : catalog) : string list =
  let create t =
    Printf.sprintf "CREATE TABLE %s (%s)" t.t_name
      (String.concat ", "
         (List.map
            (fun c ->
              Printf.sprintf "%s %s%s%s" c.c_name
                (Datatype.to_string c.c_type)
                (if c.c_nullable then "" else " NOT NULL")
                (if c.c_unique then " UNIQUE" else ""))
            t.t_cols))
  in
  let inserts t =
    if t.t_rows = [] then []
    else
      (* chunked so statements stay readable in repro files *)
      let rec chunks acc rows =
        match rows with
        | [] -> List.rev acc
        | _ ->
          let take = List.filteri (fun i _ -> i < 50) rows in
          let rest = List.filteri (fun i _ -> i >= 50) rows in
          chunks (take :: acc) rest
      in
      List.map
        (fun chunk ->
          Printf.sprintf "INSERT INTO %s VALUES %s" t.t_name
            (String.concat ", "
               (List.map
                  (fun row ->
                    Printf.sprintf "(%s)"
                      (String.concat ", " (List.map Value.to_literal row)))
                  chunk)))
        (chunks [] t.t_rows)
  in
  let indexes t =
    match t.t_index with
    | Some c ->
      [ Printf.sprintf "CREATE INDEX ix_%s_%s ON %s (%s) USING btree"
          t.t_name c t.t_name c ]
    | None -> []
  in
  List.concat_map (fun t -> (create t :: inserts t) @ indexes t) cat
  @ [ "ANALYZE" ]

(* ------------------------------------------------------------------ *)
(* Query generation                                                    *)
(* ------------------------------------------------------------------ *)

type binding = { b_alias : string; b_cols : (string * Datatype.t) list }

type st = {
  rng : Sprng.t;
  cat : catalog;
  mutable fresh : int;  (** case-global alias counter *)
  mutable with_tables : (string * (string * Datatype.t) list) list;
}

let fresh_alias st prefix =
  st.fresh <- st.fresh + 1;
  Printf.sprintf "%s%d" prefix st.fresh

let cols_of_table (t : table) = List.map (fun c -> (c.c_name, c.c_type)) t.t_cols

let avail_tables st =
  List.map (fun t -> (t.t_name, cols_of_table t)) st.cat @ st.with_tables

(* every column reference is alias-qualified, so shared column names
   across tables never create ambiguity *)
let cols_of_type bindings ty =
  List.concat_map
    (fun b ->
      List.filter_map
        (fun (n, t) -> if Datatype.equal t ty then Some (b.b_alias, n) else None)
        b.b_cols)
    bindings

(* INT and FLOAT compare as numbers, so a numeric operand, join key or
   set-operation column may draw on either *)
let comparable_cols bindings ty =
  match ty with
  | Datatype.Int | Datatype.Float ->
    cols_of_type bindings Datatype.Int @ cols_of_type bindings Datatype.Float
  | ty -> cols_of_type bindings ty

let col_expr (alias, name) = Ast.Col (Some alias, name)

let lit_int st = Ast.Lit (Value.Int (Sprng.range st.rng (-5) 15))
let lit_float st = Ast.Lit (Value.Float (float_of_int (Sprng.range st.rng (-8) 40) *. 0.5))
let lit_string st = Ast.Lit (Value.String (List.nth string_pool (Sprng.skewed st.rng 10)))
let lit_bool st = Ast.Lit (Value.Bool (Sprng.bool st.rng))

let lit_of_type st = function
  | Datatype.Int -> lit_int st
  | Datatype.Float -> lit_float st
  | Datatype.Bool -> lit_bool st
  | Datatype.String | Datatype.Ext _ -> lit_string st

let cmp_ops = [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ]

(* the other numeric type, a quarter of the time *)
let mix st ty =
  match ty with
  | Datatype.Int when Sprng.chance st.rng 0.25 -> Datatype.Float
  | Datatype.Float when Sprng.chance st.rng 0.25 -> Datatype.Int
  | ty -> ty

(* a typed scalar expression over [bindings]; columns dominate *)
let rec gen_expr st bindings ty ~depth =
  let cols = cols_of_type bindings ty in
  let col_w = if cols = [] then 0 else 8 in
  let arith_w = if depth > 0 && ty = Datatype.Int then 3 else 0 in
  let case_w = if depth > 0 then 1 else 0 in
  match
    Sprng.weighted st.rng
      [ (col_w, `Col); (3, `Lit); (arith_w, `Arith); (case_w, `Case) ]
  with
  | `Col -> col_expr (Sprng.choose st.rng cols)
  | `Lit -> lit_of_type st ty
  | `Arith ->
    let op = Sprng.weighted st.rng
        [ (3, Ast.Add); (3, Ast.Sub); (2, Ast.Mul); (1, Ast.Div); (1, Ast.Mod) ]
    in
    let lhs = gen_expr st bindings Datatype.Int ~depth:(depth - 1) in
    let rhs =
      match op with
      | Ast.Div | Ast.Mod ->
        (* non-zero literal divisor: a divide-by-zero that one plan
           reaches and another filters away is not a rewrite bug *)
        Ast.Lit (Value.Int (1 + Sprng.int st.rng 7))
      | _ -> gen_expr st bindings Datatype.Int ~depth:(depth - 1)
    in
    Ast.Bin (op, lhs, rhs)
  | `Case ->
    let cond = gen_pred st bindings ~outer:[] ~depth:0 in
    let a = gen_expr st bindings ty ~depth:0 in
    let b = gen_expr st bindings ty ~depth:0 in
    Ast.Case ([ (cond, a) ], if Sprng.bool st.rng then Some b else None)

(* a boolean predicate; [outer] bindings enable correlation *)
and gen_pred st bindings ~outer ~depth =
  let all = bindings @ outer in
  let pick_typed () =
    let tys =
      List.filter
        (fun ty -> cols_of_type all ty <> [])
        [ Datatype.Int; Datatype.Float; Datatype.String; Datatype.Bool ]
    in
    match tys with [] -> Datatype.Int | tys -> Sprng.choose st.rng tys
  in
  let sub_w = if depth > 0 then 3 else 0 in
  let bool_w = if depth > 0 then 4 else 0 in
  match
    Sprng.weighted st.rng
      [
        (10, `Cmp); (4, `Null_test); (2, `Between); (2, `In_list); (2, `Like);
        (sub_w, `Exists); (sub_w, `In_query); (2 * sub_w / 3, `Quant);
        (2 * sub_w / 3, `Scalar); (bool_w, `Connective);
      ]
  with
  | `Cmp ->
    let ty = pick_typed () in
    let ops = match ty with Datatype.Bool -> [ Ast.Eq; Ast.Neq ] | _ -> cmp_ops in
    let lhs = gen_expr st all ty ~depth:1 in
    let rty = mix st ty in
    let rhs =
      if Sprng.chance st.rng 0.5 then gen_expr st all rty ~depth:0
      else lit_of_type st rty
    in
    Ast.Bin (Sprng.choose st.rng ops, lhs, rhs)
  | `Null_test -> (
    let ty = pick_typed () in
    match cols_of_type all ty with
    | [] -> Ast.Bin (Ast.Eq, lit_int st, lit_int st)
    | cols ->
      let e = Ast.Is_null (col_expr (Sprng.choose st.rng cols)) in
      if Sprng.bool st.rng then Ast.Un (Ast.Not, e) else e)
  | `Between -> (
    match cols_of_type all Datatype.Int with
    | [] -> Ast.Bin (Ast.Le, lit_int st, lit_int st)
    | cols ->
      Ast.Between (col_expr (Sprng.choose st.rng cols), lit_int st, lit_int st))
  | `In_list -> (
    let ty = if Sprng.bool st.rng then Datatype.Int else Datatype.String in
    match cols_of_type all ty with
    | [] -> Ast.In_list (lit_int st, [ lit_int st; lit_int st ])
    | cols ->
      let n = Sprng.range st.rng 2 4 in
      Ast.In_list
        (col_expr (Sprng.choose st.rng cols),
         List.init n (fun _ -> lit_of_type st ty)))
  | `Like -> (
    match cols_of_type all Datatype.String with
    | [] -> Ast.Bin (Ast.Eq, lit_int st, lit_int st)
    | cols ->
      let pat =
        Sprng.choose st.rng [ "a%"; "%b"; "%a%"; "_"; "%"; "ab%"; "%z%"; "m%m" ]
      in
      Ast.Like (col_expr (Sprng.choose st.rng cols), pat))
  | `Exists ->
    let q = gen_subselect st ~outer:all ~want:None in
    let e = Ast.Exists q in
    if Sprng.chance st.rng 0.4 then Ast.Un (Ast.Not, e) else e
  | `In_query ->
    let ty = pick_typed () in
    let lhs = gen_expr st all ty ~depth:0 in
    let q = gen_subselect st ~outer:all ~want:(Some (mix st ty)) in
    let e = Ast.In_query (lhs, q) in
    (* NOT IN: universal semantics, NULL-sensitive — prime oracle bait *)
    if Sprng.chance st.rng 0.35 then Ast.Un (Ast.Not, e) else e
  | `Quant ->
    let ty = if Sprng.bool st.rng then Datatype.Int else Datatype.Float in
    let lhs = gen_expr st all ty ~depth:0 in
    let kind = if Sprng.bool st.rng then Ast.Q_all else Ast.Q_any in
    let q = gen_subselect st ~outer:all ~want:(Some (mix st ty)) in
    Ast.Quant_cmp (lhs, Sprng.choose st.rng cmp_ops, kind, q)
  | `Scalar ->
    let ty = if Sprng.bool st.rng then Datatype.Int else Datatype.Float in
    let lhs = gen_expr st all ty ~depth:0 in
    let q = gen_agg_subselect st ~outer:all ty in
    Ast.Bin (Sprng.choose st.rng cmp_ops, lhs, Ast.Scalar_query q)
  | `Connective -> (
    let a = gen_pred st bindings ~outer ~depth:(depth - 1) in
    match Sprng.weighted st.rng [ (3, `And); (3, `Or); (2, `Not) ] with
    | `Not -> Ast.Un (Ast.Not, a)
    | c ->
      let b = gen_pred st bindings ~outer ~depth:(depth - 1) in
      Ast.Bin ((if c = `And then Ast.And else Ast.Or), a, b))

(* single-column subselect for IN / quantified comparisons / EXISTS.
   [want]: the output column's type ([None] for EXISTS — any column). *)
and gen_subselect st ~outer ~want : Ast.query =
  let tname, tcols = Sprng.choose st.rng (avail_tables st) in
  let alias = fresh_alias st "s" in
  let b = { b_alias = alias; b_cols = tcols } in
  let item =
    match want with
    | None -> col_expr (Sprng.choose st.rng (List.map (fun (n, _) -> (alias, n)) tcols))
    | Some ty -> (
      match cols_of_type [ b ] ty with
      | [] -> lit_of_type st ty
      | cols -> col_expr (Sprng.choose st.rng cols))
  in
  let where =
    if Sprng.chance st.rng 0.75 then
      let outer' = if Sprng.chance st.rng 0.6 then outer else [] in
      Some (gen_pred st [ b ] ~outer:outer' ~depth:1)
    else None
  in
  Ast.Select
    {
      sel_distinct = Sprng.chance st.rng 0.15;
      sel_items = [ Ast.Item (item, Some (fresh_alias st "o")) ];
      sel_from = [ Ast.From_table (tname, Some alias) ];
      sel_where = where;
      sel_group = [];
      sel_having = None;
      sel_order = [];
      sel_limit = None;
    }

(* aggregate subselect: always exactly one row, so it is safe in scalar
   position under every plan *)
and gen_agg_subselect st ~outer ty : Ast.query =
  let tname, tcols = Sprng.choose st.rng (avail_tables st) in
  let alias = fresh_alias st "s" in
  let b = { b_alias = alias; b_cols = tcols } in
  (* non-DISTINCT aggregate calls are written [Func]: that is the
     parser's canonical form — [Agg] is reserved for count-star and
     DISTINCT forms; the builder resolves aggregates by name *)
  let agg =
    match cols_of_type [ b ] ty with
    | [] -> Ast.Agg ("count", false, None)
    | cols ->
      let f = Sprng.choose st.rng [ "min"; "max" ] in
      Ast.Func (f, [ col_expr (Sprng.choose st.rng cols) ])
  in
  let where =
    if Sprng.chance st.rng 0.5 then
      let outer' = if Sprng.chance st.rng 0.5 then outer else [] in
      Some (gen_pred st [ b ] ~outer:outer' ~depth:0)
    else None
  in
  Ast.Select
    {
      sel_distinct = false;
      sel_items = [ Ast.Item (agg, Some (fresh_alias st "o")) ];
      sel_from = [ Ast.From_table (tname, Some alias) ];
      sel_where = where;
      sel_group = [];
      sel_having = None;
      sel_order = [];
      sel_limit = None;
    }

(* ------------------------------------------------------------------ *)
(* FROM clauses                                                        *)
(* ------------------------------------------------------------------ *)

and gen_from_primary st ~depth : Ast.from_item * binding =
  if depth > 0 && Sprng.chance st.rng 0.18 then begin
    (* derived table with explicit output names *)
    let sel, out_cols = gen_plain_select st ~outer:[] ~depth:(depth - 1) in
    let alias = fresh_alias st "d" in
    let binding = { b_alias = alias; b_cols = out_cols } in
    (Ast.From_query (Ast.Select sel, alias, None), binding)
  end
  else begin
    let tname, tcols = Sprng.choose st.rng (avail_tables st) in
    let alias = fresh_alias st "q" in
    (Ast.From_table (tname, Some alias), { b_alias = alias; b_cols = tcols })
  end

(* equi-join condition between two binding groups, TRUE if no types line up *)
and join_cond st (lhs : binding list) (rhs : binding list) : Ast.expr =
  let pairs =
    List.concat_map
      (fun ty ->
        match (comparable_cols lhs ty, comparable_cols rhs ty) with
        | [], _ | _, [] -> []
        | ls, rs -> List.concat_map (fun l -> List.map (fun r -> (l, r)) rs) ls)
      [ Datatype.Int; Datatype.String ]
  in
  match pairs with
  | [] -> Ast.Lit (Value.Bool true)
  | _ ->
    let l, r = Sprng.choose st.rng pairs in
    Ast.Bin (Ast.Eq, col_expr l, col_expr r)

and gen_from st ~depth : Ast.from_item list * binding list =
  let n = Sprng.weighted st.rng [ (4, 1); (4, 2); (2, 3) ] in
  if n >= 2 && Sprng.chance st.rng 0.35 then begin
    (* explicit join syntax, left-nested; outer joins build PF setformers *)
    let f1, b1 = gen_from_primary st ~depth in
    let f2, b2 = gen_from_primary st ~depth in
    let jt =
      Sprng.weighted st.rng
        [ (3, Ast.Inner); (3, Ast.Left_outer); (1, Ast.Right_outer) ]
    in
    let on = join_cond st [ b1 ] [ b2 ] in
    let join = Ast.From_join (f1, jt, f2, on) in
    if n = 3 && Sprng.chance st.rng 0.5 then begin
      let f3, b3 = gen_from_primary st ~depth in
      let on2 = join_cond st [ b1; b2 ] [ b3 ] in
      let jt2 = if Sprng.chance st.rng 0.3 then Ast.Left_outer else Ast.Inner in
      ([ Ast.From_join (join, jt2, f3, on2) ], [ b1; b2; b3 ])
    end
    else ([ join ], [ b1; b2 ])
  end
  else begin
    let items = List.init n (fun _ -> gen_from_primary st ~depth) in
    (List.map fst items, List.map snd items)
  end

(* ------------------------------------------------------------------ *)
(* SELECT bodies                                                       *)
(* ------------------------------------------------------------------ *)

(* a non-grouped select; returns its output naming for derived tables *)
and gen_plain_select st ~outer ~depth : Ast.select * (string * Datatype.t) list
    =
  let from, bindings = gen_from st ~depth in
  let n_items = Sprng.range st.rng 1 3 in
  let items =
    List.init n_items (fun _ ->
        let ty =
          Sprng.weighted st.rng
            [ (4, Datatype.Int); (2, Datatype.Float); (2, Datatype.String);
              (1, Datatype.Bool) ]
        in
        let ty = if cols_of_type bindings ty = [] then Datatype.Int else ty in
        (gen_expr st bindings ty ~depth:1, ty))
  in
  let named =
    List.map (fun (e, ty) -> (e, fresh_alias st "o", ty)) items
  in
  let where =
    if Sprng.chance st.rng 0.8 then
      Some (gen_pred st bindings ~outer ~depth:(min depth 2))
    else None
  in
  ( {
      Ast.sel_distinct = Sprng.chance st.rng 0.15;
      sel_items = List.map (fun (e, a, _) -> Ast.Item (e, Some a)) named;
      sel_from = from;
      sel_where = where;
      sel_group = [];
      sel_having = None;
      sel_order = [];
      sel_limit = None;
    },
    List.map (fun (_, a, ty) -> (a, ty)) named )

(* a grouped select: keys + aggregates, optional HAVING *)
and gen_grouped_select st ~depth : Ast.select =
  let from, bindings = gen_from st ~depth in
  let all_cols =
    List.concat_map
      (fun b -> List.map (fun (n, ty) -> ((b.b_alias, n), ty)) b.b_cols)
      bindings
  in
  let n_keys = Sprng.range st.rng 1 2 in
  let keys =
    List.init n_keys (fun _ -> Sprng.choose st.rng all_cols)
  in
  let key_exprs = List.map (fun (c, _) -> col_expr c) keys in
  let n_aggs = Sprng.range st.rng 1 2 in
  let aggs =
    List.init n_aggs (fun _ ->
        let int_cols = cols_of_type bindings Datatype.Int in
        match
          Sprng.weighted st.rng
            [ (3, `Count_star); (2, `Count_col); (2, `Sum); (2, `Min); (2, `Max) ]
        with
        | `Count_star -> Ast.Agg ("count", false, None)
        | `Count_col -> (
          match all_cols with
          | [] -> Ast.Agg ("count", false, None)
          | _ ->
            let (c, _) = Sprng.choose st.rng all_cols in
            (* canonical forms: DISTINCT stays [Agg], plain stays [Func] *)
            if Sprng.chance st.rng 0.25 then
              Ast.Agg ("count", true, Some (col_expr c))
            else Ast.Func ("count", [ col_expr c ]))
        | `Sum -> (
          match int_cols with
          | [] -> Ast.Agg ("count", false, None)
          | _ -> Ast.Func ("sum", [ col_expr (Sprng.choose st.rng int_cols) ]))
        | `Min | `Max -> (
          let f = if Sprng.bool st.rng then "min" else "max" in
          match all_cols with
          | [] -> Ast.Agg ("count", false, None)
          | _ ->
            let (c, _) = Sprng.choose st.rng all_cols in
            Ast.Func (f, [ col_expr c ])))
  in
  let items =
    List.map (fun e -> Ast.Item (e, Some (fresh_alias st "o"))) (key_exprs @ aggs)
  in
  let where =
    if Sprng.chance st.rng 0.6 then
      Some (gen_pred st bindings ~outer:[] ~depth:1)
    else None
  in
  let having =
    if Sprng.chance st.rng 0.4 then
      Some
        (Ast.Bin
           ( Sprng.choose st.rng cmp_ops,
             Ast.Agg ("count", false, None),
             Ast.Lit (Value.Int (Sprng.int st.rng 4)) ))
    else None
  in
  {
    Ast.sel_distinct = false;
    sel_items = items;
    sel_from = from;
    sel_where = where;
    sel_group = key_exprs;
    sel_having = having;
    sel_order = [];
    sel_limit = None;
  }

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(* a select whose output columns are [want]-comparable (set-operation
   arms; a numeric column may be INT in one arm and FLOAT in the other) *)
let gen_typed_select st (want : Datatype.t list) : Ast.select =
  let tname, tcols = Sprng.choose st.rng (avail_tables st) in
  let alias = fresh_alias st "q" in
  let b = { b_alias = alias; b_cols = tcols } in
  let items =
    List.map
      (fun ty ->
        let e =
          match comparable_cols [ b ] ty with
          | [] -> lit_of_type st ty
          | cols -> col_expr (Sprng.choose st.rng cols)
        in
        Ast.Item (e, Some (fresh_alias st "o")))
      want
  in
  let where =
    if Sprng.chance st.rng 0.6 then Some (gen_pred st [ b ] ~outer:[] ~depth:1)
    else None
  in
  {
    Ast.sel_distinct = Sprng.chance st.rng 0.2;
    sel_items = items;
    sel_from = [ Ast.From_table (tname, Some alias) ];
    sel_where = where;
    sel_group = [];
    sel_having = None;
    sel_order = [];
    sel_limit = None;
  }

let gen_body st : Ast.query =
  match
    Sprng.weighted st.rng [ (11, `Plain); (5, `Grouped); (3, `Setop) ]
  with
  | `Plain ->
    let sel, _ = gen_plain_select st ~outer:[] ~depth:2 in
    (* optional ORDER BY position / LIMIT on the top select only *)
    let n_items = List.length sel.Ast.sel_items in
    let order =
      if Sprng.chance st.rng 0.3 then
        [ ( Ast.Lit (Value.Int (1 + Sprng.int st.rng n_items)),
            if Sprng.bool st.rng then Ast.Desc else Ast.Asc ) ]
      else []
    in
    let limit = if Sprng.chance st.rng 0.25 then Some (Sprng.int st.rng 8) else None in
    Ast.Select { sel with Ast.sel_order = order; sel_limit = limit }
  | `Grouped -> Ast.Select (gen_grouped_select st ~depth:1)
  | `Setop ->
    let n_cols = Sprng.range st.rng 1 2 in
    let want =
      List.init n_cols (fun _ ->
          Sprng.weighted st.rng
            [ (4, Datatype.Int); (2, Datatype.Float); (2, Datatype.String) ])
    in
    let l = gen_typed_select st want in
    let r = gen_typed_select st want in
    let op =
      Sprng.weighted st.rng
        [ (4, Ast.Union); (2, Ast.Intersect); (2, Ast.Except) ]
    in
    let all = op = Ast.Union && Sprng.chance st.rng 0.5 in
    Ast.Set_op (op, all, Ast.Select l, Ast.Select r)

let gen_query rng (cat : catalog) : Ast.with_query =
  let st = { rng; cat; fresh = 0; with_tables = [] } in
  let defs =
    if Sprng.chance st.rng 0.12 then begin
      let sel, out_cols = gen_plain_select st ~outer:[] ~depth:1 in
      let name = fresh_alias st "w" in
      st.with_tables <- [ (name, out_cols) ];
      [ (name, None, Ast.Select sel) ]
    end
    else []
  in
  let body = gen_body st in
  { Ast.with_recursive = false; with_defs = defs; with_body = body }

let query_text = Pretty.with_query_to_string

(* ------------------------------------------------------------------ *)
(* Size measure                                                        *)
(* ------------------------------------------------------------------ *)

let rec expr_quants (e : Ast.expr) =
  match e with
  | Ast.Lit _ | Ast.Col _ | Ast.Host _ -> 0
  | Ast.Bin (_, a, b) -> expr_quants a + expr_quants b
  | Ast.Un (_, a) | Ast.Is_null a -> expr_quants a
  | Ast.Func (_, args) -> List.fold_left (fun n a -> n + expr_quants a) 0 args
  | Ast.Agg (_, _, a) -> (match a with Some a -> expr_quants a | None -> 0)
  | Ast.Case (arms, els) ->
    List.fold_left (fun n (c, v) -> n + expr_quants c + expr_quants v) 0 arms
    + (match els with Some e -> expr_quants e | None -> 0)
  | Ast.In_list (a, es) ->
    List.fold_left (fun n e -> n + expr_quants e) (expr_quants a) es
  | Ast.In_query (a, q) -> expr_quants a + 1 + query_quants q
  | Ast.Exists q -> 1 + query_quants q
  | Ast.Quant_cmp (a, _, _, q) -> expr_quants a + 1 + query_quants q
  | Ast.Scalar_query q -> 1 + query_quants q
  | Ast.Between (a, lo, hi) -> expr_quants a + expr_quants lo + expr_quants hi
  | Ast.Like (a, _) -> expr_quants a

and from_quants (f : Ast.from_item) =
  match f with
  | Ast.From_table _ -> 1
  | Ast.From_query (q, _, _) -> query_quants q
  | Ast.From_func _ -> 1
  | Ast.From_join (l, _, r, on) -> from_quants l + from_quants r + expr_quants on

and query_quants (q : Ast.query) =
  match q with
  | Ast.Select s ->
    List.fold_left (fun n f -> n + from_quants f) 0 s.Ast.sel_from
    + List.fold_left
        (fun n i ->
          n + match i with Ast.Item (e, _) -> expr_quants e | _ -> 0)
        0 s.Ast.sel_items
    + (match s.Ast.sel_where with Some w -> expr_quants w | None -> 0)
    + List.fold_left (fun n e -> n + expr_quants e) 0 s.Ast.sel_group
    + (match s.Ast.sel_having with Some h -> expr_quants h | None -> 0)
  | Ast.Set_op (_, _, a, b) -> query_quants a + query_quants b
  | Ast.Values _ -> 0

let quantifier_count (wq : Ast.with_query) =
  List.fold_left (fun n (_, _, q) -> n + query_quants q) 0 wq.Ast.with_defs
  + query_quants wq.Ast.with_body

(* ------------------------------------------------------------------ *)
(* DML workloads (crash fuzzing)                                       *)
(* ------------------------------------------------------------------ *)

let gen_dml_workload rng (cat : catalog) ~n : string list =
  (* unique keys from a monotone counter well above the seed rows
     (which use small base+row values), so inserts rarely collide *)
  let next_key = ref 1000 in
  let fresh_key () =
    incr next_key;
    !next_key
  in
  let literal (c : col) =
    if c.c_unique then Value.Int (fresh_key ())
    else if c.c_nullable && Sprng.chance rng 0.2 then Value.Null
    else
      match c.c_type with
      | Datatype.Int -> Value.Int (Sprng.skewed rng 16 - 3)
      | Datatype.Float ->
        Value.Float (float_of_int (Sprng.range rng (-8) 40) *. 0.5)
      | Datatype.Bool -> Value.Bool (Sprng.bool rng)
      | Datatype.String ->
        Value.String (List.nth string_pool (Sprng.skewed rng 10))
      | Datatype.Ext _ -> Value.Null
  in
  let key_pred t =
    let k = (List.hd t.t_cols).c_name in
    let v = Sprng.range rng (-3) 34 in
    match Sprng.weighted rng [ (3, `Lt); (3, `Eq); (2, `Ge) ] with
    | `Lt -> Printf.sprintf "%s < %d" k v
    | `Eq -> Printf.sprintf "%s = %d" k v
    | `Ge -> Printf.sprintf "%s >= %d" k v
  in
  let gen_stmt () =
    let t = Sprng.choose rng cat in
    match Sprng.weighted rng [ (5, `Insert); (3, `Update); (2, `Delete) ] with
    | `Insert ->
      let n_rows = Sprng.range rng 1 3 in
      let rows =
        List.init n_rows (fun _ ->
            Printf.sprintf "(%s)"
              (String.concat ", "
                 (List.map (fun c -> Value.to_literal (literal c)) t.t_cols)))
      in
      Printf.sprintf "INSERT INTO %s VALUES %s" t.t_name
        (String.concat ", " rows)
    | `Update -> (
      (* never SET a unique column: assigning one constant to several
         rows would fail for reasons unrelated to durability *)
      match List.filter (fun c -> not c.c_unique) t.t_cols with
      | [] ->
        Printf.sprintf "DELETE FROM %s WHERE %s" t.t_name (key_pred t)
      | cols ->
        let c = Sprng.choose rng cols in
        Printf.sprintf "UPDATE %s SET %s = %s WHERE %s" t.t_name c.c_name
          (Value.to_literal (literal c)) (key_pred t))
    | `Delete ->
      Printf.sprintf "DELETE FROM %s WHERE %s" t.t_name (key_pred t)
  in
  List.init n (fun _ -> gen_stmt ())
