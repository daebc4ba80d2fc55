(** The Query Graph Model (QGM), section 4 of the paper.

    A query is a graph of {e boxes} (operations on tables), each with a
    {e head} (the output table's columns) and a {e body}: {e quantifiers}
    (iterators ranging over input tables, drawn as vertices with dotted
    range edges) and {e predicates} (qualifier edges).

    Quantifier types:
    - [F]  — ForEach setformer: each element may contribute to the output;
    - [E]  — existential quantifier (subqueries via IN / EXISTS / ANY);
    - [A]  — universal quantifier (ALL, NOT IN);
    - [S]  — scalar-subquery quantifier (at most one row expected);
    - [Ext name] — extension iterator types.  The outer-join extension
      registers ["PF"] (Preserve-ForEach); DBC set-predicate functions
      (e.g. [MAJORITY]) appear as [Ext "majority"] quantifiers.

    E/A/S/Ext quantifiers are {e consumed} inside predicate expressions
    through the {!constructor:Quantified} node, so a subquery under a
    disjunction (the paper's OR-operator case, section 7) is directly
    representable while the common conjunct case stays easy for rewrite
    rules to match. *)

open Sb_storage

type quant_type =
  | F
  | E
  | A
  | S
  | SP of string  (** DBC set-predicate quantifier, e.g. MAJORITY *)
  | Ext of string  (** extension setformer types, e.g. PF *)

let quant_type_name = function
  | F -> "F"
  | E -> "E"
  | A -> "A"
  | S -> "S"
  | SP s -> "SP:" ^ s
  | Ext s -> s

type box_id = int
type quant_id = int

type expr =
  | Lit of Value.t
  | Col of quant_id * int  (** column [i] of the quantifier's input table *)
  | Host of string
  | Bin of Sb_hydrogen.Ast.binop * expr * expr
  | Un of Sb_hydrogen.Ast.unop * expr
  | Fun of string * expr list
  | Agg of string * bool * expr option
      (** aggregate over the group; legal only in GROUP BY box heads *)
  | Case of (expr * expr) list * expr option
  | Is_null of expr
  | Like of expr * string
  | Quantified of quant_id * expr
      (** truth of [expr] over the (E/A/Ext) quantifier's range *)

type kind =
  | Base_table of string  (** stored table; no body *)
  | Select  (** select / project / join *)
  | Group_by of expr list  (** grouping expressions *)
  | Set_op of Sb_hydrogen.Ast.set_op * bool  (** operator, ALL? *)
  | Values_box of expr list list
  | Table_fn of string * expr list  (** DBC table function + value args *)
  | Choose  (** rewrite-generated alternatives; quants are alternatives *)
  | Ext_op of string  (** extension table operation *)

type head_col = {
  hc_name : string;
  mutable hc_type : Datatype.t option;
  mutable hc_expr : expr option;  (** [None] only for base tables *)
}

type pred = {
  mutable p_expr : expr;
  mutable p_marks : string list;
      (** rule bookkeeping, e.g. "pushed" tags preventing re-derivation *)
}

let pred e = { p_expr = e; p_marks = [] }
let pred_marked (p : pred) mark = List.mem mark p.p_marks
let mark_pred (p : pred) mark =
  if not (List.mem mark p.p_marks) then p.p_marks <- mark :: p.p_marks

type quant = {
  q_id : quant_id;
  mutable q_type : quant_type;
  mutable q_input : box_id;
  mutable q_parent : box_id;
  q_label : string;  (** display label, e.g. "Q1" or the table alias *)
}

type box = {
  b_id : box_id;
  mutable b_kind : kind;
  mutable b_head : head_col list;
  mutable b_quants : quant list;
  mutable b_preds : pred list;
  mutable b_distinct : bool;  (** output duplicates eliminated *)
  mutable b_order : (expr * Sb_hydrogen.Ast.order_dir) list;
  mutable b_limit : int option;
  mutable b_label : string;
}

type t = {
  boxes : (box_id, box) Hashtbl.t;
  quants : (quant_id, quant) Hashtbl.t;
  mutable top : box_id;
  mutable next_box : int;
  mutable next_quant : int;
}

exception Qgm_error of string

let error fmt = Fmt.kstr (fun s -> raise (Qgm_error s)) fmt

let create () =
  {
    boxes = Hashtbl.create 16;
    quants = Hashtbl.create 16;
    top = -1;
    next_box = 1;
    next_quant = 1;
  }

let box g id =
  match Hashtbl.find_opt g.boxes id with
  | Some b -> b
  | None -> error "no box %d" id

let quant g id =
  match Hashtbl.find_opt g.quants id with
  | Some q -> q
  | None -> error "no quantifier %d" id

let top_box g = box g g.top

let new_box g ?(label = "") kind : box =
  let id = g.next_box in
  g.next_box <- id + 1;
  let b =
    {
      b_id = id;
      b_kind = kind;
      b_head = [];
      b_quants = [];
      b_preds = [];
      b_distinct = false;
      b_order = [];
      b_limit = None;
      b_label = (if label = "" then Fmt.str "B%d" id else label);
    }
  in
  Hashtbl.replace g.boxes id b;
  b

let new_quant g ?(label = "") ~parent ~input qtype : quant =
  let id = g.next_quant in
  g.next_quant <- id + 1;
  let q =
    {
      q_id = id;
      q_type = qtype;
      q_input = input;
      q_parent = parent;
      q_label = (if label = "" then Fmt.str "Q%d" id else label);
    }
  in
  Hashtbl.replace g.quants id q;
  let b = box g parent in
  b.b_quants <- b.b_quants @ [ q ];
  q

let remove_quant g (q : quant) =
  let b = box g q.q_parent in
  b.b_quants <- List.filter (fun x -> x.q_id <> q.q_id) b.b_quants;
  Hashtbl.remove g.quants q.q_id

let delete_box g id =
  (match Hashtbl.find_opt g.boxes id with
  | Some b -> List.iter (fun q -> Hashtbl.remove g.quants q.q_id) b.b_quants
  | None -> ());
  Hashtbl.remove g.boxes id

(* ------------------------------------------------------------------ *)
(* Expression utilities                                                *)
(* ------------------------------------------------------------------ *)

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Lit _ | Col _ | Host _ -> acc
  | Bin (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Un (_, a) | Is_null a | Like (a, _) | Quantified (_, a) -> fold_expr f acc a
  | Fun (_, args) -> List.fold_left (fold_expr f) acc args
  | Agg (_, _, None) -> acc
  | Agg (_, _, Some a) -> fold_expr f acc a
  | Case (arms, els) ->
    let acc =
      List.fold_left (fun acc (c, v) -> fold_expr f (fold_expr f acc c) v) acc arms
    in
    (match els with None -> acc | Some e -> fold_expr f acc e)

(** Rewrites an expression bottom-up. *)
let rec map_expr f e =
  let e' =
    match e with
    | Lit _ | Col _ | Host _ -> e
    | Bin (op, a, b) -> Bin (op, map_expr f a, map_expr f b)
    | Un (op, a) -> Un (op, map_expr f a)
    | Fun (name, args) -> Fun (name, List.map (map_expr f) args)
    | Agg (name, d, arg) -> Agg (name, d, Option.map (map_expr f) arg)
    | Case (arms, els) ->
      Case
        ( List.map (fun (c, v) -> (map_expr f c, map_expr f v)) arms,
          Option.map (map_expr f) els )
    | Is_null a -> Is_null (map_expr f a)
    | Like (a, p) -> Like (map_expr f a, p)
    | Quantified (q, a) -> Quantified (q, map_expr f a)
  in
  f e'

(** Quantifier ids referenced by [e] (including inside [Quantified]). *)
let quant_refs e =
  fold_expr
    (fun acc e ->
      match e with
      | Col (q, _) -> q :: acc
      | Quantified (q, _) -> q :: acc
      | _ -> acc)
    [] e
  |> List.sort_uniq Int.compare

(** Column references [(quant, col)] in [e]. *)
let col_refs e =
  fold_expr
    (fun acc e -> match e with Col (q, i) -> (q, i) :: acc | _ -> acc)
    [] e
  |> List.sort_uniq compare

(** Applies [f] to every expression of box [b]: head, predicates,
    ORDER BY, GROUP BY keys, VALUES rows and table-function arguments. *)
let iter_box_exprs f (b : box) =
  List.iter (fun hc -> Option.iter f hc.hc_expr) b.b_head;
  List.iter (fun p -> f p.p_expr) b.b_preds;
  List.iter (fun (e, _) -> f e) b.b_order;
  match b.b_kind with
  | Group_by keys -> List.iter f keys
  | Values_box rows -> List.iter (List.iter f) rows
  | Table_fn (_, args) -> List.iter f args
  | _ -> ()

let contains_agg e =
  fold_expr (fun acc e -> acc || match e with Agg _ -> true | _ -> false) false e

let contains_quantified e =
  fold_expr
    (fun acc e -> acc || match e with Quantified _ -> true | _ -> false)
    false e

let contains_host e =
  fold_expr (fun acc e -> acc || match e with Host _ -> true | _ -> false) false e

(** Replaces every [Col (q, i)] with [subst q i] when it returns a
    replacement, recursively. *)
let subst_cols subst e =
  map_expr
    (fun e ->
      match e with
      | Col (q, i) -> ( match subst q i with Some e' -> e' | None -> e)
      | _ -> e)
    e

(** Structural equality on expressions. *)
let equal_expr (a : expr) (b : expr) = a = b

(* ------------------------------------------------------------------ *)
(* Graph navigation                                                    *)
(* ------------------------------------------------------------------ *)

(** All quantifiers (anywhere in the graph) ranging over box [id]. *)
let users_of_box g id =
  Hashtbl.fold
    (fun _ q acc -> if q.q_input = id then q :: acc else acc)
    g.quants []

(** Boxes reachable from the top box through range edges (cycles safe). *)
let reachable_boxes g : box list =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      let b = box g id in
      order := b :: !order;
      List.iter (fun q -> visit q.q_input) b.b_quants
    end
  in
  visit g.top;
  List.rev !order

(** Removes boxes not reachable from the top (rewrite rules leave
    garbage when they merge or bypass boxes). *)
let garbage_collect g =
  let live = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace live b.b_id ()) (reachable_boxes g);
  let dead =
    Hashtbl.fold
      (fun id _ acc -> if Hashtbl.mem live id then acc else id :: acc)
      g.boxes []
  in
  List.iter (delete_box g) dead

(** Is box [id] part of a range-edge cycle (i.e. recursive)? *)
let is_recursive g id =
  let seen = Hashtbl.create 8 in
  let rec reaches from =
    if from = id then true
    else if Hashtbl.mem seen from then false
    else begin
      Hashtbl.replace seen from ();
      List.exists (fun q -> reaches q.q_input) (box g from).b_quants
    end
  in
  List.exists (fun q -> reaches q.q_input) (box g id).b_quants

(** Head arity of a box. *)
let arity b = List.length b.b_head

let head_col b i =
  try List.nth b.b_head i
  with _ -> error "box %d has no head column %d" b.b_id i

(** The output type of column [i] of the box a quantifier ranges over. *)
let col_type g (q : quant) i = (head_col (box g q.q_input) i).hc_type

(** Setformer quantifiers of a box (F plus extension setformer types). *)
let setformers b =
  List.filter
    (fun q -> match q.q_type with F | Ext _ -> true | E | A | S | SP _ -> false)
    b.b_quants

(** Subquery quantifiers (consumed inside predicates). *)
let subquery_quants b =
  List.filter
    (fun q ->
      match q.q_type with E | A | S | SP _ -> true | F | Ext _ -> false)
    b.b_quants

(** Predicates of [b] that mention quantifier [q]. *)
let preds_on b (q : quant) =
  List.filter (fun p -> List.mem q.q_id (quant_refs p.p_expr)) b.b_preds

(** Splits [e] into top-level conjuncts. *)
let rec conjuncts = function
  | Bin (Sb_hydrogen.Ast.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> Lit (Value.Bool true)
  | e :: rest -> List.fold_left (fun acc e -> Bin (Sb_hydrogen.Ast.And, acc, e)) e rest

(* ------------------------------------------------------------------ *)
(* Deep copy (used by CHOOSE alternatives and by tests)                *)
(* ------------------------------------------------------------------ *)

(** Copies the subgraph rooted at [root] into [g], returning the new
    root id.  Quantifier references in expressions are remapped — after
    every box and quantifier is copied, so a correlated reference to a
    quantifier copied later (a sibling of the referencing subquery) is
    remapped too.  References to quantifiers outside the subgraph are
    kept as-is.  [share] lists box ids to share rather than copy (e.g.
    base tables). *)
let copy_subgraph g ?(share = fun (b : box) -> match b.b_kind with Base_table _ -> true | _ -> false) root =
  let box_map = Hashtbl.create 8 in
  let quant_map = Hashtbl.create 8 in
  let copied = ref [] in
  let rec copy_box id =
    match Hashtbl.find_opt box_map id with
    | Some nid -> nid
    | None ->
      let b = box g id in
      if share b then begin
        Hashtbl.replace box_map id id;
        id
      end
      else begin
        let nb = new_box g ~label:b.b_label b.b_kind in
        Hashtbl.replace box_map id nb.b_id;
        nb.b_distinct <- b.b_distinct;
        nb.b_limit <- b.b_limit;
        List.iter
          (fun q ->
            let input = copy_box q.q_input in
            let nq =
              new_quant g ~label:q.q_label ~parent:nb.b_id ~input q.q_type
            in
            Hashtbl.replace quant_map q.q_id nq.q_id)
          b.b_quants;
        copied := (b, nb) :: !copied;
        nb.b_id
      end
  in
  let root' = copy_box root in
  let remap e =
    map_expr
      (fun e ->
        match e with
        | Col (q, i) ->
          (match Hashtbl.find_opt quant_map q with
          | Some nq -> Col (nq, i)
          | None -> e)
        | Quantified (q, inner) ->
          (match Hashtbl.find_opt quant_map q with
          | Some nq -> Quantified (nq, inner)
          | None -> e)
        | _ -> e)
      e
  in
  List.iter
    (fun (b, nb) ->
      nb.b_head <-
        List.map (fun hc -> { hc with hc_expr = Option.map remap hc.hc_expr }) b.b_head;
      nb.b_preds <- List.map (fun p -> { p with p_expr = remap p.p_expr }) b.b_preds;
      nb.b_order <- List.map (fun (e, d) -> (remap e, d)) b.b_order;
      nb.b_kind <-
        (match b.b_kind with
        | Group_by exprs -> Group_by (List.map remap exprs)
        | Values_box rows -> Values_box (List.map (List.map remap) rows)
        | Table_fn (name, args) -> Table_fn (name, List.map remap args)
        | k -> k))
    !copied;
  root'
