(** The spatial extension: a [BOX] external datatype, spatial scalar
    functions, and the R-tree access-method attachment [GUTT84] — the
    paper's example of a data management extension Corona must learn to
    exploit ("Corona must recognize when this access method is useful
    for a query and when to invoke it").  The optimizer learns it
    through a registered probe matcher recognizing [overlaps]
    predicates. *)

open Sb_storage
module Functions = Sb_hydrogen.Functions
module Plan = Sb_optimizer.Plan
module Star = Sb_optimizer.Star

let type_name = "BOX"

let parse_payload s =
  match Rtree.rect_of_payload s with
  | Some r -> Ok (Rtree.payload_of_rect r)
  | None -> Error (Fmt.str "invalid BOX literal %S (expected 'x0,y0,x1,y1')" s)

let box_type : Datatype.ext_ops =
  {
    Datatype.ext_name = type_name;
    ext_parse = parse_payload;
    ext_compare =
      (fun a b ->
        (* order by lower-left corner, then upper-right: a total order
           so boxes can be sorted and grouped *)
        match Rtree.rect_of_payload a, Rtree.rect_of_payload b with
        | Some ra, Some rb -> compare (ra.Rtree.x0, ra.Rtree.y0, ra.Rtree.x1, ra.Rtree.y1)
                                (rb.Rtree.x0, rb.Rtree.y0, rb.Rtree.x1, rb.Rtree.y1)
        | _ -> String.compare a b);
    ext_print = (fun p -> Fmt.str "BOX(%s)" p);
  }

let as_rect = function
  | Value.Ext (_, p) | Value.String p -> Rtree.rect_of_payload p
  | _ -> None

let make_box_fn : Functions.scalar_fn =
  {
    Functions.sf_name = "make_box";
    sf_arity = Some 4;
    sf_type =
      (fun tys ->
        if
          List.for_all
            (function
              | Some (Datatype.Int | Datatype.Float) | None -> true
              | Some _ -> false)
            tys
        then Ok (Some (Datatype.Ext type_name))
        else Error "make_box expects four numbers");
    sf_eval =
      (fun _ -> function
      | [ a; b; c; d ] when not (List.exists Value.is_null [ a; b; c; d ]) ->
        let r =
          Rtree.rect ~x0:(Value.as_float a) ~y0:(Value.as_float b)
            ~x1:(Value.as_float c) ~y1:(Value.as_float d)
        in
        Value.Ext (type_name, Rtree.payload_of_rect r)
      | [ _; _; _; _ ] -> Value.Null
      | args -> Functions.error "make_box expects 4 arguments, got %d" (List.length args));
  }

let binary_box_type name = function
  | [ Some (Datatype.Ext t1); Some (Datatype.Ext t2) ]
    when t1 = type_name && t2 = type_name ->
    Ok (Some Datatype.Bool)
  | [ None; _ ] | [ _; None ] -> Ok (Some Datatype.Bool)
  | _ -> Error (name ^ " expects two BOX arguments")

let overlaps_fn : Functions.scalar_fn =
  {
    Functions.sf_name = "overlaps";
    sf_arity = Some 2;
    sf_type = binary_box_type "overlaps";
    sf_eval =
      (fun _ -> function
      | [ a; b ] -> (
        match as_rect a, as_rect b with
        | Some ra, Some rb -> Value.Bool (Rtree.overlaps ra rb)
        | _ -> Value.Null)
      | args -> Functions.error "overlaps expects 2 arguments, got %d" (List.length args));
  }

let contains_fn : Functions.scalar_fn =
  {
    Functions.sf_name = "contains";
    sf_arity = Some 2;
    sf_type = binary_box_type "contains";
    sf_eval =
      (fun _ -> function
      | [ a; b ] -> (
        match as_rect a, as_rect b with
        | Some ra, Some rb -> Value.Bool (Rtree.contains ra rb)
        | _ -> Value.Null)
      | args -> Functions.error "contains expects 2 arguments, got %d" (List.length args));
  }

let area_fn : Functions.scalar_fn =
  {
    Functions.sf_name = "area";
    sf_arity = Some 1;
    sf_type =
      (function
      | [ Some (Datatype.Ext t) ] when t = type_name -> Ok (Some Datatype.Float)
      | [ None ] -> Ok (Some Datatype.Float)
      | _ -> Error "area expects a BOX");
    sf_eval =
      (fun _ -> function
      | [ v ] -> (
        match as_rect v with
        | Some r -> Value.Float (Rtree.area r)
        | None -> Value.Null)
      | args -> Functions.error "area expects 1 argument, got %d" (List.length args));
  }

(** Teaches the optimizer that an R-tree attachment answers
    [overlaps(col, constant-box)] predicates. *)
let rtree_matcher : Star.probe_matcher =
 fun am preds ->
  if am.Access_method.am_kind <> "rtree" then None
  else
    match am.Access_method.am_columns with
    | [ key ] ->
      let is_const e = Plan.slots_used e = [] && not (Plan.rexpr_has_sub e) in
      List.find_map
        (fun p ->
          let matched =
            match p with
            | Plan.RFun ("overlaps", [ Plan.RCol c; v ]) when c = key && is_const v
              ->
              Some v
            | Plan.RFun ("overlaps", [ v; Plan.RCol c ]) when c = key && is_const v
              ->
              Some v
            | _ -> None
          in
          (* the R-tree stores the exact boxes, so the probe fully
             answers the predicate *)
          Option.map
            (fun v -> (Plan.Pr_custom ("overlaps", [ v ]), 0.05, [ p ]))
            matched)
        preds
    | _ -> None

(** Registers the BOX type, the spatial functions, the R-tree attachment
    kind and the optimizer probe matcher. *)
let install (db : Starburst.t) =
  Starburst.Extension.register_datatype db box_type;
  Starburst.Extension.register_scalar_function db make_box_fn;
  Starburst.Extension.register_scalar_function db overlaps_fn;
  Starburst.Extension.register_scalar_function db contains_fn;
  Starburst.Extension.register_scalar_function db area_fn;
  Starburst.Extension.register_access_method db Access_method.rtree_kind;
  Starburst.Extension.register_probe_matcher db rtree_matcher

(** Convenience constructor for test data. *)
let box_value ~x0 ~y0 ~x1 ~y1 =
  Value.Ext (type_name, Rtree.payload_of_rect (Rtree.rect ~x0 ~y0 ~x1 ~y1))
