(** The function registry: the language-extension surface of Hydrogen.

    A DBC can register four kinds of functions (section 2):
    - {e scalar} functions over column values (e.g. [Area(w, l)]);
    - {e aggregate} functions ranging over a table (e.g. [StdDev(x)]);
    - {e set-predicate} functions generalizing [ALL]/[ANY]
      (e.g. [MAJORITY]);
    - {e table} functions producing tables from tables and parameters
      (e.g. [SAMPLE(t, n)]).

    Built-ins are registered through the same interface. *)

open Sb_storage

exception Function_error of string

let error fmt = Fmt.kstr (fun s -> raise (Function_error s)) fmt

(* --- scalar functions --- *)

type scalar_fn = {
  sf_name : string;
  sf_arity : int option;  (** [None] = variadic *)
  sf_type : Datatype.t option list -> (Datatype.t option, string) result;
      (** result type given argument types ([None] = untyped/null) *)
  sf_eval : Value.t list -> Value.t;
}

(* --- aggregate functions --- *)

(** A fresh accumulator per group; [agg_step] sees non-null argument
    values (SQL semantics: aggregates skip nulls; [count( * )] is handled
    by the executor). *)
type agg_instance = {
  agg_step : Value.t -> unit;
  agg_result : unit -> Value.t;
}

type aggregate_fn = {
  af_name : string;
  af_type : Datatype.t option -> (Datatype.t option, string) result;
  af_make : Datatype.registry -> agg_instance;
      (** a fresh accumulator; the catalog's datatype registry orders
          extension values *)
}

(* --- set-predicate functions --- *)

(** Decides the predicate's truth over the whole set.  [truths] is the
    three-valued truth of the comparison for each element of the set
    ([None] = unknown).  ALL and ANY are expressible in this interface
    and are built in to the executor; extension functions such as
    MAJORITY register here. *)
type set_predicate_fn = {
  spf_name : string;
  spf_combine : bool option Seq.t -> bool option;
}

(* --- table functions --- *)

type table_fn = {
  tf_name : string;
  tf_type :
    arg_tables:Schema.t list ->
    arg_values:Datatype.t option list ->
    (Schema.t, string) result;
  tf_eval :
    arg_tables:(Schema.t * Tuple.t Seq.t) list ->
    arg_values:Value.t list ->
    Tuple.t Seq.t;
}

type t = {
  scalars : (string, scalar_fn) Hashtbl.t;
  aggregates : (string, aggregate_fn) Hashtbl.t;
  set_predicates : (string, set_predicate_fn) Hashtbl.t;
  table_fns : (string, table_fn) Hashtbl.t;
}

let norm = String.lowercase_ascii

let register_scalar t (f : scalar_fn) =
  Hashtbl.replace t.scalars (norm f.sf_name) f

let register_aggregate t (f : aggregate_fn) =
  Hashtbl.replace t.aggregates (norm f.af_name) f

let register_set_predicate t (f : set_predicate_fn) =
  Hashtbl.replace t.set_predicates (norm f.spf_name) f

let register_table_fn t (f : table_fn) =
  Hashtbl.replace t.table_fns (norm f.tf_name) f

let find_scalar t name = Hashtbl.find_opt t.scalars (norm name)
let find_aggregate t name = Hashtbl.find_opt t.aggregates (norm name)
let find_set_predicate t name = Hashtbl.find_opt t.set_predicates (norm name)
let find_table_fn t name = Hashtbl.find_opt t.table_fns (norm name)

let is_aggregate t name = Hashtbl.mem t.aggregates (norm name)
let is_table_fn t name = Hashtbl.mem t.table_fns (norm name)

(* ------------------------------------------------------------------ *)
(* Built-ins                                                           *)
(* ------------------------------------------------------------------ *)

let numeric_result = function
  | [ Some Datatype.Int; Some Datatype.Int ] -> Ok (Some Datatype.Int)
  | [ Some (Datatype.Int | Datatype.Float); Some (Datatype.Int | Datatype.Float) ]
    -> Ok (Some Datatype.Float)
  | [ None; _ ] | [ _; None ] -> Ok None
  | _ -> Error "expected numeric arguments"

let null_safe1 f = function
  | [ Value.Null ] -> Value.Null
  | [ v ] -> f v
  | args -> error "expected 1 argument, got %d" (List.length args)

let null_safe2 f = function
  | [ Value.Null; _ ] | [ _; Value.Null ] -> Value.Null
  | [ a; b ] -> f a b
  | args -> error "expected 2 arguments, got %d" (List.length args)

let builtin_scalars =
  [
    {
      sf_name = "abs";
      sf_arity = Some 1;
      sf_type =
        (function
        | [ Some Datatype.Int ] -> Ok (Some Datatype.Int)
        | [ Some Datatype.Float ] -> Ok (Some Datatype.Float)
        | [ None ] -> Ok None
        | _ -> Error "abs expects one numeric argument");
      sf_eval =
        null_safe1 (function
          | Value.Int x -> Value.Int (abs x)
          | Value.Float x -> Value.Float (Float.abs x)
          | v -> error "abs: non-numeric %s" (Value.to_string v));
    };
    {
      sf_name = "mod";
      sf_arity = Some 2;
      sf_type =
        (function
        | [ Some Datatype.Int; Some Datatype.Int ] -> Ok (Some Datatype.Int)
        | [ None; _ ] | [ _; None ] -> Ok None
        | _ -> Error "mod expects two integers");
      sf_eval =
        null_safe2 (fun a b ->
            let d = Value.as_int b in
            if d = 0 then Value.Null else Value.Int (Value.as_int a mod d));
    };
    {
      sf_name = "upper";
      sf_arity = Some 1;
      sf_type =
        (function
        | [ Some Datatype.String ] | [ None ] -> Ok (Some Datatype.String)
        | _ -> Error "upper expects a string");
      sf_eval =
        null_safe1 (fun v -> Value.String (String.uppercase_ascii (Value.as_string v)));
    };
    {
      sf_name = "lower";
      sf_arity = Some 1;
      sf_type =
        (function
        | [ Some Datatype.String ] | [ None ] -> Ok (Some Datatype.String)
        | _ -> Error "lower expects a string");
      sf_eval =
        null_safe1 (fun v -> Value.String (String.lowercase_ascii (Value.as_string v)));
    };
    {
      sf_name = "length";
      sf_arity = Some 1;
      sf_type =
        (function
        | [ Some Datatype.String ] | [ None ] -> Ok (Some Datatype.Int)
        | _ -> Error "length expects a string");
      sf_eval = null_safe1 (fun v -> Value.Int (String.length (Value.as_string v)));
    };
    {
      sf_name = "substr";
      sf_arity = Some 3;
      sf_type =
        (function
        | [ s; Some Datatype.Int; Some Datatype.Int ]
          when s = Some Datatype.String || s = None ->
          Ok (Some Datatype.String)
        | _ -> Error "substr expects (string, int, int)");
      sf_eval =
        (function
        | [ Value.Null; _; _ ] -> Value.Null
        | [ s; from; len ] ->
          let s = Value.as_string s in
          let from = max 1 (Value.as_int from) - 1 in
          let len = max 0 (min (Value.as_int len) (String.length s - from)) in
          if from >= String.length s then Value.String ""
          else Value.String (String.sub s from len)
        | args -> error "substr expects 3 arguments, got %d" (List.length args));
    };
    {
      sf_name = "coalesce";
      sf_arity = None;
      sf_type =
        (fun tys ->
          Ok (List.fold_left (fun acc t -> if acc = None then t else acc) None tys));
      sf_eval =
        (fun args ->
          match List.find_opt (fun v -> not (Value.is_null v)) args with
          | Some v -> v
          | None -> Value.Null);
    };
    {
      sf_name = "sqrt";
      sf_arity = Some 1;
      sf_type =
        (function
        | [ Some (Datatype.Int | Datatype.Float) ] | [ None ] ->
          Ok (Some Datatype.Float)
        | _ -> Error "sqrt expects a number");
      sf_eval = null_safe1 (fun v -> Value.Float (sqrt (Value.as_float v)));
    };
    {
      sf_name = "round";
      sf_arity = Some 1;
      sf_type =
        (function
        | [ Some (Datatype.Int | Datatype.Float) ] | [ None ] ->
          Ok (Some Datatype.Int)
        | _ -> Error "round expects a number");
      sf_eval =
        null_safe1 (fun v -> Value.Int (int_of_float (Float.round (Value.as_float v))));
    };
    {
      sf_name = "floor";
      sf_arity = Some 1;
      sf_type =
        (function
        | [ Some (Datatype.Int | Datatype.Float) ] | [ None ] ->
          Ok (Some Datatype.Int)
        | _ -> Error "floor expects a number");
      sf_eval =
        null_safe1 (fun v -> Value.Int (int_of_float (Float.floor (Value.as_float v))));
    };
    {
      sf_name = "ceil";
      sf_arity = Some 1;
      sf_type =
        (function
        | [ Some (Datatype.Int | Datatype.Float) ] | [ None ] ->
          Ok (Some Datatype.Int)
        | _ -> Error "ceil expects a number");
      sf_eval =
        null_safe1 (fun v -> Value.Int (int_of_float (Float.ceil (Value.as_float v))));
    };
    {
      sf_name = "sign";
      sf_arity = Some 1;
      sf_type =
        (function
        | [ Some (Datatype.Int | Datatype.Float) ] | [ None ] ->
          Ok (Some Datatype.Int)
        | _ -> Error "sign expects a number");
      sf_eval =
        null_safe1 (fun v ->
            Value.Int (compare (Value.as_float v) 0.0));
    };
    {
      sf_name = "trim";
      sf_arity = Some 1;
      sf_type =
        (function
        | [ Some Datatype.String ] | [ None ] -> Ok (Some Datatype.String)
        | _ -> Error "trim expects a string");
      sf_eval = null_safe1 (fun v -> Value.String (String.trim (Value.as_string v)));
    };
    {
      sf_name = "replace";
      sf_arity = Some 3;
      sf_type =
        (function
        | [ (Some Datatype.String | None); (Some Datatype.String | None);
            (Some Datatype.String | None) ] ->
          Ok (Some Datatype.String)
        | _ -> Error "replace expects three strings");
      sf_eval =
        (function
        | [ Value.Null; _; _ ] -> Value.Null
        | [ src; pat; repl ] ->
          let src = Value.as_string src
          and pat = Value.as_string pat
          and repl = Value.as_string repl in
          if pat = "" then Value.String src
          else begin
            let buf = Buffer.create (String.length src) in
            let plen = String.length pat in
            let rec go i =
              if i > String.length src - plen then
                Buffer.add_string buf (String.sub src i (String.length src - i))
              else if String.sub src i plen = pat then begin
                Buffer.add_string buf repl;
                go (i + plen)
              end
              else begin
                Buffer.add_char buf src.[i];
                go (i + 1)
              end
            in
            go 0;
            Value.String (Buffer.contents buf)
          end
        | args -> error "replace expects 3 arguments, got %d" (List.length args));
    };
    {
      sf_name = "greatest";
      sf_arity = None;
      sf_type = (fun tys -> Ok (List.find_opt Option.is_some tys |> Option.join));
      sf_eval =
        (fun args ->
          match List.filter (fun v -> not (Value.is_null v)) args with
          | [] -> Value.Null
          | v :: rest ->
            List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v rest);
    };
    {
      sf_name = "least";
      sf_arity = None;
      sf_type = (fun tys -> Ok (List.find_opt Option.is_some tys |> Option.join));
      sf_eval =
        (fun args ->
          match List.filter (fun v -> not (Value.is_null v)) args with
          | [] -> Value.Null
          | v :: rest ->
            List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v rest);
    };
    {
      sf_name = "nullif";
      sf_arity = Some 2;
      sf_type = (fun tys -> Ok (List.find_opt Option.is_some tys |> Option.join));
      sf_eval =
        (function
        | [ a; b ] -> if Value.compare a b = 0 then Value.Null else a
        | args -> error "nullif expects 2 arguments, got %d" (List.length args));
    };
    {
      sf_name = "power";
      sf_arity = Some 2;
      sf_type = (fun tys -> numeric_result tys);
      sf_eval =
        null_safe2 (fun a b ->
            Value.Float (Float.pow (Value.as_float a) (Value.as_float b)));
    };
  ]

(* int and float accumulators: a step allocates nothing.  The sum stays
   an Int until the first non-Int value, then continues in float from
   the int total so far. *)
type float_acc = { mutable fsum : float }

let make_sum _registry =
  let seen = ref false and floating = ref false and isum = ref 0 in
  let facc = { fsum = 0.0 } in
  {
    agg_step =
      (fun v ->
        (match v with
        | Value.Int b when not !floating -> isum := !isum + b
        | v ->
          let x = Value.as_float v in
          if !floating then facc.fsum <- facc.fsum +. x
          else begin
            floating := true;
            facc.fsum <- (if !seen then float_of_int !isum +. x else x)
          end);
        seen := true);
    agg_result =
      (fun () ->
        if not !seen then Value.Null
        else if !floating then Value.Float facc.fsum
        else Value.Int !isum);
  }

(* [Value.compare] under the catalog's datatype registry, so extension
   types order by their [ext_compare], as ORDER BY does *)
let make_extreme registry better =
  let cmp = Value.compare ~registry in
  let acc = ref Value.Null in
  {
    agg_step = (fun v -> if Value.is_null !acc || better (cmp v !acc) then acc := v);
    agg_result = (fun () -> !acc);
  }

let numeric_agg_type = function
  | Some Datatype.Int -> Ok (Some Datatype.Int)
  | Some Datatype.Float -> Ok (Some Datatype.Float)
  | None -> Ok None
  | Some t -> Error (Fmt.str "numeric aggregate over %a" Datatype.pp t)

let builtin_aggregates =
  [
    {
      af_name = "count";
      af_type = (fun _ -> Ok (Some Datatype.Int));
      af_make =
        (fun _ ->
          let n = ref 0 in
          {
            agg_step = (fun _ -> incr n);
            agg_result = (fun () -> Value.Int !n);
          });
    };
    { af_name = "sum"; af_type = numeric_agg_type; af_make = make_sum };
    {
      af_name = "avg";
      af_type =
        (function
        | Some (Datatype.Int | Datatype.Float) | None -> Ok (Some Datatype.Float)
        | Some t -> Error (Fmt.str "avg over %a" Datatype.pp t));
      af_make =
        (fun _ ->
          let n = ref 0 and s = { fsum = 0.0 } in
          {
            agg_step =
              (fun v ->
                incr n;
                s.fsum <- s.fsum +. Value.as_float v);
            agg_result =
              (fun () ->
                if !n = 0 then Value.Null else Value.Float (s.fsum /. float_of_int !n));
          });
    };
    {
      af_name = "min";
      af_type = (fun t -> Ok t);
      af_make = (fun registry -> make_extreme registry (fun c -> c < 0));
    };
    {
      af_name = "max";
      af_type = (fun t -> Ok t);
      af_make = (fun registry -> make_extreme registry (fun c -> c > 0));
    };
  ]

(** Creates a registry pre-loaded with the built-in functions. *)
let create () : t =
  let t =
    {
      scalars = Hashtbl.create 16;
      aggregates = Hashtbl.create 8;
      set_predicates = Hashtbl.create 4;
      table_fns = Hashtbl.create 4;
    }
  in
  List.iter (register_scalar t) builtin_scalars;
  List.iter (register_aggregate t) builtin_aggregates;
  t
