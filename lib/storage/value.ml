(** Runtime values.

    SQL three-valued logic lives in the expression evaluator; here [Null]
    is simply a distinguished value that compares lowest, so that sorting
    and B-tree keys have a total order. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | String of string
  | Ext of string * string  (** type name, payload *)

let type_of = function
  | Null -> None
  | Int _ -> Some Datatype.Int
  | Float _ -> Some Datatype.Float
  | Bool _ -> Some Datatype.Bool
  | String _ -> Some Datatype.String
  | Ext (name, _) -> Some (Datatype.Ext name)

let is_null = function Null -> true | _ -> false

(** Rank used to order values of distinct types (only relevant for the
    heterogeneous corner cases that a well-typed query never produces). *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2 (* ints and floats compare numerically *)
  | String _ -> 3
  | Ext _ -> 4

exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

(** Total order.  [registry] resolves comparisons of external types; when
    it is omitted, external payloads compare as strings. *)
let compare ?registry a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Bool x, Bool y -> Bool.compare x y
  | String x, String y -> String.compare x y
  | Ext (n1, p1), Ext (n2, p2) ->
    if not (String.equal n1 n2) then String.compare n1 n2
    else (
      match Option.bind registry (fun reg -> Datatype.find reg n1) with
      | Some ops -> ops.Datatype.ext_compare p1 p2
      | None -> String.compare p1 p2)
  | (Null | Int _ | Float _ | Bool _ | String _ | Ext _), _ ->
    Int.compare (rank a) (rank b)

let equal ?registry a b = compare ?registry a b = 0

(* an integral float in int range ([-2^62, 2^62)) hashes as that int,
   with no boxing; any other float through [Hashtbl.hash] *)
let hash_float x =
  if Float.is_integer x && x >= -0x1p62 && x < 0x1p62 then int_of_float x
  else Hashtbl.hash x

(* ints and floats that are [equal] must hash alike: an Int hashes as
   the float it compares as, which up to 2^53 is the int itself *)
let hash_int x =
  if x >= -0x20_0000_0000_0000 && x <= 0x20_0000_0000_0000 then x
  else hash_float (float_of_int x)

let hash = function
  | Null -> 0
  | Int x -> hash_int x
  | Float x -> hash_float x
  | Bool b -> Hashtbl.hash b
  | String s -> Hashtbl.hash s
  (* payloads that differ may still be equal under the type's
     [ext_compare] (a BOX of -0 and one of 0), so only the type name is
     hashed *)
  | Ext (n, _) -> Hashtbl.hash n

let to_string ?registry = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x -> Fmt.str "%g" x
  | Bool b -> if b then "TRUE" else "FALSE"
  | String s -> s
  | Ext (n, p) ->
    (match Option.bind registry (fun reg -> Datatype.find reg n) with
    | Some ops -> ops.Datatype.ext_print p
    | None -> Fmt.str "%s(%s)" n p)

let pp ppf v = Fmt.string ppf (to_string v)

(** Literal display form, quoting strings (used by pretty-printers).
    Unlike {!to_string} this must round-trip through the Hydrogen
    lexer: floats keep a ['.'] or exponent so an integral float does
    not reparse as an INT, and shortest-exact rendering keeps the value
    bit-identical. *)
let float_literal x =
  let s = Fmt.str "%.15g" x in
  let s = if float_of_string s = x then s else Fmt.str "%.17g" x in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let to_literal = function
  | String s -> Fmt.str "'%s'" (String.concat "''" (String.split_on_char '\'' s))
  | Float x -> float_literal x
  | v -> to_string v

(* Numeric accessors used by the expression evaluator. *)

let as_int = function
  | Int x -> x
  | Float x -> int_of_float x
  | v -> type_error "expected INT, got %s" (to_string v)

let as_float = function
  | Int x -> float_of_int x
  | Float x -> x
  | v -> type_error "expected FLOAT, got %s" (to_string v)

let as_bool = function
  | Bool b -> b
  | v -> type_error "expected BOOL, got %s" (to_string v)

let as_string = function
  | String s -> s
  | v -> type_error "expected STRING, got %s" (to_string v)
