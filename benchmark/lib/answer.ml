(** A statement's answer, reduced to a digest that can be compared with
    a reference: the row (or affected-row) count plus a hash over the
    rows.  Unordered answers hash as a bag (a sum of per-row hashes), so
    any row order matches; ordered answers mix each row's position in. *)

open Sb_storage

type t = { count : int; hash : int }

(* an exact, type-tagged rendering: [Int 1] and [Float 1.0] differ, and
   floats print in hex so no digit is lost *)
let canonical (v : Value.t) =
  match v with
  | Value.Null -> "n"
  | Value.Int i -> "i" ^ string_of_int i
  | Value.Float f -> Printf.sprintf "f%h" f
  | Value.Bool b -> if b then "bt" else "bf"
  | Value.String s -> "s" ^ s
  | Value.Ext (ty, payload) -> "e" ^ ty ^ ":" ^ payload

let row_key (row : Value.t array) =
  String.concat "\x1f" (Array.to_list (Array.map canonical row))

let of_rows ~ordered (rows : Value.t array list) : t =
  let count, hash =
    List.fold_left
      (fun (i, h) row ->
        let rh =
          if ordered then Hashtbl.hash (i, row_key row)
          else Hashtbl.hash (row_key row)
        in
        (i + 1, h + rh))
      (0, 0) rows
  in
  { count; hash }

let affected n = { count = n; hash = -1 }

let of_result ~ordered (r : Starburst.Corona.result) : t =
  match r with
  | Starburst.Corona.Rows { rows; _ } -> of_rows ~ordered rows
  | Starburst.Corona.Affected n -> affected n
  | Starburst.Corona.Message _ -> { count = 0; hash = 0 }

let equal (a : t) (b : t) = a.count = b.count && a.hash = b.hash
let to_string a = Printf.sprintf "%d row(s), hash %x" a.count a.hash
