(** Table and column statistics, the optimizer's cost-model input
    ("starting with statistics on stored tables", section 6). *)

type column_stats = {
  cs_distinct : int;
  cs_nulls : int;
  cs_min : Value.t option;
  cs_max : Value.t option;
  cs_histogram : Value.t array;
      (** equi-depth bucket upper bounds over non-null values *)
}

type t = {
  ts_cardinality : int;
  ts_pages : int;
  ts_columns : column_stats array;
}

let empty_column =
  { cs_distinct = 0; cs_nulls = 0; cs_min = None; cs_max = None; cs_histogram = [||] }

let empty = { ts_cardinality = 0; ts_pages = 0; ts_columns = [||] }

let histogram_buckets = 24

(** Computes statistics from a full scan of [rows]. *)
let analyze ?registry ~(schema : Schema.t) ~pages (rows : Tuple.t Seq.t) : t =
  let ncols = Array.length schema in
  let values = Array.init ncols (fun _ -> ref []) in
  let nulls = Array.make ncols 0 in
  let card = ref 0 in
  Seq.iter
    (fun tuple ->
      incr card;
      for i = 0 to ncols - 1 do
        if Value.is_null tuple.(i) then nulls.(i) <- nulls.(i) + 1
        else values.(i) := tuple.(i) :: !(values.(i))
      done)
    rows;
  let column i =
    let sorted = List.sort (Value.compare ?registry) !(values.(i)) in
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    if n = 0 then { empty_column with cs_nulls = nulls.(i) }
    else begin
      let distinct = ref 1 in
      for j = 1 to n - 1 do
        if not (Value.equal ?registry arr.(j) arr.(j - 1)) then incr distinct
      done;
      let nbuckets = min histogram_buckets n in
      let histogram =
        Array.init nbuckets (fun b ->
            arr.(min (n - 1) (((b + 1) * n / nbuckets) - 1)))
      in
      {
        cs_distinct = !distinct;
        cs_nulls = nulls.(i);
        cs_min = Some arr.(0);
        cs_max = Some arr.(n - 1);
        cs_histogram = histogram;
      }
    end
  in
  {
    ts_cardinality = !card;
    ts_pages = pages;
    ts_columns = Array.init ncols column;
  }

(* --- selectivity estimation --- *)

let default_eq_selectivity = 0.05
let default_range_selectivity = 0.33

(** Fraction of rows whose column [i] equals a value. *)
let eq_selectivity (t : t) i =
  if t.ts_cardinality = 0 || i >= Array.length t.ts_columns then
    default_eq_selectivity
  else
    let c = t.ts_columns.(i) in
    if c.cs_distinct = 0 then default_eq_selectivity
    else 1.0 /. float_of_int c.cs_distinct

(** Fraction of rows with column [i] strictly/inclusively below or above a
    bound; computed from the equi-depth histogram. *)
let range_selectivity ?registry (t : t) i ~op v =
  if t.ts_cardinality = 0 || i >= Array.length t.ts_columns then
    default_range_selectivity
  else
    let c = t.ts_columns.(i) in
    let n = Array.length c.cs_histogram in
    if n = 0 then default_range_selectivity
    else begin
      (* fraction of buckets whose upper bound is below v ~ fraction of
         rows below v *)
      let below = ref 0 in
      Array.iter
        (fun ub -> if Value.compare ?registry ub v < 0 then incr below)
        c.cs_histogram;
      let frac_lt = float_of_int !below /. float_of_int n in
      let frac_eq = eq_selectivity t i in
      match op with
      | `Lt -> max 0.0 (min 1.0 frac_lt)
      | `Le -> max 0.0 (min 1.0 (frac_lt +. frac_eq))
      | `Gt -> max 0.0 (min 1.0 (1.0 -. frac_lt -. frac_eq))
      | `Ge -> max 0.0 (min 1.0 (1.0 -. frac_lt))
    end

let distinct_of (t : t) i =
  if i < Array.length t.ts_columns && t.ts_columns.(i).cs_distinct > 0 then
    t.ts_columns.(i).cs_distinct
  else max 1 (t.ts_cardinality / 10)

let pp ppf t =
  Fmt.pf ppf "card=%d pages=%d cols=[%a]" t.ts_cardinality t.ts_pages
    Fmt.(array ~sep:sp (fun ppf c -> Fmt.pf ppf "d=%d" c.cs_distinct))
    t.ts_columns
