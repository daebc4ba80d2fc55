(** DBC aggregate functions (section 2's [StandardDeviation(Salary)]
    example): standard deviation, variance and median, registered as
    ordinary aggregates usable wherever built-ins are. *)

open Sb_storage
module Functions = Sb_hydrogen.Functions

let numeric_type = function
  | Some (Datatype.Int | Datatype.Float) | None -> Ok (Some Datatype.Float)
  | Some t -> Error (Fmt.str "numeric aggregate over %s" (Datatype.to_string t))

(* Welford's online algorithm *)
let make_moments () =
  let n = ref 0 and mean = ref 0.0 and m2 = ref 0.0 in
  let step v =
    let x = Value.as_float v in
    incr n;
    let d = x -. !mean in
    mean := !mean +. (d /. float_of_int !n);
    m2 := !m2 +. (d *. (x -. !mean))
  in
  (n, mean, m2, step)

let stddev_fn : Functions.aggregate_fn =
  {
    Functions.af_name = "stddev";
    af_type = numeric_type;
    af_make =
      (fun _ ->
        let n, _, m2, step = make_moments () in
        {
          Functions.agg_step = step;
          agg_step_int = None;
          agg_result =
            (fun () ->
              if !n < 2 then Value.Null
              else Value.Float (sqrt (!m2 /. float_of_int (!n - 1))));
        });
  }

let variance_fn : Functions.aggregate_fn =
  {
    Functions.af_name = "variance";
    af_type = numeric_type;
    af_make =
      (fun _ ->
        let n, _, m2, step = make_moments () in
        {
          Functions.agg_step = step;
          agg_step_int = None;
          agg_result =
            (fun () ->
              if !n < 2 then Value.Null
              else Value.Float (!m2 /. float_of_int (!n - 1)));
        });
  }

let median_fn : Functions.aggregate_fn =
  {
    Functions.af_name = "median";
    af_type = numeric_type;
    af_make =
      (fun _ ->
        let values = ref [] in
        {
          Functions.agg_step = (fun v -> values := Value.as_float v :: !values);
          agg_step_int = None;
          agg_result =
            (fun () ->
              match List.sort Float.compare !values with
              | [] -> Value.Null
              | sorted ->
                let n = List.length sorted in
                if n mod 2 = 1 then Value.Float (List.nth sorted (n / 2))
                else
                  Value.Float
                    ((List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2))
                    /. 2.0));
        });
  }

let install (db : Starburst.t) =
  Starburst.Extension.register_aggregate_function db stddev_fn;
  Starburst.Extension.register_aggregate_function db variance_fn;
  Starburst.Extension.register_aggregate_function db median_fn
