(** The fuzzing driver.  See harness.mli. *)

module Ast = Sb_hydrogen.Ast
module Parser = Sb_hydrogen.Parser
module Metrics = Sb_obs.Metrics

type stats = {
  st_seed : int;
  st_cases : int;
  st_passed : int;
  st_rejected : int;
  st_unsupported : int;
  st_failures : Repro.t list;
  st_shrink_steps : int;
}

(* round-trip first, then the full oracle matrix: this one predicate is
   both the case check and the shrinker's [still_fails] *)
let full_verdict ?inject ~chaos_seed (cat : Gen.catalog)
    (q : Ast.with_query) : Oracle.verdict =
  let text = Gen.query_text q in
  match Parser.query_text text with
  | exception exn ->
    Oracle.Fail
      {
        config = "roundtrip";
        detail =
          Printf.sprintf "printed query failed to reparse: %s"
            (Printexc.to_string exn);
      }
  | reparsed when reparsed <> q ->
    Oracle.Fail
      {
        config = "roundtrip";
        detail = "pretty-printed query reparsed to a different AST";
      }
  | _ ->
    Oracle.check_case ?inject ~ddl:(Gen.ddl_of_catalog cat)
      ~chaos_seed q

let run ?inject ?metrics ?out_dir ?(log = fun _ -> ()) ~seed ~n ()
    =
  (* registered up front, so the report lists the zero counts too *)
  let c_cases = "sb_fuzz_cases_total" in
  let c_rejected = "sb_fuzz_rejected_total" in
  let c_discrepancies = "sb_fuzz_discrepancies_total" in
  let c_shrink = "sb_fuzz_shrink_steps_total" in
  Option.iter
    (fun m ->
      List.iter
        (fun name -> ignore (Metrics.counter m name))
        [ c_cases; c_rejected; c_discrepancies; c_shrink ])
    metrics;
  let bump ?(by = 1) name =
    Option.iter (fun m -> Metrics.add_counters m [ (name, None, by) ]) metrics
  in
  let root = Sprng.create seed in
  let passed = ref 0 in
  let rejected = ref 0 in
  let unsupported = ref 0 in
  let failures = ref [] in
  let shrink_steps = ref 0 in
  for case = 1 to n do
    let case_rng = Sprng.split root in
    let cat_rng = Sprng.split case_rng in
    let q_rng = Sprng.split case_rng in
    let chaos_seed = 1 + Sprng.int case_rng 999_983 in
    let cat = Gen.gen_catalog cat_rng in
    let query = Gen.gen_query q_rng cat in
    bump c_cases;
    match full_verdict ?inject ~chaos_seed cat query with
    | Oracle.Pass -> incr passed
    | Oracle.Rejected _ ->
      incr rejected;
      bump c_rejected
    | Oracle.Unsupported _ -> incr unsupported
    | Oracle.Fail { config; detail } ->
      bump c_discrepancies;
      log
        (Printf.sprintf "case %d: %s diverged (%s); shrinking..." case config
           detail);
      let still_fails c q =
        match full_verdict ?inject ~chaos_seed c q with
        | Oracle.Fail _ -> true
        | Oracle.Pass | Oracle.Rejected _ | Oracle.Unsupported _ -> false
      in
      let cat', query', steps = Shrink.shrink ~still_fails cat query in
      shrink_steps := !shrink_steps + steps;
      bump ~by:steps c_shrink;
      (* the shrunk case may surface under a different configuration
         name; record what it fails as now *)
      let config, detail =
        match full_verdict ?inject ~chaos_seed cat' query' with
        | Oracle.Fail { config; detail } -> (config, detail)
        | Oracle.Pass | Oracle.Rejected _ | Oracle.Unsupported _ -> (config, detail)
      in
      let repro =
        {
          Repro.r_seed = seed;
          r_case = case;
          r_chaos_seed = chaos_seed;
          r_config = config;
          r_detail = detail;
          r_ddl = Gen.ddl_of_catalog cat';
          r_query = Gen.query_text query';
        }
      in
      (match out_dir with
      | Some dir ->
        let path = Repro.save ~dir repro in
        log (Printf.sprintf "case %d: repro saved to %s" case path)
      | None -> ());
      failures := repro :: !failures
  done;
  {
    st_seed = seed;
    st_cases = n;
    st_passed = !passed;
    st_rejected = !rejected;
    st_unsupported = !unsupported;
    st_failures = List.rev !failures;
    st_shrink_steps = !shrink_steps;
  }

let report st =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "fuzz: seed=%d cases=%d passed=%d rejected=%d unsupported=%d failures=%d \
     shrink-steps=%d\n"
    st.st_seed st.st_cases st.st_passed st.st_rejected st.st_unsupported
    (List.length st.st_failures) st.st_shrink_steps;
  List.iter
    (fun (r : Repro.t) ->
      Printf.bprintf b "  case %d [%s]: %s\n    %s\n" r.Repro.r_case
        r.Repro.r_config r.Repro.r_detail r.Repro.r_query)
    st.st_failures;
  Buffer.contents b

let replay_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  Repro.replay (Repro.of_string text)

let replay_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sbf")
  |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         (path, replay_file path))
