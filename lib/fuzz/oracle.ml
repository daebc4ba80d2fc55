(** Differential and metamorphic oracle.  See oracle.mli. *)

open Sb_storage
module Ast = Sb_hydrogen.Ast
module Qgm = Sb_qgm.Qgm
module Prover = Sb_analysis.Prover
module Generator = Sb_optimizer.Generator
module Star = Sb_optimizer.Star
module Err = Sb_resil.Err
module Faults = Sb_resil.Faults
module Rule_audit = Sb_verify.Rule_audit

type config =
  | Reference
  | Rewritten
  | Greedy
  | Paranoid
  | Chaos of int
  | Unrewritten

let config_name = function
  | Reference -> "reference"
  | Rewritten -> "rewritten"
  | Greedy -> "greedy"
  | Paranoid -> "paranoid"
  | Chaos seed -> Printf.sprintf "chaos[%d]" seed
  | Unrewritten -> "unrewritten"

let configs ~chaos_seed =
  [ Reference; Rewritten; Greedy; Paranoid; Chaos chaos_seed; Unrewritten ]

type outcome = Rows of Tuple.t list | Failed of Err.t

let fresh_db ?inject ~(ddl : string list) (config : config) : Starburst.t =
  let db = Starburst.create () in
  Sb_extensions.Outer_join.install db;
  ignore (Starburst.run_script db (String.concat ";\n" ddl));
  (match config with
  | Reference | Rewritten -> ()
  | Unrewritten ->
    (* the canonical QGM straight to the optimizer: a divergence from
       the reference is an optimizer or executor bug, not a rewrite one *)
    db.Starburst.rewrite_enabled <- false
  | Greedy ->
    db.Starburst.optimizer.Generator.sctx.Star.strategy <-
      Star.greedy_strategy
  | Paranoid -> db.Starburst.paranoid <- true
  | Chaos seed ->
    let faults = Faults.create ~seed () in
    Faults.fail_prob faults 0.05;
    Starburst.set_faults db faults);
  (match (inject, config) with
  | Some f, (Rewritten | Greedy | Paranoid | Chaos _) -> f db
  | _ -> ());
  db

let run_outcome (db : Starburst.t) (text : string) : outcome =
  match Starburst.run db text with
  | Starburst.Rows { rows; _ } -> Rows rows
  | Starburst.Affected _ | Starburst.Message _ ->
    Failed (Err.make Err.Internal "fuzz query produced a non-row result")
  | exception Starburst.Error e -> Failed e
  | exception Err.Error e -> Failed e
  | exception exn ->
    (* Corona classifies everything it sees; anything raw that still
       escapes is exactly the kind of bug the fuzzer exists to catch *)
    Failed
      (Err.make Err.Internal
         (Printf.sprintf "uncaught exception: %s" (Printexc.to_string exn)))

(* ------------------------------------------------------------------ *)
(* Result comparison                                                   *)
(* ------------------------------------------------------------------ *)

let bag_equal a b =
  match Rule_audit.compare_results ~ordered:false a b with
  | Ok () -> Ok ()
  | Error msg -> Error msg

(* multiset containment: every row of [small] present in [big] at least
   as many times *)
let bag_sub small big =
  let remaining = ref big in
  let missing =
    List.find_opt
      (fun row ->
        let rec remove = function
          | [] -> None
          | r :: rest when Tuple.equal r row -> Some rest
          | r :: rest -> (
            match remove rest with
            | Some rest' -> Some (r :: rest')
            | None -> None)
        in
        match remove !remaining with
        | Some rest -> remaining := rest; false
        | None -> true)
      small
  in
  match missing with
  | None -> Ok ()
  | Some _ -> Error "limited output contains a row absent from the unlimited output"

(* ------------------------------------------------------------------ *)
(* Metamorphic material                                                *)
(* ------------------------------------------------------------------ *)

(* literal-only candidate tautologies, restricted to the constructors
   shared by Ast.expr and Qgm.expr so the prover can vet them *)
let taut_templates : Ast.expr list =
  let i n = Ast.Lit (Value.Int n) in
  [
    Ast.Bin (Ast.Or, Ast.Bin (Ast.Lt, i 1, i 2), Ast.Bin (Ast.Ge, i 1, i 2));
    Ast.Bin (Ast.Le, i 3, i 7);
    Ast.Un (Ast.Not, Ast.Is_null (i 5));
    Ast.Bin
      ( Ast.Or,
        Ast.Is_null (Ast.Lit Value.Null),
        Ast.Bin (Ast.Eq, i 1, i 2) );
    Ast.Bin
      ( Ast.And,
        Ast.Bin (Ast.Neq, Ast.Lit (Value.String "a"), Ast.Lit (Value.String "b")),
        Ast.Bin (Ast.Gt, i 0, i (-1)) );
  ]

(* the trivial embedding: the templates above use only constructors the
   two expression types share *)
let rec qgm_of_lit_expr (e : Ast.expr) : Qgm.expr option =
  match e with
  | Ast.Lit v -> Some (Qgm.Lit v)
  | Ast.Bin (op, a, b) -> (
    match (qgm_of_lit_expr a, qgm_of_lit_expr b) with
    | Some a, Some b -> Some (Qgm.Bin (op, a, b))
    | _ -> None)
  | Ast.Un (op, a) ->
    Option.map (fun a -> Qgm.Un (op, a)) (qgm_of_lit_expr a)
  | Ast.Is_null a -> Option.map (fun a -> Qgm.Is_null a) (qgm_of_lit_expr a)
  | _ -> None

let proved_tautology (e : Ast.expr) =
  match qgm_of_lit_expr e with
  | None -> false
  | Some q -> Prover.const_truth q = Some true

(* conjoin [taut] onto the WHERE clause of the top-level select *)
let with_tautology (wq : Ast.with_query) (taut : Ast.expr) :
    Ast.with_query option =
  match wq.Ast.with_body with
  | Ast.Select s ->
    let where =
      match s.Ast.sel_where with
      | None -> taut
      | Some w -> Ast.Bin (Ast.And, w, taut)
    in
    Some
      { wq with Ast.with_body = Ast.Select { s with Ast.sel_where = Some where } }
  | Ast.Set_op _ | Ast.Values _ -> None

let strip_limit (wq : Ast.with_query) : Ast.with_query * int option =
  match wq.Ast.with_body with
  | Ast.Select ({ Ast.sel_limit = Some n; _ } as s) ->
    ( { wq with Ast.with_body = Ast.Select { s with Ast.sel_limit = None } },
      Some n )
  | _ -> (wq, None)

(* ------------------------------------------------------------------ *)
(* The oracle proper                                                   *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Pass
  | Rejected of string
  | Unsupported of string
  | Fail of { config : string; detail : string }

let lenient_vs_rows (config : config) (e : Err.t) =
  match (config, e.Err.err_stage) with
  (* chaos may exhaust its retries; a structured retryable error is the
     documented contract *)
  | Chaos _, _ when e.Err.err_retryable -> true
  (* different plans consume different resources *)
  | _, Err.Resource -> true
  | _ -> false

let check_case ?inject ~(ddl : string list) ~chaos_seed
    (query : Ast.with_query) : verdict =
  let matrix = [ Rewritten; Greedy; Paranoid; Chaos chaos_seed; Unrewritten ] in
  let core, limit = strip_limit query in
  let core_text = Gen.query_text core in
  let run config text = run_outcome (fresh_db ?inject ~ddl config) text in
  let reference =
    match Reference.run (fresh_db ~ddl Reference) core_text with
    | Reference.Rows rows -> Ok (Rows rows)
    | Reference.Failed { Err.err_stage = Err.Parse | Err.Semantic; err_msg; _ } ->
      Error (Rejected err_msg)
    | Reference.Failed e -> Ok (Failed e)
    | Reference.Unsupported msg -> Error (Unsupported msg)
  in
  match reference with
  | Error verdict -> verdict
  | Ok reference ->
    let fail config detail = Some (Fail { config = config_name config; detail }) in
    let check_config config =
      match (reference, run config core_text) with
      | Rows a, Rows b -> (
        match bag_equal a b with
        | Ok () -> None
        | Error msg -> fail config msg)
      | Failed _, Failed _ -> None
      | Failed { Err.err_stage = Err.Exec | Err.Storage | Err.Resource; _ },
        Rows _ ->
        (* the reference plan reached a runtime error another plan
           legitimately avoided (or ran out of resources) *)
        None
      | Failed e, Rows _ ->
        fail config
          (Printf.sprintf "reference failed (%s) but %s answered"
             (Err.to_string e) (config_name config))
      | Rows _, Failed e ->
        if lenient_vs_rows config e then None
        else
          fail config
            (Printf.sprintf "reference answered but %s failed: %s"
               (config_name config) (Err.to_string e))
    in
    (* the metamorphic checks run on both engine legs — the full rule
       set and the canonical QGM — and name the leg that broke *)
    let meta_fail check leg detail =
      Some (Fail { config = check; detail = config_name leg ^ ": " ^ detail })
    in
    (* metamorphic 1: LIMIT n output is a sub-bag of the unlimited
       output and respects the bound *)
    let limit_check leg =
      match (limit, reference) with
      | Some n, Rows unlimited -> (
        match run leg (Gen.query_text query) with
        | Failed e ->
          if lenient_vs_rows leg e then None
          else
            meta_fail "limit" leg
              (Printf.sprintf "limited query failed: %s" (Err.to_string e))
        | Rows limited ->
          if List.length limited > n then
            meta_fail "limit" leg
              (Printf.sprintf "LIMIT %d returned %d rows" n
                 (List.length limited))
          else (
            match bag_sub limited unlimited with
            | Ok () -> None
            | Error msg -> meta_fail "limit" leg msg))
      | _ -> None
    in
    (* metamorphic 2: a proved tautology conjoined onto WHERE must not
       change the result bag *)
    let taut =
      List.nth taut_templates (abs chaos_seed mod List.length taut_templates)
    in
    let tautology_check leg =
      match (reference, with_tautology core taut) with
      | Rows expected, Some mutated when proved_tautology taut -> (
        match run leg (Gen.query_text mutated) with
        | Failed e ->
          if lenient_vs_rows leg e then None
          else
            meta_fail "tautology" leg
              (Printf.sprintf "tautology-augmented query failed: %s"
                 (Err.to_string e))
        | Rows got -> (
          match bag_equal expected got with
          | Ok () -> None
          | Error msg ->
            meta_fail "tautology" leg ("tautology changed the result: " ^ msg)))
      | _ -> None
    in
    let checks =
      List.map (fun config () -> check_config config) matrix
      @ List.concat_map
          (fun leg -> [ (fun () -> limit_check leg); (fun () -> tautology_check leg) ])
          [ Rewritten; Unrewritten ]
    in
    let rec first_failure = function
      | [] -> Pass
      | check :: rest -> (
        match check () with Some f -> f | None -> first_failure rest)
    in
    first_failure checks
