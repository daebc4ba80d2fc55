(** The base system's rewrite-rule repertoire, grouped into the classes
    section 5 describes: operation merging (including view merging),
    predicate migration, projection push-down, subquery-to-join
    conversion, redundant-join elimination, and the magic rule for
    recursion.  The predicate and redundant-join classes are the
    verified DSL ports of {!Builtin}; the other classes are hand-written
    closures.  A DBC adds rules to these classes — or new classes — via
    {!Rule.add}. *)

module Rule = Sb_rewrite.Rule
module Err = Sb_resil.Err

(* The verdict depends on the rule alone, never on the catalog, so the
   ports are verified once, when the module initialises — not per
   database, and not through [Lazy], whose forcing is not domain-safe. *)
let verdicts = List.map (fun r -> (r, Verify.verify r)) Builtin.all

let builtin_statuses =
  List.map (fun ((r : Dsl.rule), v) -> (r.Dsl.name, v.Verify.v_status)) verdicts

(* the compiled ports of one rule class, runtime guards appended *)
let ports ~catalog cls =
  List.filter_map
    (fun ((r : Dsl.rule), (v : Verify.verdict)) ->
      if r.Dsl.rule_class <> cls then None
      else
        match v.Verify.v_status with
        | Verify.Rejected _ ->
          raise
            (Err.Error
               (Err.make Err.Internal
                  (Fmt.str "builtin rule %s rejected: %s" r.Dsl.name
                     (Verify.status_to_string v.Verify.v_status))))
        | Verify.Verified | Verify.Conditional _ ->
          Some
            (Compile.to_rule ~catalog r
               ~pattern:(r.Dsl.pattern @ v.Verify.v_guards)))
    verdicts

let default_set ~catalog : Rule.set =
  let set = Rule.empty_set () in
  Rule.add_all set Sb_rewrite.Rules_merge.rules;
  Rule.add_all set (ports ~catalog "predicate");
  Rule.add_all set Sb_rewrite.Rules_projection.rules;
  Rule.add_all set (Sb_rewrite.Rules_subquery.rules ~catalog);
  Rule.add_all set (ports ~catalog "redundant");
  Rule.add_all set Sb_rewrite.Rules_magic.rules;
  set
