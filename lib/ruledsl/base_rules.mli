(** The base system's rewrite-rule repertoire, grouped into the classes
    section 5 describes.  The predicate and redundant-join classes are
    the verified DSL ports of {!Builtin}; merge, projection, subquery and
    magic are hand-written closures.  A DBC adds rules to these classes —
    or new classes — via {!Sb_rewrite.Rule.add}. *)

(** The verifier's verdict on each {!Builtin} port, by name, in
    registration order.  Computed once per process. *)
val builtin_statuses : (string * Verify.status) list

(** A fresh rule set in registration order: merge, predicate,
    projection, subquery, redundant, magic.  Raises
    {!Sb_resil.Err.Error} ([Internal]) if the verifier rejected a
    builtin. *)
val default_set : catalog:Sb_storage.Catalog.t -> Sb_rewrite.Rule.set
