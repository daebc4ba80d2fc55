(** Rewrite rules (section 5).

    A rule is a condition and an action — in the paper both are C
    functions; here both are OCaml closures over a {!context}.  The rule
    writer's contract is that the action "completes a transformation":
    it turns a consistent QGM into another consistent QGM (the engine
    can verify this after every firing).

    Rules are grouped into {e rule classes} "to limit the number of
    rules that have to be examined, to allow modularization ... and to
    give the DBC more explicit control over the execution sequence". *)

module Qgm = Sb_qgm.Qgm

type context = {
  graph : Qgm.t;
  box : Qgm.box;  (** the box the search facility is currently visiting *)
}

(** Where a rule's condition/action came from: hand-written OCaml, or
    compiled from the declarative DSL. *)
type origin = Native | Dsl

type t = {
  rule_name : string;
  rule_class : string;
  rule_priority : int;  (** higher fires first under the Priority strategy *)
  rule_origin : origin;
  condition : context -> bool;
  action : context -> unit;
}

val make :
  ?priority:int ->
  ?origin:origin ->
  name:string ->
  rule_class:string ->
  condition:(context -> bool) ->
  action:(context -> unit) ->
  unit ->
  t

(** [" [dsl]"] for DSL-compiled rules, [""] for native ones — appended
    to rule names in audit messages and reports. *)
val origin_tag : t -> string

(** How often a rule fired and had its condition tested. *)
type counts = { fires : int Atomic.t; attempts : int Atomic.t }

(** A mutable rule set with class-based filtering and per-rule counts.
    Only {!add} writes the counts table; {!record} is lock-free. *)
type set = { mutable rules : t list; counts : (string, counts) Hashtbl.t }

val empty_set : unit -> set
val add : set -> t -> unit
val add_all : set -> t list -> unit

(** Adds one rewrite's per-rule [(name, n)] firings and attempts. *)
val record :
  set -> firings:(string * int) list -> attempts:(string * int) list -> unit

(** Every rule's [(name, (fires, attempts))], sorted by name. *)
val counts : set -> (string * (int * int)) list

(** Distinct class names, sorted. *)
val classes : set -> string list

(** The rules belonging to the named classes, in registration order. *)
val in_classes : set -> string list -> t list

val all : set -> t list
