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
    compiled from the declarative DSL (and so carrying a verification
    status the audit trail can attribute). *)
type origin = Native | Dsl

type t = {
  rule_name : string;
  rule_class : string;
  rule_priority : int;  (** higher fires first under the Priority strategy *)
  rule_origin : origin;
  condition : context -> bool;
  action : context -> unit;
}

let make ?(priority = 0) ?(origin = Native) ~name ~rule_class ~condition
    ~action () =
  {
    rule_name = name;
    rule_class;
    rule_priority = priority;
    rule_origin = origin;
    condition;
    action;
  }

let origin_tag r = match r.rule_origin with Native -> "" | Dsl -> " [dsl]"

(* atomics: concurrent rewrites count without a lock *)
type counts = { fires : int Atomic.t; attempts : int Atomic.t }

(** A rule set with class-based filtering and per-rule counts. *)
type set = { mutable rules : t list; counts : (string, counts) Hashtbl.t }

let empty_set () = { rules = []; counts = Hashtbl.create 16 }

let add set rule =
  set.rules <- set.rules @ [ rule ];
  if not (Hashtbl.mem set.counts rule.rule_name) then
    Hashtbl.replace set.counts rule.rule_name
      { fires = Atomic.make 0; attempts = Atomic.make 0 }

let record set ~firings ~attempts =
  let bump field (name, n) =
    match Hashtbl.find_opt set.counts name with
    | Some c -> ignore (Atomic.fetch_and_add (field c) n : int)
    | None -> ()
  in
  List.iter (bump (fun c -> c.attempts)) attempts;
  List.iter (bump (fun c -> c.fires)) firings

let counts set =
  Hashtbl.fold
    (fun name c acc -> (name, (Atomic.get c.fires, Atomic.get c.attempts)) :: acc)
    set.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let add_all set rules = List.iter (add set) rules

let classes set =
  List.map (fun r -> r.rule_class) set.rules |> List.sort_uniq String.compare

let in_classes set names =
  List.filter (fun r -> List.mem r.rule_class names) set.rules

let all set = set.rules
