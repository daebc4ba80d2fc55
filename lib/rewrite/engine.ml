(** The rule engine (section 5): forward chaining over IF-THEN rules,
    with pluggable control strategies, a firing budget that always stops
    in a consistent QGM state, and a search facility that browses QGM
    providing each rule's context.

    Control strategies:
    - {e Sequential} — rules are tried in registration order;
    - {e Priority}   — higher-priority rules get a chance first;
    - {e Statistical} — the next rule is chosen randomly from a
      user-supplied probability distribution (seeded, deterministic).

    Search strategies: depth-first (top down) and breadth-first over the
    box graph. *)

module Qgm = Sb_qgm.Qgm
module Check = Sb_qgm.Check

type strategy =
  | Sequential
  | Priority
  | Statistical of { weights : (string * float) list; seed : int }

type search = Depth_first | Breadth_first

type stats = {
  mutable rules_fired : int;
  mutable rules_examined : int;
  mutable passes : int;
  mutable budget_exhausted : bool;
  mutable firings : (string * int) list;  (** per-rule firing counts *)
  mutable attempts : (string * int) list;  (** per-rule condition tests *)
}

let fresh_stats () =
  {
    rules_fired = 0;
    rules_examined = 0;
    passes = 0;
    budget_exhausted = false;
    firings = [];
    attempts = [];
  }

let record_firing stats name =
  let count = Option.value ~default:0 (List.assoc_opt name stats.firings) in
  stats.firings <- (name, count + 1) :: List.remove_assoc name stats.firings

(** Per-rule [(name, fires, attempts)] rows, most-fired first. *)
let per_rule stats =
  let names =
    List.sort_uniq String.compare
      (List.map fst stats.firings @ List.map fst stats.attempts)
  in
  List.map
    (fun name ->
      ( name,
        Option.value ~default:0 (List.assoc_opt name stats.firings),
        Option.value ~default:0 (List.assoc_opt name stats.attempts) ))
    names
  |> List.sort (fun (an, af, _) (bn, bf, _) ->
         match Int.compare bf af with 0 -> String.compare an bn | c -> c)

exception Budget_exhausted

(** Boxes in search order.  Depth-first visits a box before the boxes
    its quantifiers range over (top down); breadth-first visits level by
    level.  Cycles (recursive queries) are visited once. *)
let boxes_in_order (g : Qgm.t) = function
  | Depth_first -> Qgm.reachable_boxes g
  | Breadth_first ->
    let seen = Hashtbl.create 16 in
    let order = ref [] in
    let queue = Queue.create () in
    Queue.add g.Qgm.top queue;
    Hashtbl.replace seen g.Qgm.top ();
    while not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      let b = Qgm.box g id in
      order := b :: !order;
      List.iter
        (fun q ->
          if not (Hashtbl.mem seen q.Qgm.q_input) then begin
            Hashtbl.replace seen q.Qgm.q_input ();
            Queue.add q.Qgm.q_input queue
          end)
        b.Qgm.b_quants
    done;
    List.rev !order

(* order rules according to the strategy; Statistical re-shuffles per call *)
let order_rules strategy (rng : Random.State.t option) (rules : Rule.t list) =
  match strategy with
  | Sequential -> rules
  | Priority ->
    List.stable_sort
      (fun a b -> Int.compare b.Rule.rule_priority a.Rule.rule_priority)
      rules
  | Statistical { weights; _ } ->
    let rng = Option.get rng in
    (* weighted random order: sample without replacement *)
    let weight r =
      match List.assoc_opt r.Rule.rule_name weights with
      | Some w when w > 0.0 -> w
      | _ -> 1.0
    in
    let rec draw acc remaining =
      match remaining with
      | [] -> List.rev acc
      | _ ->
        let total = List.fold_left (fun s r -> s +. weight r) 0.0 remaining in
        let x = Random.State.float rng total in
        let rec pick acc_w = function
          | [ r ] -> r
          | r :: rest ->
            let acc_w = acc_w +. weight r in
            if x < acc_w then r else pick acc_w rest
          | [] -> assert false
        in
        let chosen = pick 0.0 remaining in
        draw (chosen :: acc)
          (List.filter (fun r -> r.Rule.rule_name <> chosen.Rule.rule_name) remaining)
    in
    draw [] rules

(** Runs [rules] on [g] to fixpoint (no rule's condition holds anywhere)
    or until [budget] rule firings have happened.  When the budget runs
    out, processing "stops at a consistent state of QGM": the engine
    never interrupts an action.  [check_each] re-verifies QGM
    consistency after every firing (used by tests and by DBCs debugging
    new rules).

    Returns engine statistics. *)
let run ?(strategy = Sequential) ?(search = Depth_first) ?budget
    ?(check_each = false) ?(tracer = Sb_obs.Trace.noop) ~(rules : Rule.t list)
    (g : Qgm.t) : stats =
  let stats = fresh_stats () in
  (* condition tests are counted in a table, once per rule and box, and
     become [stats.attempts] when the run ends *)
  let attempts : (string, int ref) Hashtbl.t = Hashtbl.create 32 in
  let attempt name =
    match Hashtbl.find_opt attempts name with
    | Some n -> incr n
    | None -> Hashtbl.add attempts name (ref 1)
  in
  match budget with
  | Some b when b <= 0 ->
    (* a zero budget cannot fire anything: return before examining any
       box (and before garbage collection), leaving the QGM untouched *)
    stats.budget_exhausted <- true;
    stats
  | _ ->
  let rng =
    match strategy with
    | Statistical { seed; _ } -> Some (Random.State.make [| seed |])
    | Sequential | Priority -> None
  in
  let fire rule ctx =
    (match budget with
    | Some b when stats.rules_fired >= b ->
      stats.budget_exhausted <- true;
      raise Budget_exhausted
    | _ -> ());
    if Sb_obs.Trace.enabled tracer then
      Sb_obs.Trace.with_span tracer "rewrite.fire"
        ~attrs:
          [
            ("rule", rule.Rule.rule_name);
            ( "budget_remaining",
              match budget with
              | Some b -> string_of_int (b - stats.rules_fired)
              | None -> "inf" );
            ("boxes_before", string_of_int (Hashtbl.length g.Qgm.boxes));
          ]
        (fun () ->
          rule.Rule.action ctx;
          Sb_obs.Trace.add_attr tracer "boxes_after"
            (string_of_int (Hashtbl.length g.Qgm.boxes)))
    else rule.Rule.action ctx;
    stats.rules_fired <- stats.rules_fired + 1;
    record_firing stats rule.Rule.rule_name;
    Logs.debug (fun m -> m "rewrite: fired %s on box %d" rule.Rule.rule_name ctx.Rule.box.Qgm.b_id);
    if check_each then begin
      match Check.check g with
      | [] -> ()
      | errs ->
        Qgm.error "rule %s left QGM inconsistent: %s" rule.Rule.rule_name
          (String.concat "; " errs)
    end
  in
  (try
     let progress = ref true in
     while !progress do
       progress := false;
       stats.passes <- stats.passes + 1;
       let boxes = boxes_in_order g search in
       List.iter
         (fun (b : Qgm.box) ->
           (* a box may have been disconnected by an earlier rule in
              this pass *)
           if Hashtbl.mem g.Qgm.boxes b.Qgm.b_id then begin
             let ctx = { Rule.graph = g; box = b } in
             let ordered = order_rules strategy rng rules in
             List.iter
               (fun rule ->
                 stats.rules_examined <- stats.rules_examined + 1;
                 attempt rule.Rule.rule_name;
                 if
                   Hashtbl.mem g.Qgm.boxes b.Qgm.b_id
                   && rule.Rule.condition ctx
                 then begin
                   fire rule ctx;
                   progress := true
                 end)
               ordered
           end)
         boxes
     done
   with Budget_exhausted -> ());
  stats.attempts <- Hashtbl.fold (fun name n acc -> (name, !n) :: acc) attempts [];
  Qgm.garbage_collect g;
  stats
