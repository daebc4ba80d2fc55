(** Bloom-join: the distributed filtration method of [MACK86], added —
    as the paper claims is possible — "simply by adding a new LOLEPOP"
    plus one STAR alternative.

    When the inner table lives at a different site, the base plans
    either ship the whole inner to the outer's site, or ship the outer
    to the inner's site and then deliver the join's answer back to the
    query site.  The Bloom alternative instead ships the outer's join
    keys to the inner's site, reduces the inner with a Bloom filter
    there, and ships only the (probably-)matching rows; the hash join
    above re-verifies, so false positives cost bandwidth, never
    correctness.  It wins when the keys plus the surviving inner rows
    are fewer than the rows the base plans ship: for example when the
    outer repeats its keys, so the answer outgrows the survivors.

    The survivors are estimated as [d_outer / d_inner] of the inner,
    from the distinct counts of the outer key and of the inner key's
    base column. *)

module Plan = Sb_optimizer.Plan
module Cost = Sb_optimizer.Cost
module Star = Sb_optimizer.Star
open Sb_storage

(** Base-table statistics of the column an inner slot carries.  The
    payload's [pl_info] covers only the outer's slots, so the inner slot
    is resolved through the base-table access that produces it. *)
let inner_info (ctx : Star.ctx) (inner : Plan.plan) : Cost.slot_info =
 fun slot ->
  if slot < 0 || slot >= Array.length inner.Plan.props.Plan.p_slots then None
  else
    let q, c = inner.Plan.props.Plan.p_slots.(slot) in
    let rec base_table (p : Plan.plan) =
      match p.Plan.op, p.Plan.props.Plan.p_quants with
      | ( ( Plan.Scan { sc_table = name; _ }
          | Plan.Idx_access { ix_table = name; _ }
          | Plan.Idx_and { ia_table = name; _ } ),
          [ q' ] )
        when q' = q ->
        Some name
      | _ -> List.find_map base_table p.Plan.inputs
    in
    if c < 0 then None
    else
      Option.bind (base_table inner) (fun name ->
          Option.map
            (fun tab -> (tab.Table_store.stats, c))
            (Catalog.find_table ctx.Star.catalog name))

let bloom_alternative : Star.alternative =
  {
    Star.alt_name = "bloom-reduced-inner";
    alt_rank = 2;
    alt_cond =
      (fun _ pl ->
        match pl.Star.pl_outer, pl.Star.pl_inner with
        | Some outer, Some inner ->
          pl.Star.pl_kind = Plan.J_regular
          && pl.Star.pl_corr = []
          && (match pl.Star.pl_equi with [ _ ] -> true | _ -> false)
          && outer.Plan.props.Plan.p_site <> inner.Plan.props.Plan.p_site
        | _ -> false);
    alt_produce =
      (fun ctx pl ->
        let outer = Option.get pl.Star.pl_outer in
        let inner = Option.get pl.Star.pl_inner in
        let okey, ikey = List.hd pl.Star.pl_equi in
        let outer_card = outer.Plan.props.Plan.p_card in
        (* ship the outer's keys to the inner's site (they are small),
           reduce the inner there, ship back only survivors.  The keys'
           TEMP charges only for holding the outer's rows: the join above
           already pays for producing the outer. *)
        let keys =
          let temp = Cost.mk_temp outer in
          Cost.mk_project [ Plan.RCol okey ]
            { temp with
              Plan.props =
                { temp.Plan.props with
                  Plan.p_cost = temp.Plan.props.Plan.p_cost -. outer.Plan.props.Plan.p_cost } }
        in
        let keys_at_inner = Cost.mk_ship inner.Plan.props.Plan.p_site keys in
        (* an inner row survives when its key is among the outer's:
           d_outer / d_inner of them, for a key the inner's statistics
           describe; otherwise assume no reduction *)
        let sel =
          match Cost.slot_distinct (inner_info ctx inner) ikey with
          | Some d_inner ->
            let d_outer =
              Option.value ~default:outer_card
                (Cost.slot_distinct pl.Star.pl_info okey)
            in
            Float.min 1.0 (Float.min d_outer outer_card /. Float.max 1.0 d_inner)
          | None -> 1.0
        in
        let reduced =
          Cost.mk_bloom ~subject_key:ikey ~source_key:0 ~sel inner keys_at_inner
        in
        let shipped = Cost.mk_ship outer.Plan.props.Plan.p_site reduced in
        [
          Cost.mk_join ~method_:Plan.Hash_join ~kind:Plan.J_regular
            ~equi:pl.Star.pl_equi ~pred:pl.Star.pl_pred ~kind_pred:None
            ~corr:[]
            ~sel:
              (Cost.join_selectivity ~outer_info:pl.Star.pl_info
                 ~inner_info:Cost.no_info ~equi:pl.Star.pl_equi
                 ~pred:pl.Star.pl_pred ~info_joined:pl.Star.pl_info)
            outer shipped;
        ]);
  }

(** Registers the Bloom-join alternative on the JoinRoot STAR. *)
let install (db : Starburst.t) =
  Starburst.Extension.register_star db "JoinRoot" [ bloom_alternative ]
