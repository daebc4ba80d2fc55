(** Bloom-join [MACK86], added — as section 6 claims is possible —
    through one new LOLEPOP plus one STAR alternative: when the inner
    table is at a different site, ship the outer's join keys there,
    reduce the inner with a Bloom filter, and ship only survivors; the
    hash join above re-verifies, so false positives cost bandwidth,
    never correctness.  The survivors are estimated from the distinct
    counts of the two join keys, so the alternative wins by cost only
    where it ships less than the base plans, which pay to deliver their
    answer to the query site. *)

val install : Starburst.t -> unit

val bloom_alternative : Sb_optimizer.Star.alternative
