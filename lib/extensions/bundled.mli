(** The extension set both front ends install: outer join, spatial,
    sampling, MAJORITY and the statistics aggregates.  [starburst_shell]
    (unless [--bare]) and [starburst_server] pass {!install} to
    {!Sb_server.create}, so a statement means the same in either. *)

val install : Starburst.t -> unit
