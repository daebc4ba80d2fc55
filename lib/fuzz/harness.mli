(** The fuzzing driver: generate → check → shrink → persist.

    A run is a pure function of [(seed, n)] (plus the optional broken-
    rule [inject], used by the acceptance tests): the report text, the
    shrunk repros, and their file contents are byte-for-byte identical
    across invocations.  Nothing here reads the clock or an ambient
    PRNG. *)

module Metrics = Sb_obs.Metrics

type stats = {
  st_seed : int;
  st_cases : int;
  st_passed : int;  (** every oracle configuration agreed *)
  st_rejected : int;
      (** the reference refused the query (generator imperfection) *)
  st_unsupported : int;
      (** the reference does not interpret the query's QGM (not checked) *)
  st_failures : Repro.t list;  (** shrunk discrepancies, in case order *)
  st_shrink_steps : int;  (** committed reductions across all failures *)
}

(** [run ~seed ~n ()] fuzzes [n] cases from [seed].  Each case draws a
    fresh catalog, a query over it, and a chaos fault seed from split
    streams, so case [i] is unaffected by how much randomness case
    [i-1] consumed.  Every generated query is additionally round-trip
    checked ([Parser.query_text (Pretty...) = q]) before it reaches the
    oracle.  Failures are shrunk and, when [out_dir] is given, written
    there as [.sbf] repros.  Counters land in [metrics] as
    [sb_fuzz_cases_total], [sb_fuzz_rejected_total],
    [sb_fuzz_discrepancies_total] and [sb_fuzz_shrink_steps_total].
    [log] receives one line per failure as it is found. *)
val run :
  ?inject:(Starburst.t -> unit) ->
  ?metrics:Metrics.t ->
  ?out_dir:string ->
  ?log:(string -> unit) ->
  seed:int ->
  n:int ->
  unit ->
  stats

(** Deterministic multi-line summary (no timestamps, no durations). *)
val report : stats -> string

(** Reads and replays one [.sbf] file. *)
val replay_file : string -> Oracle.verdict

(** Replays every [.sbf] under [dir] in sorted filename order. *)
val replay_dir : string -> (string * Oracle.verdict) list
