(** The metrics registry: named counters and log-scale latency
    histograms with a Prometheus-style text dump.

    Counters and histograms are created on demand (get-or-create by
    name and optional label), so independent subsystems share one
    registry and one output path. *)

type counter
type histogram
type t

(** An empty registry; every histogram has 32 buckets. *)
val create : unit -> t

(** Get-or-create a counter, registering it at 0 so the dump lists it
    before anything is added.  [label] renders as [name{key="value"}]. *)
val counter : ?label:string * string -> t -> string -> counter

(** Adds every [(name, label, n)] with [n > 0], get-or-creating each
    counter, under one lock acquisition — the one way to count. *)
val add_counters : t -> (string * (string * string) option * int) list -> unit

(** Sets a counter to an absolute value — for mirroring an externally
    maintained monotone count (e.g. the lock-discipline counters). *)
val set : counter -> int -> unit

val counter_value : counter -> int

(** Get-or-create a log-scale (base 2) histogram, for reading. *)
val histogram : ?label:string * string -> t -> string -> histogram

(** Get-or-create the histogram and record one observation, under one
    lock acquisition — the one way to observe. *)
val observe_named : ?label:string * string -> t -> string -> float -> unit

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

(** Counts per bucket, paired with each bucket's inclusive upper bound
    (the last is [infinity]). *)
val histogram_buckets : histogram -> (float * int) list

(** Bucket index an observation falls into (exposed for tests). *)
val bucket_index : histogram -> float -> int

(** Resets all values; registered metrics remain. *)
val clear : t -> unit

(** Prometheus text exposition: counters as plain samples, histograms
    as cumulative [_bucket{le=...}] series plus [_sum]/[_count]. *)
val dump : t -> string
