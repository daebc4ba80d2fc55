(** The core's speed, sampled with a probe: a fixed integer loop that
    touches no memory, timed.

    On a shared host the core's speed swings by up to 1.6x in phases
    that last seconds (other tenants on the same physical core, clock
    changes), and every timing of a run moves by the same factor: across
    runs, the probe's speed and the workload's throughput correlate at
    0.9.  So the timed window is cut into slices with a probe at each
    boundary, and the timing metrics are taken over the slices that ran
    at the run's fast speed.  The program's own slowness cannot hide
    here: the probe shares no code or data with it. *)

let loop_ns () =
  let t0 = Monotonic_clock.now () in
  let acc = ref 0 in
  for i = 1 to 20_000 do
    acc := !acc + ((i * i) land 255)
  done;
  ignore (Sys.opaque_identity !acc);
  Int64.sub (Monotonic_clock.now ()) t0

(** Median time of nine runs of the loop, in ns (about 20 µs each). *)
let probe () =
  let a = Array.init 9 (fun _ -> loop_ns ()) in
  Array.sort Int64.compare a;
  a.(4)

(** [f ()] tagged with the mean probe time at its two ends. *)
let tagged f =
  let before = probe () in
  let v = f () in
  (Int64.div (Int64.add before (probe ())) 2L, v)

(** A piece of work is kept when its probe time is within this factor
    of the run's fast speed. *)
let tolerance = 1.2

(** The run's fast speed: the 10th percentile of the probe times. *)
let fast (tagged : (int64 * 'a) list) =
  match List.sort Int64.compare (List.map fst tagged) with
  | [] -> 0L
  | sorted -> List.nth sorted (List.length sorted / 10)

(** The tagged pieces of work that ran within {!tolerance} of the run's
    {!fast} speed. *)
let at_speed (tagged : (int64 * 'a) list) : 'a list =
  let limit = Int64.of_float (Int64.to_float (fast tagged) *. tolerance) in
  List.filter_map (fun (p, x) -> if p <= limit then Some x else None) tagged
