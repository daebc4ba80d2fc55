(** A named, leveled mutex.

    [Lock.t] is the only sanctioned way to own a [Mutex.t] outside
    [lib/conc] (the CI lint enforces this).  Disarmed it costs one
    atomic read per operation over the bare mutex; armed, every
    acquisition and release flows through {!Discipline}, which checks
    level ordering, re-entrancy and unlock-without-lock, and records
    the acquisition edge for cycle analysis.

    The discipline check runs {e before} [Mutex.lock]: a re-entrant
    acquisition in strict mode raises {!Discipline.Violation} instead
    of self-deadlocking on OCaml's non-reentrant mutex. *)

type t = {
  l_id : int;
  l_name : string;
  l_level : int;
  l_mutex : Mutex.t;
}

let create ~name ~level =
  {
    l_id = Discipline.fresh_lock_id ();
    l_name = name;
    l_level = level;
    l_mutex = Mutex.create ();
  }

let id t = t.l_id
let name t = t.l_name
let level t = t.l_level

let lock t =
  if Discipline.armed () then
    Discipline.acquiring ~id:t.l_id ~name:t.l_name ~level:t.l_level;
  Mutex.lock t.l_mutex

(* [Discipline.released] runs first: unlocking an unheld [Mutex.t]
   raises [Sys_error] before we could diagnose it. *)
let unlock t =
  if Discipline.armed () then Discipline.released ~id:t.l_id ~name:t.l_name;
  Mutex.unlock t.l_mutex

let with_lock t f =
  lock t;
  Fun.protect ~finally:(fun () -> unlock t) f

(** Condition variables bound to a {!Lock.t}.  [wait] tells the
    discipline checker the lock is released for the duration of the
    wait and re-acquired on wakeup, mirroring what [Condition.wait]
    does to the underlying mutex. *)
module Cond = struct
  type cond = Condition.t

  let create () = Condition.create ()

  let wait c t =
    if Discipline.armed () then Discipline.released ~id:t.l_id ~name:t.l_name;
    Condition.wait c t.l_mutex;
    if Discipline.armed () then
      Discipline.acquiring ~id:t.l_id ~name:t.l_name ~level:t.l_level

  let signal = Condition.signal
  let broadcast = Condition.broadcast
end
