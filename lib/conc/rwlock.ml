(** A named, leveled writer-preferring readers/writer lock, extracted
    from [sb_server.ml].

    Writers are preferred so a DDL stream cannot be starved by a
    steady read load: arriving readers queue behind any waiting
    writer.

    Discipline integration treats the rwlock as one leveled lock for
    ordering purposes — holding it in either mode pins its level on
    the domain's held stack, and both modes record acquisition edges.
    Concurrent readers are fine: held stacks are per domain, so many
    domains holding the read side simultaneously never trips the
    re-entrancy check (one domain read-locking twice does, as it
    can deadlock against a waiting writer sandwiched between the two
    acquisitions). *)

type t = {
  r_id : int;
  r_name : string;
  r_level : int;
  m : Mutex.t;
  c : Condition.t;
  mutable readers : int;
  mutable writer : bool;
  mutable waiting_writers : int;
}

let create ~name ~level =
  {
    r_id = Discipline.fresh_lock_id ();
    r_name = name;
    r_level = level;
    m = Mutex.create ();
    c = Condition.create ();
    readers = 0;
    writer = false;
    waiting_writers = 0;
  }

let name t = t.r_name
let level t = t.r_level

(** [(readers, writer, waiting_writers)] — a racy snapshot for tests
    and diagnostics. *)
let stats t =
  Mutex.lock t.m;
  let s = (t.readers, t.writer, t.waiting_writers) in
  Mutex.unlock t.m;
  s

let rd_lock t =
  if Discipline.armed () then
    Discipline.acquiring ~id:t.r_id ~name:t.r_name ~level:t.r_level;
  Mutex.lock t.m;
  while t.writer || t.waiting_writers > 0 do
    Condition.wait t.c t.m
  done;
  t.readers <- t.readers + 1;
  Mutex.unlock t.m

let rd_unlock t =
  if Discipline.armed () then Discipline.released ~id:t.r_id ~name:t.r_name;
  Mutex.lock t.m;
  t.readers <- t.readers - 1;
  if t.readers = 0 then Condition.broadcast t.c;
  Mutex.unlock t.m

let wr_lock t =
  if Discipline.armed () then
    Discipline.acquiring ~id:t.r_id ~name:t.r_name ~level:t.r_level;
  Mutex.lock t.m;
  t.waiting_writers <- t.waiting_writers + 1;
  while t.writer || t.readers > 0 do
    Condition.wait t.c t.m
  done;
  t.waiting_writers <- t.waiting_writers - 1;
  t.writer <- true;
  Mutex.unlock t.m

let wr_unlock t =
  if Discipline.armed () then Discipline.released ~id:t.r_id ~name:t.r_name;
  Mutex.lock t.m;
  t.writer <- false;
  Condition.broadcast t.c;
  Mutex.unlock t.m

let with_read t f =
  rd_lock t;
  Fun.protect ~finally:(fun () -> rd_unlock t) f

let with_write t f =
  wr_lock t;
  Fun.protect ~finally:(fun () -> wr_unlock t) f
