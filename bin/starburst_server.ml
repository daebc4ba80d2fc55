(* starburst-server: a line-protocol TCP front end over Sb_server.
   One connection = one session.  Statements are terminated by a line
   ending in ';' (or a lone ';'); each response is the rendered result
   followed by a line containing a single '.'.  A line starting with a
   backslash is a meta-command, answered by Sb_server.meta — the same
   table the shell uses (\stats is the connection's own session,
   \sessions lists sessions and the admission counters, \metrics dumps
   the database's one registry) — except \quit, which closes the
   connection.  Every session has the bundled extensions
   (Sb_extensions.Bundled), as the shell's do.  Each connection is a
   thread of one domain and runs its own statements: Sb_server.submit
   executes on the caller.

   With --wal-file the stable log persists across restarts: the server
   loads it on boot, runs crash recovery when it holds records, and
   saves it after every flush/checkpoint — so kill -9 loses nothing
   that was committed.  A file it cannot load or recover from (one
   without an SBWAL3 header, or a directory, say) stops the boot with the structured
   error and exit code 1, and stays as it was.  SIGINT/SIGTERM shut
   down gracefully: stop accepting connections, drain in-flight
   statements, force the log, exit 0. *)

module Server = Sb_server
module Corona = Starburst.Corona
module Err = Sb_resil.Err
module Wal = Sb_storage.Wal

let send out lines =
  List.iter
    (fun l ->
      output_string out l;
      output_char out '\n')
    lines;
  output_string out ".\n";
  flush out

let handle_connection server fd =
  let inp = Unix.in_channel_of_descr fd in
  let out = Unix.out_channel_of_descr fd in
  let session = Server.session server in
  let buf = Buffer.create 256 in
  let registry = (Server.catalog server).Sb_storage.Catalog.datatypes in
  let run_statement text =
    match Server.submit server session text with
    | Ok result ->
      send out (String.split_on_char '\n' (Corona.render_result ~registry result))
    | Error e -> send out [ "error: " ^ Err.to_string e ]
  in
  (try
     let quit = ref false in
     while not !quit do
       let line = input_line inp in
       let trimmed = String.trim line in
       if Buffer.length buf = 0 && trimmed = "\\quit" then quit := true
       else
         match
           if Buffer.length buf = 0 then Server.meta server session line
           else None
         with
         | Some "" -> send out []
         | Some text -> send out (String.split_on_char '\n' text)
         | None ->
           Buffer.add_string buf line;
           Buffer.add_char buf '\n';
           if String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = ';'
           then begin
             let text = Buffer.contents buf in
             Buffer.clear buf;
             if String.trim text <> ";" then run_statement text
             else send out []
           end
     done
   with End_of_file | Sys_error _ -> ());
  Server.close_session server session;
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* wait (bounded) for in-flight statements to finish before exiting *)
let drain_inflight server =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    let st = Server.stats server in
    if st.Server.st_inflight > 0 && Unix.gettimeofday () < deadline then begin
      ignore (Unix.select [] [] [] 0.05);
      wait ()
    end
  in
  wait ()

let serve ~host ~port ~once ~wal_file =
  let server = Server.create ~install:Sb_extensions.Bundled.install () in
  (* durable log: load + recover on boot, save after every flush *)
  (match wal_file with
  | None -> ()
  | Some path ->
    let wal = Server.wal server in
    (* no sink is set yet, so a refused file is never overwritten *)
    (try
       if Sys.file_exists path then begin
         let n = Wal.load_file wal path in
         if n > 0 then begin
           let st = Server.recover server in
           Fmt.pr
             "recovered from %s: %d records (%d truncated), %d committed txns, \
              %d redone, %d ddl%s@."
             path n st.Sb_storage.Recovery.r_truncated
             st.Sb_storage.Recovery.r_commits st.Sb_storage.Recovery.r_redone
             st.Sb_storage.Recovery.r_ddl
             (if st.Sb_storage.Recovery.r_from_checkpoint then ", from checkpoint"
              else "")
         end
       end
     with Err.Error e | Corona.Error e ->
       Fmt.epr "starburst-server: %s@." (Err.to_string e);
       exit 1);
    Wal.set_sink wal (Some (fun () -> Wal.save_file wal path)));
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen sock 64;
  let actual_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  Fmt.pr "starburst-server listening on %s:%d@." host actual_port;
  if once then begin
    (* single-connection mode, used by tests and scripted clients *)
    let fd, _ = Unix.accept sock in
    handle_connection server fd;
    Unix.close sock;
    Server.flush_wal server;
    Server.shutdown server
  end
  else begin
    (* graceful shutdown: SIGINT/SIGTERM stop the accept loop; in-flight
       statements drain, the log is forced, and we exit 0 *)
    let stop = ref false in
    let request_stop _ = stop := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    while not !stop do
      match Unix.select [ sock ] [] [] 0.2 with
      | [ _ ], _, _ ->
        let fd, _ = Unix.accept sock in
        ignore (Thread.create (fun () -> handle_connection server fd) ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Fmt.pr "shutting down: draining in-flight statements@.";
    Unix.close sock;
    drain_inflight server;
    Server.flush_wal server;
    (match wal_file with
    | Some path -> Wal.save_file (Server.wal server) path
    | None -> ());
    Server.shutdown server;
    Fmt.pr "bye@."
  end

open Cmdliner

let host =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Address to bind.")

let port =
  Arg.(value & opt int 5447 & info [ "port"; "p" ] ~doc:"TCP port (0 = ephemeral).")

let once =
  Arg.(
    value & flag
    & info [ "once" ] ~doc:"Serve a single connection, then exit (for tests).")

let wal_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal-file" ]
        ~doc:
          "Persist the write-ahead log to $(docv): load and recover on boot, \
           save after every flush."
        ~docv:"FILE")

let cmd =
  let doc = "line-protocol TCP front end for Starburst" in
  Cmd.v
    (Cmd.info "starburst-server" ~doc)
    Term.(
      const (fun host port once wal_file -> serve ~host ~port ~once ~wal_file)
      $ host $ port $ once $ wal_file)

let () = exit (Cmd.eval cmd)
