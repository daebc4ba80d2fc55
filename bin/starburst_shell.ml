(** The Starburst interactive shell and script runner.

    {v
    starburst_shell                 # interactive REPL
    starburst_shell script.sql      # run a script
    starburst_shell -e "SELECT 1"   # one statement   (not valid: needs FROM)
    v}

    The bundled extensions ({!Sb_extensions.Bundled}: outer join,
    spatial, sampling, MAJORITY, statistics aggregates) are installed
    unless [--bare] is given, as [starburst-server] installs them.

    Every statement runs through an embedded {!Sb_server}, on the
    shell's own domain.  Meta-commands ([\stats], [\rules], [\limits],
    [\metrics], [\trace], [\check], [\infer], [\cache], [\sessions],
    [\wal], [\locks]) are answered by {!Sb_server.meta}, the same table
    [starburst-server] serves; [\q] quits.  [--connect HOST:PORT] talks
    to a running [starburst-server] over its line protocol instead. *)

(* the commands Sb_server.meta answers, for both banners *)
let meta_help =
  "\\stats \\rules \\limits \\metrics \\trace \\check \\infer \\cache \\sessions \\wal \\locks"

let run_one server session text =
  match Sb_server.submit server session text with
  | Ok r ->
    print_endline
      (Starburst.render_result
         ~registry:(Sb_server.catalog server).Sb_storage.Catalog.datatypes r)
  | Error e -> Printf.printf "error: %s\n" (Starburst.Err.to_string e)

let run_script server session text =
  try
    List.iter
      (fun stmt ->
        run_one server session (Sb_hydrogen.Pretty.statement_to_string stmt))
      (Sb_hydrogen.Parser.script text)
  with
  | Sb_hydrogen.Parser.Parse_error (msg, _) -> Printf.printf "parse error: %s\n" msg
  | Sb_hydrogen.Lexer.Lex_error (msg, _) -> Printf.printf "lex error: %s\n" msg

let repl server session =
  Printf.printf "Starburst shell — end statements with ';', %s, \\q to quit.\n"
    meta_help;
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "starburst> " else "       ...> ");
    match read_line () with
    | exception End_of_file -> ()
    | "\\q" | "\\quit" -> ()
    | line when Buffer.length buf = 0 && String.length line > 0 && line.[0] = '\\' ->
      (match Sb_server.meta server session line with
      | Some "" | None -> ()
      | Some text -> print_endline text);
      loop ()
    | line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n';
      if String.contains line ';' then begin
        let text = Buffer.contents buf in
        Buffer.clear buf;
        run_script server session text
      end;
      loop ()
  in
  loop ()

(* --- remote mode: line-protocol client for starburst-server --- *)

let connect_repl host port =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  let inp = Unix.in_channel_of_descr fd in
  let out = Unix.out_channel_of_descr fd in
  Printf.printf "connected to %s:%d — end statements with ';', %s, \\q to quit.\n"
    host port meta_help;
  let read_response () =
    let rec go () =
      match input_line inp with
      | "." -> ()
      | line ->
        print_endline line;
        go ()
    in
    go ()
  in
  (try
     let quit = ref false in
     while not !quit do
       print_string "starburst> ";
       match read_line () with
       | exception End_of_file -> quit := true
       | "\\q" | "\\quit" ->
         output_string out "\\quit\n";
         flush out;
         quit := true
       | line ->
         output_string out line;
         output_char out '\n';
         flush out;
         let trimmed = String.trim line in
         (* the server replies to complete statements and meta-commands *)
         if
           (String.length trimmed > 0 && trimmed.[0] = '\\')
           || (String.length trimmed > 0
              && trimmed.[String.length trimmed - 1] = ';')
         then read_response ()
     done
   with End_of_file | Sys_error _ -> print_endline "server closed the connection");
  try Unix.close fd with Unix.Unix_error _ -> ()

let () =
  (* STARBURST_LOCKCHECK=1 arms the lock-discipline checker for the
     whole process; \locks renders what it has seen *)
  Sb_conc.Discipline.arm_from_env ();
  let args = Array.to_list Sys.argv |> List.tl in
  let bare = List.mem "--bare" args in
  let args = List.filter (fun a -> a <> "--bare") args in
  (* --connect HOST:PORT — remote line-protocol client *)
  let rec find_connect = function
    | "--connect" :: target :: _ -> Some target
    | _ :: rest -> find_connect rest
    | [] -> None
  in
  match find_connect args with
  | Some target -> (
    match String.split_on_char ':' target with
    | [ host; port ] -> (
      match int_of_string_opt port with
      | Some port -> connect_repl host port
      | None ->
        prerr_endline "usage: starburst_shell --connect HOST:PORT";
        exit 2)
    | _ ->
      prerr_endline "usage: starburst_shell --connect HOST:PORT";
      exit 2)
  | None ->
    let server =
      Sb_server.create
        ~install:(if bare then fun _ -> () else Sb_extensions.Bundled.install)
        ()
    in
    let session = Sb_server.session server in
    (match args with
    | [] -> repl server session
    | [ "-e"; stmt ] -> run_one server session stmt
    | [ path ] ->
      let ic = open_in path in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      run_script server session text
    | _ ->
      prerr_endline
        "usage: starburst_shell [--bare] [--connect HOST:PORT] [script.sql | -e STATEMENT]";
      exit 2);
    Sb_server.shutdown server
