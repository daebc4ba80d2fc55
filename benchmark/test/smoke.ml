(* Smoke test of the benchmark: every workload at tiny counts,
   through the same library the command uses.  It checks that

   - every metric BENCHMARK.json declares is emitted, with its unit, and
     every answer of the tiny runs is right;
   - a seed gives a byte-identical statement stream, and another seed a
     different one;
   - a wrong expected answer makes the run fail. *)

open Sb_benchlib

let tiny make ~seed () =
  { (make ~seed) with Workload.setup_runs = 1; warmup = 6; replay = 12 }

let fail fmt = Printf.ksprintf failwith fmt

(* the [{"name": ..., "unit": ...}] entries of one section of
   BENCHMARK.json, in order *)
let declared section =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  let start = Str.search_forward (Str.regexp_string (Printf.sprintf "%S" section)) text 0 in
  let stop = try String.index_from text start ']' with Not_found -> String.length text in
  let entry = Str.regexp {|"name": *"\([^"]*\)", *"unit": *"\([^"]*\)"|} in
  let rec go pos acc =
    match Str.search_forward entry text pos with
    | i when i < stop -> go (Str.match_end ()) ((Str.matched_group 1 text, Str.matched_group 2 text) :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  go start []

let check_emitted ~what declared (ms : Runner.metric list) =
  if declared = [] then fail "%s: BENCHMARK.json declares no metrics" what;
  List.iter
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Runner.metric) -> m.Runner.name = name) ms with
      | None -> fail "%s: metric %s not emitted" what name
      | Some m when m.Runner.unit_ <> unit_ ->
        fail "%s: metric %s emitted in %s, declared in %s" what name m.Runner.unit_ unit_
      | Some _ -> ())
    declared

let check_passed ~what (v : Runner.verdict) =
  if v.Runner.failed > 0 then
    fail "%s: %d of %d checks failed: %s" what v.Runner.failed v.Runner.attempted
      (String.concat "; " v.Runner.problems)

let stream make ~seed =
  let w : Workload.t = make ~seed in
  String.concat "\n"
    (List.init 200 (fun _ ->
         let st = w.Workload.next () in
         String.concat " "
           (st.Workload.text
           :: List.map
                (fun (n, v) -> n ^ "=" ^ Sb_storage.Value.to_string v)
                st.Workload.hosts)))

let () =
  let end_to_end = declared "end_to_end" and per_layer = declared "per_layer" in
  List.iter
    (fun (name, make) ->
      let v, ms = Runner.untraced ~make:(tiny make ~seed:1) ~seconds:0 in
      check_passed ~what:name v;
      check_emitted ~what:name end_to_end ms;
      if stream make ~seed:7 <> stream make ~seed:7 then
        fail "%s: one seed gave two statement streams" name;
      if stream make ~seed:7 = stream make ~seed:8 then
        fail "%s: two seeds gave the same statement stream" name)
    Runner.workloads;
  (* the traced replay, on the two workloads that set up quickly *)
  List.iter
    (fun make ->
      let v, ms = Runner.traced ~make:(tiny make ~seed:1) ~trace_out:"smoke-trace.json" in
      check_passed ~what:"traced" v;
      check_emitted ~what:"traced" per_layer ms)
    [ Oltp.make; Adhoc.make ];
  (* a wrong expected answer must fail the run *)
  let tampered () =
    let w = tiny Adhoc.make ~seed:1 () in
    let drawn = ref 0 in
    {
      w with
      Workload.next =
        (fun () ->
          incr drawn;
          let st = w.Workload.next () in
          if !drawn = 3 then { st with Workload.expected = (fun () -> Answer.affected 42) }
          else st);
    }
  in
  let v, _ = Runner.untraced ~make:tampered ~seconds:0 in
  if v.Runner.failed <> 1 then
    fail "tampered run: expected exactly 1 failed check, got %d" v.Runner.failed;
  print_endline "benchmark smoke test: ok"
