(* The benchmark's command line:
     sb_bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                  [--trace-out FILE] *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 30 and trace = ref 0 in
  let trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME oltp, adhoc or analytic");
      ("--seed", Arg.Set_int seed, "N seed of the data and statement stream (default 42)");
      ("--seconds", Arg.Set_int seconds, "S length of the timed window (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 1 runs the traced replay for per-layer metrics");
      ( "--trace-out",
        Arg.Set_string trace_out,
        "FILE where --trace 1 writes its spans (default \
         .bench_out/trace-WORKLOAD-SEED.json)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sb_bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "sb_bench: --trace takes 0 or 1";
    exit 2
  end;
  let trace_out () =
    if !trace_out <> "" then !trace_out
    else begin
      if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
      Printf.sprintf ".bench_out/trace-%s-%d.json" !workload !seed
    end
  in
  exit
    (Sb_benchlib.Runner.main ~workload:!workload ~seed:!seed ~seconds:!seconds
       ~trace:(!trace = 1) ~trace_out)
