(* The benchmark executable: runs one workload for a fixed time and prints the
   result line.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 runs workload W and prints the end-to-end metrics, the same
   names for every workload.  --trace 1 runs the traced passes of all three
   workloads, so that every per-layer metric is printed whatever W is; W's
   own pass also measures the trace overhead.  It writes the span file
   .bench_out/trace-W-seedN.json.  Run from the repository root (the
   exact-opt pins are read from perfbench/pins/). *)

open Perfbench

let workloads = [ "exact-opt"; "mc-sample"; "serve-zipf" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (exact-opt|mc-sample|serve-zipf) --seed N --seconds S --trace 0|1";
  exit 2

(* Set-up probe: process start and module init up to the first operation,
   i.e. build the workload's inputs and exit. *)
let probe workload seed =
  match workload with
  | "exact-opt" ->
    ignore (Sys.opaque_identity (W_exact.load_pins (), W_exact.shuffle ~seed W_exact.sweep))
  | "mc-sample" -> ignore (Sys.opaque_identity (W_mc.instances (), Rng.create ~seed))
  | _ -> usage ()

(* Median wall time of [reps] probe processes. *)
let process_setup_s ~workload ~seed ~reps =
  let times =
    Array.init reps (fun _ ->
        let t0 = Trace.now_mono_s () in
        let pid =
          Unix.create_process Sys.executable_name
            [| Sys.executable_name; "--probe"; workload; "--seed"; string_of_int seed |]
            Unix.stdin Unix.stdout Unix.stderr
        in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "set-up probe failed");
        Trace.now_mono_s () -. t0)
  in
  Report.log "setup: %s" (Summary.to_string ~unit:" s" (Summary.of_samples times));
  Summary.median times

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let probe_w = ref "" and client = ref 0 and rate = ref 0. and duration = ref 0.
  and inflight = ref 1 and out = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "W workload");
      ("--seed", Arg.Set_int seed, "N input seed"); ("--seconds", Arg.Set_int seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 traced run"); ("--probe", Arg.Set_string probe_w, "W set-up probe");
      ("--client", Arg.Set_int client, "PORT load-generator mode (serve-zipf)");
      ("--rate", Arg.Set_float rate, "R offered rate, client mode");
      ("--duration", Arg.Set_float duration, "D schedule length, client mode");
      ("--inflight", Arg.Set_int inflight, "K connection cap, client mode");
      ("--out", Arg.Set_string out, "FILE outcomes file, client mode") ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> usage ()) "bench.exe"
   with Arg.Bad _ | Arg.Help _ -> usage ());
  if !probe_w <> "" then (
    probe !probe_w !seed;
    exit 0);
  if !client > 0 then (
    W_serve.client_main ~port:!client ~seed:!seed ~rate:!rate ~duration:!duration
      ~inflight:!inflight ~out:!out;
    exit 0);
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then usage ();
  let nproc = Domain.recommended_domain_count () in
  let rep = Report.create () in
  let seconds = float_of_int !seconds and seed = !seed in
  let traced = !trace = 1 in
  if traced then Spans.set_enabled true;
  (match (!workload, traced) with
  | "exact-opt", false ->
    let setup = process_setup_s ~workload:"exact-opt" ~seed ~reps:41 in
    W_exact.run rep ~seed ~seconds;
    Report.metric rep "setup_s" ~unit:"s" setup
  | "mc-sample", false ->
    let setup = process_setup_s ~workload:"mc-sample" ~seed ~reps:41 in
    W_mc.run rep ~seed ~seconds ~nproc;
    Report.metric rep "setup_s" ~unit:"s" setup
  | "serve-zipf", false -> W_serve.run rep ~seed ~seconds ~nproc
  | w, true ->
    (* serve last: its server switches on the library's own metrics and
       tracing, which the other passes must not pay for *)
    W_exact.run_traced rep ~seed ~overhead:(w = "exact-opt");
    W_mc.run_traced rep ~seed ~nproc ~overhead:(w = "mc-sample");
    W_serve.run_traced rep ~seed ~nproc ~overhead:(w = "serve-zipf")
      ~seconds:(if w = "serve-zipf" then seconds else Float.min seconds 15.)
  | _ -> usage ());
  if traced then begin
    let spans = Spans.spans () in
    (try Unix.mkdir W_serve.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat W_serve.out_dir (Printf.sprintf "trace-%s-seed%d.json" !workload seed) in
    Spans.write_chrome path spans;
    Report.check rep (Spans.check_nesting spans = Ok ()) "spans nest inside their parents";
    Report.log "trace: %d spans written to %s; self time by span:" (List.length spans) path;
    List.iter
      (fun (name, self, total, n) ->
        Report.log "  %-36s self %10.6f s  total %10.6f s  n=%d" name self total n)
      (Spans.self_time_by_name spans)
  end
  else Report.metric rep "peak_rss_mb" ~unit:"MB" (Report.peak_rss_mb ());
  print_endline (Report.to_json rep)
