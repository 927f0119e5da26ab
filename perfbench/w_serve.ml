(* serve-zipf: an in-process Serve.start with the disk tier on and an LRU
   smaller than the key space, driven by the open-loop load generator over
   real loopback HTTP.  Part of the key space is written to the disk tier
   before timing starts, so LRU hits, disk hits and cold solves (each
   followed by a fsynced Cache_store.put) happen side by side.

   The untraced run offers the nominal rate only, and its medians are the
   gated figures.  The traced run climbs a fixed ladder of offered rates:
   the ladder gives the highest rate that meets the p99 limit without a
   growing backlog, and that rung (the top sustainable rate) gives the
   goodput. *)

open Perfbench

(* ---------------------------- key space ---------------------------- *)

(* Request classes: name, share of traffic, keys, Zipf exponent, and the
   request body of each key.  The class shares are fixed, so every seed
   sends the same mix of solver work.  The two "fresh" classes draw from a
   million keys uniformly, so almost each of their requests is a cold solve
   and a durable cache write however warm the cache is; the other classes
   are Zipf-popular and mostly served from the LRU or the disk tier. *)
type cls = { name : string; share : float; keys : int; zipf : float; body : int -> string }

let fresh_keys = 1_000_000

let classes =
  let table keys f =
    let a = Array.init keys f in
    fun k -> a.(k)
  in
  let f2 k step base = Printf.sprintf "%.2f" (base +. (step *. float_of_int k)) in
  let zipf name share keys body = { name; share; keys; zipf = 1.1; body = table keys body } in
  [| zipf "threshold.exact" 0.28 360 (fun k ->
         Printf.sprintf {|{"rule":"threshold","n":%d,"params":%s}|} (3 + (k / 60)) (f2 (k mod 60) 0.01 0.30));
     zipf "oblivious.exact" 0.22 360 (fun k ->
         Printf.sprintf {|{"rule":"oblivious","n":%d,"params":%s}|} (3 + (k / 60)) (f2 (k mod 60) 0.01 0.20));
     zipf "threshold.grid" 0.14 80 (fun k ->
         Printf.sprintf {|{"rule":"threshold","n":%d,"params":%s,"mode":"grid","points":8}|} (2 + (k / 40))
           (f2 (k mod 40) 0.01 0.40));
     zipf "oblivious.grid" 0.06 80 (fun k ->
         Printf.sprintf {|{"rule":"oblivious","n":%d,"params":%s,"mode":"grid","points":8}|} (2 + (k / 40))
           (f2 (k mod 40) 0.01 0.40));
     zipf "threshold.mc" 0.14 256 (fun k ->
         Printf.sprintf {|{"rule":"threshold","n":%d,"params":%s,"mode":"mc","samples":20000,"seed":%d}|}
           (3 + (k / 64)) (f2 (k mod 16) 0.02 0.50) (1 + (k / 16 mod 4)));
     zipf "oblivious.mc" 0.10 128 (fun k ->
         Printf.sprintf {|{"rule":"oblivious","n":%d,"params":%s,"mode":"mc","samples":20000,"seed":%d}|}
           (3 + (k / 32)) (f2 (k mod 16) 0.02 0.50) (1 + (k / 16 mod 2)));
     zipf "opt.exact" 0.02 12 (fun k ->
         let n = 3 + (k / 3) in
         let a, b = [| (1, 4); (1, 3); (1, 2) |].(k mod 3) in
         Printf.sprintf {|{"rule":"opt","n":%d,"delta":"%d/%d"}|} n (n * a) b);
     { name = "threshold.exact.fresh"; share = 0.02; keys = fresh_keys; zipf = 0.;
       body = (fun k ->
         Printf.sprintf {|{"rule":"threshold","n":%d,"params":%.7f}|} (3 + (k mod 6))
           (0.3 +. (0.6 *. float_of_int k /. float_of_int fresh_keys))) };
     { name = "threshold.mc.fresh"; share = 0.02; keys = fresh_keys; zipf = 0.;
       body = (fun k ->
         Printf.sprintf {|{"rule":"threshold","n":%d,"params":%.4f,"mode":"mc","samples":20000,"seed":%d}|}
           (3 + (k mod 4)) (0.5 +. (0.3 *. float_of_int (k mod 1000) /. 1000.)) (100 + k)) } |]

let offsets =
  let o = Array.make (Array.length classes) 0 in
  for c = 1 to Array.length classes - 1 do
    o.(c) <- o.(c - 1) + classes.(c - 1).keys
  done;
  o

let class_index key =
  let c = ref 0 in
  Array.iteri (fun i off -> if key >= off then c := i) offsets;
  !c

let body key =
  let c = class_index key in
  classes.(c).body (key - offsets.(c))

(* Every key of the Zipf classes, and the first 200 of each fresh class. *)
let sample_keys =
  Array.concat
    (Array.to_list
       (Array.mapi
          (fun c cls -> Array.init (if cls.zipf > 0. then cls.keys else 200) (fun k -> offsets.(c) + k))
          classes))

let solve_class (r : Solver.req) =
  Solver.rule_to_string r.rule ^ match r.mode with Solver.Exact -> ".exact" | Grid _ -> ".grid" | Mc _ -> ".mc"

let solve_classes =
  [ "threshold.exact"; "oblivious.exact"; "threshold.grid"; "oblivious.grid"; "threshold.mc";
    "oblivious.mc"; "opt.exact" ]

let lru_cap = 128

let schedule ~seed ~rate ~duration =
  Loadgen.schedule ~seed ~rate ~duration ~classes:(Array.map (fun c -> (c.share, c.keys, c.zipf)) classes)

(* ----------------------------- oracle ------------------------------ *)

let solve_body body =
  match Solver.parse body with
  | Ok r -> Solver.solve ~deadline_mono_s:(Trace.now_mono_s () +. 600.) r
  | Error e -> failwith ("serve-zipf: bad generated body: " ^ e)

let expected = Hashtbl.create 1024

let expected_p key =
  match Hashtbl.find_opt expected key with
  | Some p -> p
  | None ->
    let p = (solve_body (body key)).Solver.p in
    Hashtbl.replace expected key p;
    p

(* ---------------------------- the server --------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let config ~nproc ~dir =
  {
    Serve.default_config with
    Serve.workers = max 1 (nproc - 1);
    lru_cap;
    cache_dir = Some dir;
    default_budget_ms = 5000;
  }

let start_server cfg =
  match Serve.start cfg with Ok t -> t | Error e -> failwith ("serve-zipf: Serve.start: " ^ e)

(* Write every key of the Zipf classes into a fresh store, in a seeded
   order.  The fresh classes stay out, so the share of cold solves is the
   same from the first request to the last, and no run's tail is set by a
   handful of cold certified optima early on.  Returns the per-put
   durations. *)
let prefill ~seed ~dir =
  let store, _ = Cache_store.open_store ~dir in
  let st = Random.State.make [| 0xF111; seed |] in
  let keys =
    List.concat
      (List.mapi
         (fun c cls -> if cls.zipf > 0. then List.init cls.keys (fun k -> offsets.(c) + k) else [])
         (Array.to_list classes))
  in
  let order = List.map (fun k -> (Random.State.bits st, k)) keys |> List.sort compare |> List.map snd in
  Array.of_list
    (List.map
       (fun k ->
         let answer = solve_body (body k) in
         Hashtbl.replace expected k answer.Solver.p;
         let r = Result.get_ok (Solver.parse (body k)) in
         let t0 = Trace.now_mono_s () in
         Cache_store.put store ~key:(Solver.cache_key r) (Solver.answer_to_json answer);
         Trace.now_mono_s () -. t0)
       order)

(* Serve.start (which opens and recovers the disk tier), timed [reps]
   times; every start but the last is stopped again. *)
let timed_starts cfg ~reps =
  let times = Array.make reps 0. in
  let server = ref None in
  for k = 0 to reps - 1 do
    let t0 = Trace.now_mono_s () in
    let t = start_server cfg in
    times.(k) <- Trace.now_mono_s () -. t0;
    if k < reps - 1 then Serve.stop t else server := Some t
  done;
  (Option.get !server, times)

(* ------------------------------ ladder ----------------------------- *)

let limit_ms = 100.
let ladder = [| 500.; 1000.; 2000.; 4000.; 8000. |]
let nominal = 0

(* Shares of the load time: a warm-up at the nominal rate (checked, not
   measured), then the rungs; on the ladder the nominal rung gets the
   most. *)
let warmup_share = 0.12
let rung_share k = if k = nominal then 0.52 else 0.36 /. float_of_int (Array.length ladder - 1)

(* The nominal rung's latency figures are medians over this many
   consecutive windows, so one burst of machine noise moves one window's
   figure, not the run's. *)
let windows = 5

type rung = { rate : float; duration : float; t0 : float; outcomes : Loadgen.outcome array }

let latency_ms (o : Loadgen.outcome) = (o.finished -. o.due) *. 1000.

let source (o : Loadgen.outcome) =
  match Jsonx.parse o.body with
  | Ok j -> (
    match Jsonx.string_member "source" j with
    | Some "lru" -> "hit_lru"
    | Some "disk" -> "hit_disk"
    | Some "solver" -> "cold"
    | Some s -> s
    | None -> "none")
  | Error _ -> "unparsable"

(* The load generator runs in a process of its own (this executable in
   client mode), so its allocation and scheduling do not stop the server's
   domains for garbage collection: the server process holds only what
   `ddm serve` would.  It writes its outcomes to [out]. *)
let client_main ~port ~seed ~rate ~duration ~inflight ~out =
  let items = schedule ~seed ~rate ~duration in
  let t0 = Trace.now_mono_s () +. 0.01 in
  let outcomes = Loadgen.run ~port ~max_inflight:inflight ~body ~t0 items in
  let oc = open_out_bin out in
  Printf.fprintf oc "%h\n" t0;
  Array.iter (fun o -> output_string oc (Loadgen.outcome_to_line o)) outcomes;
  close_out oc

let out_dir = ".bench_out"

let run_rung ~seed ~port ~nproc ~rate duration =
  let out = Filename.concat out_dir (Printf.sprintf "client-%d.txt" (Unix.getpid ())) in
  let args =
    [| Sys.executable_name; "--client"; string_of_int port; "--seed"; string_of_int seed;
       "--rate"; Printf.sprintf "%h" rate; "--duration"; Printf.sprintf "%h" duration;
       "--inflight"; string_of_int nproc; "--out"; out |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "serve-zipf: load generator failed");
  let ic = open_in_bin out in
  let t0 = Scanf.sscanf (input_line ic) "%h" Fun.id in
  let rec read acc =
    match input_line ic with
    | line -> read (Loadgen.outcome_of_line line :: acc)
    | exception End_of_file -> Array.of_list (List.rev acc)
  in
  let outcomes = read [] in
  close_in ic;
  Sys.remove out;
  { rate; duration; t0; outcomes }

let run_ladder ~seed ~port ~nproc ~load_s =
  let warm = run_rung ~seed:(seed + 999) ~port ~nproc ~rate:ladder.(nominal) (load_s *. warmup_share) in
  let rungs =
    Array.mapi
      (fun k rate -> run_rung ~seed:(seed + (1000 * k)) ~port ~nproc ~rate (load_s *. rung_share k))
      ladder
  in
  (warm, rungs)

(* p99 within the limit, and no growing backlog: fewer than 1% of the
   rung's requests were still unanswered a limit's length after the
   schedule ended. *)
let rung_ok r =
  let lat = Array.map latency_ms r.outcomes in
  let ok200 = Array.for_all (fun (o : Loadgen.outcome) -> o.status = 200) r.outcomes in
  let end_s = r.t0 +. r.duration +. (limit_ms /. 1000.) in
  let late = Array.fold_left (fun acc (o : Loadgen.outcome) -> if o.finished > end_s then acc + 1 else acc) 0 r.outcomes in
  ok200
  && Summary.quantile lat 0.99 <= limit_ms
  && float_of_int late <= 0.01 *. float_of_int (Array.length r.outcomes)

let check_outcomes rep rungs =
  Array.iter
    (fun r ->
      Array.iter
        (fun (o : Loadgen.outcome) ->
          if o.status <> 200 then
            Report.check rep false
              (Printf.sprintf "serve %s: status %d %s" (body o.key) o.status o.body)
          else
            match Option.bind (Result.to_option (Jsonx.parse o.body)) (Jsonx.float_member "p") with
            | None -> Report.check rep false (Printf.sprintf "serve %s: no p in %s" (body o.key) o.body)
            | Some p ->
              let want = expected_p o.key in
              Report.check rep (p = want)
                (Printf.sprintf "serve %s: p = %.17g, in-process solve gives %.17g" (body o.key) p want))
        r.outcomes)
    rungs

let stats_json ~port =
  match Loadgen.get ~port ~path:"/stats" with
  | Ok (200, body) -> Jsonx.parse_exn body
  | Ok (s, _) -> failwith (Printf.sprintf "serve-zipf: /stats answered %d" s)
  | Error e -> failwith ("serve-zipf: /stats: " ^ e)

let path_num j path =
  List.fold_left (fun acc k -> Option.bind acc (Jsonx.member k)) (Some j) path
  |> Fun.flip Option.bind Jsonx.to_float_opt
  |> Option.value ~default:Float.nan

(* The client sent at least as many /eval requests as the server answered;
   the gap (requests lost in transport) is reported. *)
let reconcile rep ~port rungs =
  let sent = Array.fold_left (fun acc r -> acc + Array.length r.outcomes) 0 rungs in
  let server = int_of_float (path_num (stats_json ~port) [ "latency"; "total"; "count" ]) in
  Report.log "serve-zipf: client sent %d /eval requests, server answered %d (gap %d)" sent server
    (sent - server);
  Report.check rep (sent >= server)
    (Printf.sprintf "serve: server answered %d requests, more than the %d sent" server sent)

(* Prefill the disk tier, then time [Serve.start] (with its disk-tier
   recovery) several times; the last server started keeps running. *)
let setup_phase ~seed ~seconds ~nproc =
  Metrics.set_enabled true;
  Trace.set_enabled true;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat out_dir (Printf.sprintf "serve-cache-%d" (Unix.getpid ())) in
  rm_rf dir;
  let puts = prefill ~seed ~dir in
  let cfg = config ~nproc ~dir in
  let server, setup = timed_starts cfg ~reps:25 in
  Report.log "  setup: %s" (Summary.to_string ~unit:" s" (Summary.of_samples setup));
  let load_s = Float.max 2. (seconds *. 0.8) in
  (server, setup, puts, dir, load_s)

(* Index of the highest rung that meets the limit, if any. *)
let top_ok rungs =
  let best = ref None in
  Array.iteri (fun k r -> if rung_ok r then best := Some k) rungs;
  !best

let lat_of pred r =
  Array.of_list
    (List.filter_map (fun o -> if pred o then Some (latency_ms o) else None) (Array.to_list r.outcomes))

let is_hit o =
  let s = source o in
  s = "hit_lru" || s = "hit_disk"

(* [f] applied to each window of the nominal rung, median over the
   windows; [f] gets the latencies of the window's outcomes that satisfy a
   predicate. *)
let per_window nom f =
  let window w (o : Loadgen.outcome) =
    let x = (o.due -. nom.t0) /. nom.duration in
    x >= float_of_int w /. float_of_int windows && x < float_of_int (w + 1) /. float_of_int windows
  in
  Summary.median (Array.init windows (fun w -> f (fun pred -> lat_of (fun o -> window w o && pred o) nom)))

(* Median latency of all requests and of cache hits on the nominal rung. *)
let nominal_p50s nom =
  Report.log "  nominal %g/s: %d requests, %s" nom.rate (Array.length nom.outcomes)
    (Summary.to_string ~unit:" ms" (Summary.of_samples (Array.map latency_ms nom.outcomes)));
  Report.log "  nominal: hits %s" (Summary.to_string ~unit:" ms" (Summary.of_samples (lat_of is_hit nom)));
  ( per_window nom (fun sel -> Summary.median (sel (fun _ -> true))),
    per_window nom (fun sel -> Summary.median (sel is_hit)) )

(* The ladder's tail and capacity figures.  The p99 is the nominal rung's,
   a median over its windows; cold latency pools every rung up to the top
   sustainable one, to give p99 as many samples beyond it as the run has.
   These ride on the cold path, whose durable write fsyncs twice; on a host
   with shared storage they spread too much from run to run to gate a
   change (see README.md), so only the traced run reports them. *)
let report_ladder rep rungs =
  let top = top_ok rungs in
  let cold =
    Array.concat
      (List.filteri
         (fun k _ -> match top with Some t -> k <= t | None -> k = nominal)
         (Array.to_list (Array.map (lat_of (fun o -> source o = "cold")) rungs)))
  in
  let goodput =
    match top with
    | None -> 0.
    | Some k ->
      let r = rungs.(k) in
      let good =
        Array.fold_left
          (fun acc (o : Loadgen.outcome) ->
            if o.status = 200 && latency_ms o <= limit_ms then acc + 1 else acc)
          0 r.outcomes
      in
      float_of_int good /. r.duration
  in
  Array.iter
    (fun r ->
      Report.log "  rung %5.0f/s: %5d requests, %s, %s" r.rate (Array.length r.outcomes)
        (Summary.to_string ~unit:" ms" (Summary.of_samples (Array.map latency_ms r.outcomes)))
        (if rung_ok r then "meets the limit" else "misses the limit"))
    rungs;
  Report.log "  sustainable rungs: cold %s" (Summary.to_string ~unit:" ms" (Summary.of_samples cold));
  Report.metric rep "serve_p99_ms" ~unit:"ms"
    (per_window rungs.(nominal) (fun sel -> Summary.quantile (sel (fun _ -> true)) 0.99));
  Report.metric rep "serve_cold_p99_ms" ~unit:"ms" (Summary.quantile cold 0.99);
  Report.metric rep "serve_goodput_rps" ~unit:"1/s" goodput;
  Report.metric rep "serve_max_rate_rps" ~unit:"1/s" (match top with Some k -> ladder.(k) | None -> 0.)

(* The untraced run offers only the nominal rate: a warm-up, then one long
   nominal rung, whose medians are the gated figures. *)
let run rep ~seed ~seconds ~nproc =
  let server, setup, _, dir, load_s = setup_phase ~seed ~seconds ~nproc in
  let port = Serve.port server and rate = ladder.(nominal) in
  let warm = run_rung ~seed:(seed + 999) ~port ~nproc ~rate (load_s *. warmup_share) in
  let nom = run_rung ~seed ~port ~nproc ~rate (load_s *. (1. -. warmup_share)) in
  check_outcomes rep [| warm; nom |];
  reconcile rep ~port [| warm; nom |];
  Serve.stop server;
  rm_rf dir;
  let p50, hit_p50 = nominal_p50s nom in
  Report.metric rep "main_ms" ~unit:"ms" p50;
  Report.metric rep "aux_ms" ~unit:"ms" hit_p50;
  Report.metric rep "setup_s" ~unit:"s" (Summary.median setup)

(* ------------------------------ traced ------------------------------ *)

(* Median microseconds per call of [f] over [xs], [reps] passes. *)
let per_call_us ~name ~reps xs f =
  let pass () =
    let t0 = Trace.now_mono_s () in
    Spans.with_span name (fun () -> Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs);
    (Trace.now_mono_s () -. t0) *. 1e6 /. float_of_int (Array.length xs)
  in
  Summary.median (Array.init reps (fun _ -> pass ()))

(* Served requests as spans: the request from its due time, with the
   generator's lateness and the server's part as children. *)
let record_rung_spans r =
  let start = Array.fold_left (fun acc (o : Loadgen.outcome) -> Float.min acc o.due) infinity r.outcomes
  and stop = Array.fold_left (fun acc (o : Loadgen.outcome) -> Float.max acc o.finished) 0. r.outcomes in
  let parent = Spans.record_id ~name:(Printf.sprintf "serve.rung.%g" r.rate) ~start ~stop () in
  Array.iter
    (fun (o : Loadgen.outcome) ->
      let rid = o.idx in
      let id =
        Spans.record_id ~parent ~rid ~name:("serve.request." ^ source o) ~start:o.due ~stop:o.finished ()
      in
      Spans.record ~parent:id ~rid ~name:"loadgen.late" ~start:o.due ~stop:o.sent ();
      Spans.record ~parent:id ~rid ~name:"serve.response" ~start:o.sent ~stop:o.finished ())
    r.outcomes

(* [~overhead:true] also offers the nominal rate again without the /stats
   poller and reports the trace overhead. *)
let run_traced rep ~seed ~seconds ~nproc ~overhead =
  (* stats poller: /stats every 50 ms while the ladder runs *)
  let stop = Atomic.make false and depth_max = Atomic.make 0 in
  let server, _, puts, dir, load_s = setup_phase ~seed ~seconds ~nproc in
  let port = Serve.port server in
  let poller =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let d = int_of_float (path_num (stats_json ~port) [ "queue"; "depth" ]) in
          if d > Atomic.get depth_max then Atomic.set depth_max d;
          Unix.sleepf 0.05
        done)
  in
  let warm, rungs =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join poller)
      (fun () -> run_ladder ~seed ~port ~nproc ~load_s)
  in
  check_outcomes rep (Array.append [| warm |] rungs);
  reconcile rep ~port (Array.append [| warm |] rungs);
  let p50, _ = nominal_p50s rungs.(nominal) in
  (* trace overhead: the ladder's nominal p50, recorded with the /stats
     poller running, against the same rate again without it *)
  if overhead then begin
    let r =
      run_rung ~seed:(seed + 77) ~port:port ~nproc ~rate:ladder.(nominal)
        (load_s *. rung_share nominal /. 2.)
    in
    check_outcomes rep [| r |];
    Report.metric rep "trace.overhead_frac" ~unit:"ratio"
      ((p50 /. Summary.median (Array.map latency_ms r.outcomes)) -. 1.)
  end;
  Array.iter record_rung_spans rungs;
  let healthz =
    Array.init 200 (fun _ ->
        let t0 = Trace.now_mono_s () in
        let ok =
          match Loadgen.get ~port:port ~path:"/healthz" with
          | Ok (200, _) -> true
          | _ -> false
        in
        Report.check rep ok "serve: /healthz failed";
        (Trace.now_mono_s () -. t0) *. 1000.)
  in
  let stats = stats_json ~port:port in
  Serve.stop server;
  (* layer costs, on the workload's own keys *)
  let keys = sample_keys in
  let bodies = Array.map body keys in
  let reqs = Array.map (fun b -> Result.get_ok (Solver.parse b)) bodies in
  let cache_keys = Array.map Solver.cache_key reqs in
  let answers_json =
    Array.map (fun k -> Solver.answer_to_json { Solver.p = expected_p k; detail = [] }) keys
  in
  let bodies_out = Array.map Jsonx.to_string answers_json in
  let store, _ = Cache_store.open_store ~dir:dir in
  let opens =
    Array.init 5 (fun _ ->
        let t0 = Trace.now_mono_s () in
        ignore (Spans.with_span "cache_store.open" (fun () -> Cache_store.open_store ~dir:dir));
        Trace.now_mono_s () -. t0)
  in
  let lru = Lru.create ~cap:lru_cap in
  let sched = schedule ~seed ~rate:1000. ~duration:2. in
  let sched_keys = Array.map (fun (it : Loadgen.item) -> body it.key) sched in
  let lru_put_ns = per_call_us ~name:"lru.put" ~reps:5 sched_keys (fun k -> Lru.put lru k 0.) *. 1000. in
  let lru_find_ns = per_call_us ~name:"lru.find" ~reps:5 sched_keys (fun k -> Lru.find lru k) *. 1000. in
  let per_class = Hashtbl.create 8 in
  Array.iteri
    (fun i (r : Solver.req) ->
      if i mod 7 = 0 || r.rule = Solver.Opt then begin
        let name = solve_class r in
        let t0 = Trace.now_mono_s () in
        ignore
          (Spans.with_span ("solver.solve." ^ name) (fun () ->
               Solver.solve ~deadline_mono_s:(t0 +. 600.) r));
        Hashtbl.add per_class name ((Trace.now_mono_s () -. t0) *. 1000.)
      end)
    reqs;
  let thr_params =
    Array.of_list
      (List.filter_map
         (fun (r : Solver.req) ->
           match (r.rule, r.mode) with
           | Solver.Threshold, Solver.Exact -> Some (Rat.to_float r.delta, r.params)
           | _ -> None)
         (Array.to_list reqs))
  in
  let thr_us =
    per_call_us ~name:"threshold.exact" ~reps:5 thr_params (fun (delta, params) ->
        Threshold.winning_probability ~delta params)
  in
  let grid_cells_per_s =
    let n = 3 and points = 12 in
    let t0 = Trace.now_mono_s () in
    Spans.with_span "engine.grid" (fun () ->
        for k = 0 to 9 do
          ignore
            (Engine.win_probability_grid ~points ~delta:1. (Comm_pattern.none ~n)
               (Dist_protocol.common_threshold ~n (0.5 +. (0.01 *. float k))))
        done);
    float_of_int (10 * int_of_float (float points ** float n)) /. (Trace.now_mono_s () -. t0)
  in
  let find_us =
    per_call_us ~name:"cache_store.find" ~reps:3 cache_keys (fun k -> Cache_store.find store k)
  in
  rm_rf dir;
  (* lateness on the sustainable rungs; past capacity the connection cap,
     not the generator, holds requests back *)
  let late =
    Array.concat
      (List.filteri
         (fun k _ -> match top_ok rungs with Some t -> k <= t | None -> k = nominal)
         (Array.to_list
            (Array.map
               (fun r -> Array.map (fun (o : Loadgen.outcome) -> (o.sent -. o.due) *. 1000.) r.outcomes)
               rungs)))
  in
  let num path = path_num stats path in
  Report.metric rep "httpd.healthz_p50_ms" ~unit:"ms" (Summary.median healthz);
  Report.metric rep "jsonx.parse_us" ~unit:"us" (per_call_us ~name:"jsonx.parse" ~reps:5 bodies_out Jsonx.parse);
  Report.metric rep "jsonx.to_string_us" ~unit:"us"
    (per_call_us ~name:"jsonx.to_string" ~reps:5 answers_json Jsonx.to_string);
  Report.metric rep "lru.find_ns" ~unit:"ns" lru_find_ns;
  Report.metric rep "lru.put_ns" ~unit:"ns" lru_put_ns;
  Report.metric rep "cache_store.find_us" ~unit:"us" find_us;
  Report.metric rep "solver.parse_us" ~unit:"us" (per_call_us ~name:"solver.parse" ~reps:5 bodies Solver.parse);
  Report.metric rep "solver.cache_key_us" ~unit:"us"
    (per_call_us ~name:"solver.cache_key" ~reps:5 reqs Solver.cache_key);
  List.iter
    (fun name ->
      Report.metric rep ("solver.solve_ms." ^ name) ~unit:"ms"
        (Summary.median (Array.of_list (Hashtbl.find_all per_class name))))
    solve_classes;
  Report.metric rep "threshold.exact_us" ~unit:"us" thr_us;
  Report.metric rep "engine.grid_cells_per_s" ~unit:"1/s" grid_cells_per_s;
  Report.metric rep "cache_store.put_ms" ~unit:"ms" (Summary.median puts *. 1000.);
  Report.metric rep "cache_store.open_s" ~unit:"s" (Summary.median opens);
  Report.metric rep "serve.hit_lru" ~unit:"count" (num [ "cache"; "hits_lru" ]);
  Report.metric rep "serve.hit_disk" ~unit:"count" (num [ "cache"; "hits_disk" ]);
  Report.metric rep "serve.cold" ~unit:"count" (num [ "solved" ]);
  Report.metric rep "serve.shed" ~unit:"count" (num [ "shed" ]);
  Report.metric rep "serve.hit_frac" ~unit:"ratio" (num [ "cache"; "hit_rate" ]);
  Report.metric rep "workq.depth_max" ~unit:"count" (float_of_int (Atomic.get depth_max));
  Report.metric rep "serve.queue_wait_p50_ms" ~unit:"ms"
    (num [ "latency"; "phases"; "queue_wait"; "p50" ] *. 1000.);
  Report.metric rep "loadgen.late_p99_ms" ~unit:"ms" (Summary.quantile late 0.99);
  report_ladder rep rungs
