type estimate = { mean : float; stderr : float; ci95 : float * float; samples : int }

let samples_total =
  Metrics.counter ~help:"Monte-Carlo plays drawn across all runs" "ddm_mc_samples_total"

let wins_total =
  Metrics.counter ~help:"Monte-Carlo plays on which the probed event occurred" "ddm_mc_wins_total"

let plays_per_sec =
  Metrics.gauge ~help:"Throughput of the most recent Monte-Carlo run" "ddm_mc_plays_per_sec"

let run_seconds =
  Metrics.histogram ~help:"Wall-clock duration of Monte-Carlo runs"
    ~buckets:[| 0.001; 0.01; 0.1; 1.; 10. |]
    "ddm_mc_run_seconds"

let finish_run ~t0 ~samples ~hits =
  let dt = Trace.now_mono_s () -. t0 in
  Metrics.add samples_total samples;
  Metrics.add wins_total hits;
  Metrics.observe run_seconds dt;
  if dt > 0. then Metrics.set plays_per_sec (float_of_int samples /. dt)

let pp_estimate fmt e =
  let lo, hi = e.ci95 in
  Format.fprintf fmt "%.6f ± %.6f [%.6f, %.6f] (n=%d)" e.mean e.stderr lo hi e.samples

(* The seeded-stream fold under every closure sampler.  Every lease
   stream is derived up front, in lease order, so the draw sequence of
   lease i depends only on (root seed, leases, i), never on scheduling,
   and per-lease accumulators merge in lease order: the result is a
   function of (seed, leases, samples) for every [~domains]. *)
let fold ?(domains = 1) ?(leases = Par_fold.default_leases) ~rng ~samples ~init ~step ~merge () =
  if domains < 1 then invalid_arg "Mc.fold: domains must be >= 1";
  if leases < 1 then invalid_arg "Mc.fold: leases must be >= 1";
  if samples < 0 then invalid_arg "Mc.fold: samples must be >= 0";
  if Logx.would_log Logx.Info then
    Logx.info "mc.par.start"
      [ ("domains", Logx.Int domains); ("leases", Logx.Int leases); ("samples", Logx.Int samples) ];
  let t0 = Trace.now_mono_s () in
  let streams = Array.init leases (fun _ -> Rng.split rng) in
  let counts = Par_fold.lease_counts ~leases ~items:samples in
  let parts =
    Par_fold.run_leases ~span:"mc.par.lease" ~domains ~leases (fun i ->
        if Logx.would_log Logx.Debug then
          Logx.debug "mc.par.lease" [ ("lease", Logx.Int i); ("samples", Logx.Int counts.(i)) ];
        let rng = streams.(i) in
        let acc = ref (init ()) in
        for _ = 1 to counts.(i) do
          acc := step !acc rng
        done;
        !acc)
  in
  if Logx.would_log Logx.Info then
    Logx.info "mc.par.done"
      [ ("samples", Logx.Int samples); ("wall_s", Logx.Float (Trace.now_mono_s () -. t0)) ];
  Array.fold_left merge (init ()) parts

(* Counters are merged on join and the throughput gauge is written once
   here, on the calling domain, so nothing races.

   [?kernel] swaps the sampling loop for the batch kernel: [f] is kept in
   the signature as the scalar reference but is never called.  The kernel
   runs inside the same span and feeds the same finish_run counters, so
   throughput attribution (mc_samples_per_sec in the perf suite) keeps
   working unchanged. *)
let probability ?(domains = 1) ?leases ?kernel ~rng ~samples f =
  if samples <= 0 then invalid_arg "Mc.probability: samples";
  Trace.with_span "mc.probability" @@ fun () ->
  let t0 = if !Metrics.on then Trace.now_mono_s () else 0. in
  let hits =
    match kernel with
    | Some k -> (Mc_kernel.run_par ?leases ~domains ~rng ~samples k).Mc_kernel.wins
    | None ->
      fold ~domains ?leases ~rng ~samples
        ~init:(fun () -> 0)
        ~step:(fun acc rng -> if f rng then acc + 1 else acc)
        ~merge:( + ) ()
  in
  if !Metrics.on then finish_run ~t0 ~samples ~hits;
  let n = float_of_int samples in
  let p = float_of_int hits /. n in
  let stderr = sqrt (p *. (1. -. p) /. n) in
  let ci95 = Stats.wilson_interval ~successes:hits ~trials:samples () in
  { mean = p; stderr; ci95; samples }

(* With [?kernel] the estimated quantity is the kernel's continuous
   observable — the expected max bin load — and [f] is never called. *)
let expectation ?(domains = 1) ?leases ?kernel ~rng ~samples f =
  if samples <= 0 then invalid_arg "Mc.expectation: samples";
  Trace.with_span "mc.expectation" @@ fun () ->
  let t0 = if !Metrics.on then Trace.now_mono_s () else 0. in
  let acc =
    match kernel with
    | Some k -> (Mc_kernel.run_par ?leases ~loads:true ~domains ~rng ~samples k).Mc_kernel.loads
    | None ->
      fold ~domains ?leases ~rng ~samples
        ~init:(fun () -> Stats.empty)
        ~step:(fun acc rng -> Stats.add acc (f rng))
        ~merge:Stats.merge ()
  in
  if !Metrics.on then finish_run ~t0 ~samples ~hits:0;
  let mean = Stats.mean acc in
  let stderr = Stats.stderr_of_mean acc in
  { mean; stderr; ci95 = (mean -. (1.96 *. stderr), mean +. (1.96 *. stderr)); samples }

let agrees e v =
  let lo, hi = e.ci95 in
  (* Widen by one extra stderr so a 1-in-20 flake does not fail the suite. *)
  let pad = Float.max e.stderr 1e-12 in
  v >= lo -. pad && v <= hi +. pad
