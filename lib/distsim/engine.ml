type outcome = {
  inputs : float array;
  decisions : int array;
  load0 : float;
  load1 : float;
  win : bool;
}

let plays = Metrics.counter ~help:"Distributed-system plays executed" "ddm_engine_plays_total"

let grid_cells =
  Metrics.counter ~help:"Grid cells evaluated by the deterministic integrator"
    "ddm_engine_grid_cells_total"

let branch_enums =
  Metrics.counter
    ~help:"Decision-vector branches (2^n per conditional evaluation) enumerated by the engine"
    "ddm_engine_branch_enumerations_total"

let retries =
  Metrics.counter ~help:"Decide evaluations retried after an exception or non-finite output"
    "ddm_faults_retries_total"

let deadline_exceeded =
  Metrics.counter ~help:"Decide evaluations abandoned at the retry deadline or attempt cap"
    "ddm_faults_deadline_exceeded_total"

(* Resource exhaustion and tripped assertions are the process's problem,
   not the protocol's: converting them into the fallback probability would
   hide heap corruption behind a plausible-looking 0.5.  Only non-fatal
   exceptions are retry-worthy. *)
let fatal_exn = function
  | Out_of_memory | Stack_overflow | Assert_failure _ | Sys.Break -> true
  | _ -> false

(* Exponential backoff with full jitter: the delay before retry [k]
   (0-based) is [min max_s (base_s * factor^k)] scaled by a uniform draw
   in [0.5, 1) when a jitter source is supplied.  A {e seeded} [Rng.t]
   makes the whole schedule a deterministic function of the seed, so
   tests can pin it exactly; without [jitter] the schedule is the pure
   exponential. *)
let backoff_delay ~base_s ?(factor = 2.) ?max_s ?jitter k =
  if not (base_s > 0.) then invalid_arg "Engine.backoff_delay: base_s must be positive";
  if not (factor >= 1.) then invalid_arg "Engine.backoff_delay: factor must be >= 1";
  if k < 0 then invalid_arg "Engine.backoff_delay: attempt index must be >= 0";
  let raw = base_s *. (factor ** float_of_int k) in
  let capped = match max_s with Some m -> Float.min m raw | None -> raw in
  match jitter with
  | None -> capped
  | Some rng -> capped *. (0.5 +. (0.5 *. Rng.float01 rng))

let backoff_schedule ~base_s ?factor ?max_s ?jitter ~attempts () =
  if attempts < 1 then invalid_arg "Engine.backoff_schedule: attempts must be >= 1";
  List.init (attempts - 1) (fun k -> backoff_delay ~base_s ?factor ?max_s ?jitter k)

let retry_under ~deadline_s ?(attempts = 3) ?(default = 0.5) ?backoff ?jitter protocol =
  if not (deadline_s > 0.) then invalid_arg "Engine.retry_under: deadline_s must be positive";
  if attempts < 1 then invalid_arg "Engine.retry_under: attempts must be >= 1";
  (match backoff with
  | Some b when not (b > 0.) -> invalid_arg "Engine.retry_under: backoff must be positive"
  | _ -> ());
  Dist_protocol.make
    ~deterministic:(Dist_protocol.is_deterministic protocol)
    ~name:(Printf.sprintf "%s+retry(%d,%.3gs)" (Dist_protocol.name protocol) attempts deadline_s)
    (fun v ->
      let start = Trace.now_mono_s () in
      let rec go k =
        match (try Some (Dist_protocol.decide protocol v) with e when not (fatal_exn e) -> None) with
        | Some p when Float.is_finite p -> p
        | _ ->
          Metrics.incr retries;
          if Logx.would_log Logx.Debug then
            Logx.debug "engine.retry"
              [ ("protocol", Logx.Str (Dist_protocol.name protocol)); ("attempt", Logx.Int (k + 1)) ];
          (* spacing before the next attempt; a delay that would overrun
             the deadline forfeits the retry instead of sleeping past it *)
          let delay =
            match backoff with
            | None -> 0.
            | Some base_s -> backoff_delay ~base_s ~max_s:deadline_s ?jitter k
          in
          if
            k + 1 >= attempts
            || Trace.now_mono_s () -. start +. delay >= deadline_s
          then begin
            Metrics.incr deadline_exceeded;
            if Logx.would_log Logx.Warn then
              Logx.warn "engine.retry_deadline"
                [ ("protocol", Logx.Str (Dist_protocol.name protocol));
                  ("attempts", Logx.Int (k + 1)); ("default", Logx.Float default) ];
            default
          end
          else begin
            if delay > 0. then (
              try Unix.sleepf delay with Unix.Unix_error (Unix.EINTR, _, _) -> ());
            go (k + 1)
          end
      in
      go 0)

let views pattern inputs =
  let n = Comm_pattern.n pattern in
  Array.init n (fun i ->
    {
      Dist_protocol.me = i;
      own = inputs.(i);
      others = List.map (fun j -> (j, inputs.(j))) (Comm_pattern.sees pattern i);
    })

(* A NaN here would otherwise poison every downstream aggregate (grid
   integrals average thousands of cells; one NaN cell wipes the sum), so a
   non-finite decide output is a protocol bug and raises. Protocols that
   should survive their own bad outputs opt in via Dist_protocol.sanitized. *)
let checked_decide ~where protocol v =
  let p = Dist_protocol.decide protocol v in
  if Float.is_finite p then p
  else
    invalid_arg
      (Printf.sprintf
         "Engine.%s: protocol %S returned a non-finite decide output (%h) for player %d (wrap \
          it with Dist_protocol.sanitized to degrade gracefully)"
         where (Dist_protocol.name protocol) p v.Dist_protocol.me)

let loads inputs decisions =
  let load0 = ref 0. and load1 = ref 0. in
  Array.iteri
    (fun i d -> if d = 0 then load0 := !load0 +. inputs.(i) else load1 := !load1 +. inputs.(i))
    decisions;
  (!load0, !load1)

let run_once ?(sampler = Rng.float01) rng ~delta pattern protocol =
  Metrics.incr plays;
  let n = Comm_pattern.n pattern in
  let inputs = Array.init n (fun _ -> sampler rng) in
  let vs = views pattern inputs in
  let decisions =
    Array.map
      (fun v ->
        let p = checked_decide ~where:"run_once" protocol v in
        if p >= 1. then 0 else if p <= 0. then 1 else if Rng.bernoulli rng p then 0 else 1)
      vs
  in
  let load0, load1 = loads inputs decisions in
  { inputs; decisions; load0; load1; win = load0 <= delta && load1 <= delta }

(* Translate a kernel-eligible protocol into a batch-kernel spec.  Raises
   a named error instead of silently falling back: a caller asking for
   [~kernel:true] wants the fast path or an explanation, not a quiet 5x
   slowdown. *)
let kernel_spec ~where ?fault ~delta pattern protocol =
  match Dist_protocol.local_rule protocol with
  | None ->
    invalid_arg
      (Printf.sprintf
         "%s: protocol %S has no local rule (only the oblivious/threshold families ride the \
          batch kernel)"
         where
         (Dist_protocol.name protocol))
  | Some lr ->
    let rule =
      match lr with
      | Dist_protocol.Local_threshold a -> Mc_kernel.Threshold a
      | Dist_protocol.Local_oblivious a -> Mc_kernel.Oblivious a
    in
    Mc_kernel.make ?fault ~n:(Comm_pattern.n pattern) ~delta rule

let no_sampler ~where = function
  | None -> ()
  | Some _ ->
    invalid_arg
      (where ^ ": ~kernel assumes the paper's uniform input model (drop the custom sampler)")

let win_probability_mc ?sampler ?(kernel = false) ?domains ?leases ~rng ~samples ~delta pattern
    protocol =
  Trace.with_span "engine.mc" @@ fun () ->
  let kernel =
    if kernel then begin
      no_sampler ~where:"Engine.win_probability_mc" sampler;
      (* The scalar path bumps [plays] once per run_once call; the kernel
         path accounts for the whole batch here, in aggregate. *)
      Metrics.add plays samples;
      Some (kernel_spec ~where:"Engine.win_probability_mc" ~delta pattern protocol)
    end
    else None
  in
  Mc.probability ?domains ?leases ?kernel ~rng ~samples (fun rng ->
      (run_once ?sampler rng ~delta pattern protocol).win)

let win_probability_given ~delta pattern protocol inputs =
  let n = Comm_pattern.n pattern in
  Metrics.add branch_enums (1 lsl n);
  let vs = views pattern inputs in
  (* clamp: custom rules may return values slightly outside [0,1] (but a
     non-finite value raises in checked_decide rather than slipping through
     the clamp as NaN) *)
  let probs =
    Array.map
      (fun v -> Float.min 1. (Float.max 0. (checked_decide ~where:"win_probability_given" protocol v)))
      vs
  in
  let total = Array.fold_left ( +. ) 0. inputs in
  (* win <=> total - delta <= load0 <= delta *)
  let rec go i load0 weight =
    if weight = 0. then 0.
    else if i = n then if load0 <= delta && total -. load0 <= delta then weight else 0.
    else begin
      let p = probs.(i) in
      let w0 = if p > 0. then go (i + 1) (load0 +. inputs.(i)) (weight *. p) else 0. in
      let w1 = if p < 1. then go (i + 1) load0 (weight *. (1. -. p)) else 0. in
      w0 +. w1
    end
  in
  go 0 0. 1.

exception Cancelled of { cells_done : int; cells_total : int }

(* The cooperative cancellation hook shared by both exact grid
   integrators: consulted once per cell (the per-cell decision fold costs
   at least 2^n branch visits, so the extra closure call is noise).  On
   the first [true] the sweep raises with its partial progress, which a
   deadline-bounded caller (lib/serve) turns into a 504 with
   partial-progress metadata.  Progress lives in a shared atomic that
   every lease bumps, so the raise carries the merged cells_done across
   all leases, not just the raising lease's share. *)
let cancel_check_atomic ~where cancel done_cells total =
  match cancel with
  | None -> fun () -> ()
  | Some c ->
    fun () ->
      if c () then begin
        let cells_done = Atomic.get done_cells in
        if Logx.would_log Logx.Warn then
          Logx.warn (where ^ ".cancelled")
            [ ("cells_done", Logx.Int cells_done); ("cells_total", Logx.Int total) ];
        raise (Cancelled { cells_done; cells_total = total })
      end

(* Midpoint coordinates of flat cell [idx] in row-major order (dimension 0
   outermost), so lease ranges cover contiguous runs of the grid. *)
let decode_cell ~n ~points idx =
  let inputs = Array.make n 0. in
  let points_f = float_of_int points in
  let rem = ref idx in
  for d = n - 1 downto 0 do
    inputs.(d) <- (float_of_int (!rem mod points) +. 0.5) /. points_f;
    rem := !rem / points
  done;
  inputs

let win_probability_grid ?(points = 64) ?cancel ?(domains = 1) ?leases ~delta pattern protocol =
  let n = Comm_pattern.n pattern in
  if points < 2 then
    invalid_arg (Printf.sprintf "Engine.win_probability_grid: points = %d (need >= 2)" points);
  let cells = Combinat.int_pow (float_of_int points) n in
  if cells > 1e8 then
    invalid_arg
      (Printf.sprintf
         "Engine.win_probability_grid: grid too large (points = %d, n = %d gives %.3g cells > 1e8)"
         points n cells);
  Trace.with_span "engine.grid" @@ fun () ->
  Metrics.add grid_cells (int_of_float cells);
  if Logx.would_log Logx.Info then
    Logx.info "engine.grid"
      [ ("protocol", Logx.Str (Dist_protocol.name protocol)); ("n", Logx.Int n);
        ("points", Logx.Int points); ("cells", Logx.Float cells) ];
  (* Lease-sharded sweep: cells are sharded by flat index into contiguous
     lease ranges and per-lease partial sums merge in lease order, so the
     result depends on (points, leases) only — never on worker count. *)
  let cells_total = int_of_float cells in
  let done_cells = Atomic.make 0 in
  let check = cancel_check_atomic ~where:"engine.grid" cancel done_cells cells_total in
  let total =
    Par_fold.sum ?leases ~span:"engine.grid.lease" ~domains ~items:cells_total (fun idx ->
        check ();
        let inputs = decode_cell ~n ~points idx in
        let v = win_probability_given ~delta pattern protocol inputs in
        Atomic.incr done_cells;
        v)
  in
  total /. cells

let optimize_family ?points ?domains ?leases ~delta pattern ~family ~x0 ~bounds () =
  Trace.with_span "engine.optimize_family" @@ fun () ->
  let clamp x =
    Array.mapi
      (fun i v ->
        let lo, hi = bounds.(i) in
        Float.min hi (Float.max lo v))
      x
  in
  let f x = win_probability_grid ?points ?domains ?leases ~delta pattern (family (clamp x)) in
  let best_x, best_v = Opt.nelder_mead ~f ~x0 ~scale:0.15 ~tol:1e-10 () in
  (clamp best_x, best_v)
