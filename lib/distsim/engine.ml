(* The distributed game, fault-free or under a Fault_model.  Every fault
   dimension consumes randomness only when its rate is nonzero, so a run
   under Fault_model.none draws exactly what the fault-free game draws. *)

type outcome = {
  inputs : float array;
  crashed : bool array;
  decisions : int array;
  load0 : float;
  load1 : float;
  delta_eff : float;
  win : bool;
  faults : int;
}

let plays = Metrics.counter ~help:"Distributed-system plays executed" "ddm_engine_plays_total"

let grid_cells =
  Metrics.counter ~help:"Grid cells evaluated by the deterministic integrator"
    "ddm_engine_grid_cells_total"

let branch_enums =
  Metrics.counter
    ~help:"Decision-vector branches (2^n per fault-free conditional evaluation) enumerated by the engine"
    "ddm_engine_branch_enumerations_total"

(* The ddm_faults_* counters below move only under a model other than
   Fault_model.none; the ddm_engine_* counters above count every play,
   cell and branch. *)
let fault_plays =
  Metrics.counter ~help:"Fault-injected distributed plays executed" "ddm_faults_plays_total"

let injected =
  Metrics.counter ~help:"Fault events injected (all dimensions)" "ddm_faults_injected_total"

let crashes = Metrics.counter ~help:"Player crashes injected" "ddm_faults_crashes_total"

let links_dropped =
  Metrics.counter ~help:"Revealed inputs lost to link faults" "ddm_faults_links_dropped_total"

let links_stale =
  Metrics.counter ~help:"Revealed inputs replaced by stale reads" "ddm_faults_links_stale_total"

let values_perturbed =
  Metrics.counter ~help:"View values perturbed by input noise" "ddm_faults_values_perturbed_total"

let jittered_plays =
  Metrics.counter ~help:"Plays judged against a jittered bin capacity"
    "ddm_faults_capacity_jitter_plays_total"

let degraded_plays =
  Metrics.counter ~help:"Plays in which at least one fault was injected"
    "ddm_faults_degraded_plays_total"

let fold_branches =
  Metrics.counter ~help:"Crash-subset branches enumerated by the exact fault fold"
    "ddm_faults_fold_branches_total"

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

let degrade_view rng (m : Fault_model.t) ~count (v : Dist_protocol.view) =
  if m.link_loss = 0. && m.stale = 0. && m.noise = 0. then v
  else begin
    let others =
      if m.link_loss > 0. then
        List.filter
          (fun _ ->
            if Rng.bernoulli rng m.link_loss then begin
              incr count;
              Metrics.incr links_dropped;
              false
            end
            else true)
          v.Dist_protocol.others
      else v.Dist_protocol.others
    in
    let others =
      if m.stale > 0. then
        List.map
          (fun (j, x) ->
            if Rng.bernoulli rng m.stale then begin
              incr count;
              Metrics.incr links_stale;
              (j, Rng.float01 rng)
            end
            else (j, x))
          others
      else others
    in
    if m.noise > 0. then begin
      let perturb x =
        incr count;
        Metrics.incr values_perturbed;
        Float.min 1. (Float.max 0. (x +. Rng.uniform rng (-.m.noise) m.noise))
      in
      let own = perturb v.Dist_protocol.own in
      { v with Dist_protocol.own; others = List.map (fun (j, x) -> (j, perturb x)) others }
    end
    else { v with Dist_protocol.others = others }
  end

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

(* Draw order: the inputs, then (at nonzero rates only) the crash flags
   and the capacity jitter, then each surviving player's view faults and
   decision coin in index order. *)
let run_once ?(sampler = Rng.float01) ?(faults = Fault_model.none) rng ~delta pattern protocol =
  let m = faults in
  Metrics.incr plays;
  if not (Fault_model.is_none m) then Metrics.incr fault_plays;
  let n = Comm_pattern.n pattern in
  let fault_count = ref 0 in
  let inputs = Array.init n (fun _ -> sampler rng) in
  let crashed = Array.make n false in
  if m.crash > 0. then
    for i = 0 to n - 1 do
      if Rng.bernoulli rng m.crash then begin
        crashed.(i) <- true;
        incr fault_count;
        Metrics.incr crashes
      end
    done;
  let delta_eff =
    if m.jitter > 0. then begin
      incr fault_count;
      Metrics.incr jittered_plays;
      delta *. (1. +. Rng.uniform rng (-.m.jitter) m.jitter)
    end
    else delta
  in
  let vs = views pattern inputs in
  let decisions = Array.make n 0 in
  let load0 = ref 0. and load1 = ref 0. in
  for i = 0 to n - 1 do
    let d =
      if crashed.(i) then
        match m.crash_mode with Fault_model.Drop -> -1 | Fault_model.Default_bin b -> b
      else begin
        let v = degrade_view rng m ~count:fault_count vs.(i) in
        let p = checked_decide ~where:"run_once" protocol v in
        if p >= 1. then 0 else if p <= 0. then 1 else if Rng.bernoulli rng p then 0 else 1
      end
    in
    decisions.(i) <- d;
    if d = 0 then load0 := !load0 +. inputs.(i) else if d = 1 then load1 := !load1 +. inputs.(i)
  done;
  if !fault_count > 0 then begin
    Metrics.add injected !fault_count;
    Metrics.incr degraded_plays
  end;
  {
    inputs;
    crashed;
    decisions;
    load0 = !load0;
    load1 = !load1;
    delta_eff;
    win = !load0 <= delta_eff && !load1 <= delta_eff;
    faults = !fault_count;
  }

(* Translate a kernel-eligible protocol into a batch-kernel spec.  Raises
   a named error instead of silently falling back: a caller asking for
   [~kernel:true] wants the fast path or an explanation, not a quiet 5x
   slowdown.  Crash / noise / jitter translate one-to-one; link_loss and
   stale degrade only the revealed inputs, which a local rule never reads,
   so they cannot change any outcome and the spec drops them.  An all-zero
   spec is normalised away by Mc_kernel.make. *)
let kernel_spec ~where ?(faults = Fault_model.none) ~delta pattern protocol =
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
    let fault =
      Mc_kernel.fault ~crash_rate:faults.Fault_model.crash
        ~crash_bin:
          (match faults.Fault_model.crash_mode with
          | Fault_model.Drop -> -1
          | Fault_model.Default_bin b -> b)
        ~noise:faults.Fault_model.noise ~jitter:faults.Fault_model.jitter ()
    in
    Mc_kernel.make ~fault ~n:(Comm_pattern.n pattern) ~delta rule

let win_probability_mc ?sampler ?(kernel = false) ?(faults = Fault_model.none) ?domains ?leases
    ~rng ~samples ~delta pattern protocol =
  Fault_model.validate faults;
  Trace.with_span "engine.mc" @@ fun () ->
  let kernel =
    if kernel then begin
      if Option.is_some sampler then
        invalid_arg
          "Engine.win_probability_mc: ~kernel assumes the paper's uniform input model (drop the \
           custom sampler)";
      (* The scalar path bumps the plays counters once per run_once call;
         the kernel path accounts for the whole batch here, in aggregate,
         and keeps no per-event fault counters (see docs/KERNEL.md). *)
      Metrics.add plays samples;
      if not (Fault_model.is_none faults) then Metrics.add fault_plays samples;
      Some (kernel_spec ~where:"Engine.win_probability_mc" ~faults ~delta pattern protocol)
    end
    else None
  in
  Mc.probability ?domains ?leases ?kernel ~rng ~samples (fun rng ->
      (run_once ?sampler ~faults rng ~delta pattern protocol).win)

(* ------------------------- exact crash fold ------------------------- *)

let require_foldable where (m : Fault_model.t) =
  Fault_model.validate m;
  if not (Fault_model.crash_foldable m) then
    invalid_arg
      (Printf.sprintf
         "Engine.%s: %s is not analytically foldable (only the crash dimension folds; estimate \
          the rest by Monte-Carlo)"
         where (Fault_model.to_string m))

(* The crash subsets of nonzero weight c^|S| (1-c)^(n-|S|), as a range
   [(first, count)] of masks: only the empty one at c = 0 (the fault-free
   game), only the full one at c = 1, all 2^n in between. *)
let crash_masks ~n c =
  if c = 0. then (0, 1) else if c = 1. then ((1 lsl n) - 1, 1) else (0, 1 lsl n)

(* Each player's probability of choosing bin 0 at these inputs, clamped:
   custom rules may return values slightly outside [0,1] (a non-finite one
   raises in checked_decide rather than slipping through as NaN). *)
let decide_probs ~where pattern protocol inputs =
  Array.map
    (fun v -> Float.min 1. (Float.max 0. (checked_decide ~where protocol v)))
    (views pattern inputs)

(* P(win | inputs) = sum over crash subsets S of
     c^|S| (1-c)^(n-|S|) * P(win | survivors decide, S's inputs rerouted).
   [crash_term ~faults ~delta ~n probs inputs mask] is one subset's
   contribution.  [live] is the sum of the inputs that reach a bin, folded
   in index order, so the leaf test [l0 <= delta && live - l0 <= delta] is
   the fault-free one (live = total) when nobody crashes.  Callers
   validate [faults] first. *)
let crash_term ~(faults : Fault_model.t) ~delta ~n =
  let c = faults.crash in
  let crash_bin =
    match faults.crash_mode with Fault_model.Drop -> -1 | Fault_model.Default_bin b -> b
  in
  let counted = not (Fault_model.is_none faults) in
  fun probs inputs mask ->
    let weight = ref 1. and survivors = ref 0 in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then weight := !weight *. c
      else begin
        weight := !weight *. (1. -. c);
        incr survivors
      end
    done;
    if !weight = 0. then 0.
    else begin
      Metrics.add branch_enums (1 lsl !survivors);
      if counted then Metrics.incr fold_branches;
      let live = ref 0. in
      for i = 0 to n - 1 do
        if crash_bin >= 0 || mask land (1 lsl i) = 0 then live := !live +. inputs.(i)
      done;
      let live = !live in
      let rec go i l0 w =
        if w = 0. then 0.
        else if i = n then if l0 <= delta && live -. l0 <= delta then w else 0.
        else if mask land (1 lsl i) <> 0 then
          go (i + 1) (if crash_bin = 0 then l0 +. inputs.(i) else l0) w
        else begin
          let p = probs.(i) in
          let w0 = if p > 0. then go (i + 1) (l0 +. inputs.(i)) (w *. p) else 0. in
          let w1 = if p < 1. then go (i + 1) l0 (w *. (1. -. p)) else 0. in
          w0 +. w1
        end
      in
      go 0 0. !weight
    end

let win_probability_given ?(faults = Fault_model.none) ?(domains = 1) ?leases ~delta pattern
    protocol inputs =
  require_foldable "win_probability_given" faults;
  let n = Comm_pattern.n pattern in
  let first, count = crash_masks ~n faults.crash in
  let term = crash_term ~faults ~delta ~n in
  let probs = decide_probs ~where:"win_probability_given" pattern protocol inputs in
  if count = 1 then term probs inputs first
  else
    (* Crash subsets sharded by index range; per-lease partial sums merge
       in lease order, so the fold is worker-count invariant. *)
    Par_fold.sum ?leases ~span:"engine.fold.lease" ~domains ~items:count (fun k ->
        term probs inputs (first + k))

exception Cancelled of { cells_done : int; cells_total : int }

(* The cooperative cancellation hook of the grid sweep: consulted once per
   cell (the per-cell decision fold costs at least 2^n branch visits, so
   the extra closure call is noise).  On the first [true] the sweep raises
   with its partial progress, which a deadline-bounded caller (lib/serve)
   turns into a 504 with partial-progress metadata.  Progress lives in a
   shared atomic that every lease bumps, so the raise carries the merged
   cells_done across all leases, not just the raising lease's share. *)
let cancel_check cancel done_cells total =
  match cancel with
  | None -> fun () -> ()
  | Some c ->
    fun () ->
      if c () then begin
        let cells_done = Atomic.get done_cells in
        if Logx.would_log Logx.Warn then
          Logx.warn "engine.grid.cancelled"
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

let win_probability_grid ?(points = 64) ?cancel ?(faults = Fault_model.none) ?(domains = 1)
    ?leases ~delta pattern protocol =
  require_foldable "win_probability_grid" faults;
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
        ("points", Logx.Int points); ("cells", Logx.Float cells);
        ("faults", Logx.Str (Fault_model.to_string faults)) ];
  (* Lease-sharded sweep: cells are sharded by flat index into contiguous
     lease ranges and per-lease partial sums merge in lease order, so the
     result depends on (points, leases) only — never on worker count.  The
     crash fold inside each cell is a plain loop (parallelism at one level
     only: a per-cell lease pool would cost more than the fold). *)
  let first, count = crash_masks ~n faults.crash in
  let term = crash_term ~faults ~delta ~n in
  let cells_total = int_of_float cells in
  let done_cells = Atomic.make 0 in
  let check = cancel_check cancel done_cells cells_total in
  let total =
    Par_fold.sum ?leases ~span:"engine.grid.lease" ~domains ~items:cells_total (fun idx ->
        check ();
        let inputs = decode_cell ~n ~points idx in
        let probs = decide_probs ~where:"win_probability_grid" pattern protocol inputs in
        let v = ref 0. in
        for mask = first to first + count - 1 do
          v := !v +. term probs inputs mask
        done;
        Atomic.incr done_cells;
        !v)
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
