(* Fault-injecting counterpart of Engine: same game, same draw discipline,
   plus a Fault_model applied between the input draw and the decisions.
   Every fault consumes randomness only when its rate is nonzero, so the
   zero-rate run replays Engine.run_once draw-for-draw (pinned by test). *)

let plays =
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

let degrade_view rng (m : Fault_model.t) (v : Dist_protocol.view) =
  let count = ref 0 in
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
  let v =
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
  in
  (v, !count)

let checked_decide protocol v =
  let p = Dist_protocol.decide protocol v in
  if Float.is_finite p then p
  else
    invalid_arg
      (Printf.sprintf
         "Fault_engine: protocol %S returned a non-finite decide output (%h) for player %d \
          (wrap it with Dist_protocol.sanitized to degrade gracefully)"
         (Dist_protocol.name protocol) p v.Dist_protocol.me)

let run_once ?(sampler = Rng.float01) rng ~faults:(m : Fault_model.t) ~delta pattern protocol =
  Metrics.incr plays;
  let n = Comm_pattern.n pattern in
  let fault_count = ref 0 in
  let inputs = Array.init n (fun _ -> sampler rng) in
  let crashed =
    if m.crash > 0. then
      Array.init n (fun _ ->
        let c = Rng.bernoulli rng m.crash in
        if c then begin
          incr fault_count;
          Metrics.incr crashes
        end;
        c)
    else Array.make n false
  in
  let delta_eff =
    if m.jitter > 0. then begin
      incr fault_count;
      Metrics.incr jittered_plays;
      delta *. (1. +. Rng.uniform rng (-.m.jitter) m.jitter)
    end
    else delta
  in
  let vs = Engine.views pattern inputs in
  let decisions =
    Array.init n (fun i ->
      if crashed.(i) then
        match m.crash_mode with Fault_model.Drop -> -1 | Fault_model.Default_bin b -> b
      else begin
        let v, k = degrade_view rng m vs.(i) in
        fault_count := !fault_count + k;
        let p = checked_decide protocol v in
        if p >= 1. then 0 else if p <= 0. then 1 else if Rng.bernoulli rng p then 0 else 1
      end)
  in
  let load0 = ref 0. and load1 = ref 0. in
  Array.iteri
    (fun i d ->
      if d = 0 then load0 := !load0 +. inputs.(i)
      else if d = 1 then load1 := !load1 +. inputs.(i))
    decisions;
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

let win_probability_mc ?sampler ?(kernel = false) ?domains ?leases ~rng ~samples ~faults ~delta
    pattern protocol =
  Fault_model.validate faults;
  Trace.with_span "faults.mc" @@ fun () ->
  if Logx.would_log Logx.Debug then
    Logx.debug "faults.mc"
      [ ("protocol", Logx.Str (Dist_protocol.name protocol));
        ("faults", Logx.Str (Fault_model.to_string faults)); ("samples", Logx.Int samples) ];
  let kernel =
    if kernel then begin
      Engine.no_sampler ~where:"Fault_engine.win_probability_mc" sampler;
      (* link_loss / stale degrade only the revealed inputs, which a local
         (kernel-eligible) rule never reads — they cannot change any
         outcome, so the kernel spec drops them.  Crash / noise / jitter
         translate one-to-one.  The kernel path reports plays in
         aggregate; the per-event ddm_faults_* counters stay scalar-only
         (see docs/KERNEL.md). *)
      let fault =
        Mc_kernel.fault ~crash_rate:faults.Fault_model.crash
          ~crash_bin:
            (match faults.Fault_model.crash_mode with
            | Fault_model.Drop -> -1
            | Fault_model.Default_bin b -> b)
          ~noise:faults.Fault_model.noise ~jitter:faults.Fault_model.jitter ()
      in
      Metrics.add plays samples;
      Some (Engine.kernel_spec ~where:"Fault_engine.win_probability_mc" ~fault ~delta pattern
              protocol)
    end
    else None
  in
  Mc.probability ?domains ?leases ?kernel ~rng ~samples (fun rng ->
    (run_once ?sampler rng ~faults ~delta pattern protocol).win)

(* ------------------------- exact crash fold ------------------------- *)

let require_foldable where (m : Fault_model.t) =
  Fault_model.validate m;
  if not (Fault_model.crash_foldable m) then
    invalid_arg
      (Printf.sprintf
         "Fault_engine.%s: %s is not analytically foldable (only the crash dimension folds; \
          estimate the rest by Monte-Carlo)"
         where (Fault_model.to_string m))

(* The 2^n crash-subset terms of P(win | inputs): the item count and one
   subset's contribution.  Callers validate [m] first. *)
let crash_terms ~faults:(m : Fault_model.t) ~delta pattern protocol inputs =
  let n = Comm_pattern.n pattern in
  let vs = Engine.views pattern inputs in
  let probs =
    Array.map (fun v -> Float.min 1. (Float.max 0. (checked_decide protocol v))) vs
  in
  let c = m.crash in
  (* P(win | inputs) = sum over crash subsets S of
       c^|S| (1-c)^(n-|S|) * P(win | survivors decide, S's inputs rerouted).
     [mask_term] is one subset's contribution (0 for zero-weight
     subsets). *)
  let mask_term mask =
    let weight = ref 1. and base0 = ref 0. and base1 = ref 0. in
    let survivors = ref [] in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then begin
        weight := !weight *. c;
        match m.crash_mode with
        | Fault_model.Drop -> ()
        | Fault_model.Default_bin 0 -> base0 := !base0 +. inputs.(i)
        | Fault_model.Default_bin _ -> base1 := !base1 +. inputs.(i)
      end
      else begin
        weight := !weight *. (1. -. c);
        survivors := i :: !survivors
      end
    done;
    if !weight > 0. then begin
      Metrics.incr fold_branches;
      let rec go players l0 l1 w =
        if w = 0. then 0.
        else
          match players with
          | [] -> if l0 <= delta && l1 <= delta then w else 0.
          | i :: rest ->
            let p = probs.(i) in
            let w0 = if p > 0. then go rest (l0 +. inputs.(i)) l1 (w *. p) else 0. in
            let w1 = if p < 1. then go rest l0 (l1 +. inputs.(i)) (w *. (1. -. p)) else 0. in
            w0 +. w1
      in
      go !survivors !base0 !base1 !weight
    end
    else 0.
  in
  (1 lsl n, mask_term)

let win_probability_given ?(domains = 1) ?leases ~faults ~delta pattern protocol inputs =
  require_foldable "win_probability_given" faults;
  let masks, mask_term = crash_terms ~faults ~delta pattern protocol inputs in
  (* Crash subsets sharded by index range; per-lease partial sums merge
     in lease order, so the fold is worker-count invariant. *)
  Par_fold.sum ?leases ~span:"faults.fold.lease" ~domains ~items:masks mask_term

(* One grid cell's crash fold: a plain loop, because the grid already
   shards its cells (parallelism at one level only) and a per-cell lease
   pool would cost more than the fold. *)
let crash_fold ~faults ~delta pattern protocol inputs =
  let masks, mask_term = crash_terms ~faults ~delta pattern protocol inputs in
  let acc = ref 0. in
  for mask = 0 to masks - 1 do
    acc := !acc +. mask_term mask
  done;
  !acc

let win_probability_grid ?(points = 64) ?cancel ?(domains = 1) ?leases ~faults ~delta pattern
    protocol =
  require_foldable "win_probability_grid" faults;
  let n = Comm_pattern.n pattern in
  if points < 2 then
    invalid_arg (Printf.sprintf "Fault_engine.win_probability_grid: points = %d (need >= 2)" points);
  let cells = Combinat.int_pow (float_of_int points) n in
  if cells > 1e8 then
    invalid_arg
      (Printf.sprintf
         "Fault_engine.win_probability_grid: grid too large (points = %d, n = %d gives %.3g \
          cells > 1e8)"
         points n cells);
  Trace.with_span "faults.grid" @@ fun () ->
  if Logx.would_log Logx.Info then
    Logx.info "faults.grid"
      [ ("protocol", Logx.Str (Dist_protocol.name protocol)); ("n", Logx.Int n);
        ("points", Logx.Int points); ("cells", Logx.Float cells) ];
  (* Cells sharded by flat index (the 2^n fold inside each cell stays a
     plain loop); merged-progress cancellation as in
     Engine.win_probability_grid. *)
  let cells_total = int_of_float cells in
  let done_cells = Atomic.make 0 in
  let check = Engine.cancel_check_atomic ~where:"faults.grid" cancel done_cells cells_total in
  let total =
    Par_fold.sum ?leases ~span:"faults.grid.lease" ~domains ~items:cells_total (fun idx ->
        check ();
        let inputs = Engine.decode_cell ~n ~points idx in
        let v = crash_fold ~faults ~delta pattern protocol inputs in
        Atomic.incr done_cells;
        v)
  in
  total /. cells
