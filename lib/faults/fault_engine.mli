(** Fault-injecting execution engine.

    Mirrors {!Engine} over the same game, applying a {!Fault_model}
    between the input draw and the decisions. All fault randomness comes
    from the caller's seeded {!Rng}, and a fault dimension consumes draws
    only when its rate is nonzero — so under {!Fault_model.none} a run
    replays {!Engine.run_once} draw-for-draw, and any chaos run is
    reproducible from its seed.

    Injection is instrumented under the [ddm_faults_*] metrics family:
    plays, per-dimension fault events, [ddm_faults_injected_total] across
    all dimensions, and degraded plays (at least one fault). *)

type outcome = {
  inputs : float array;  (** true inputs (noise perturbs views only) *)
  crashed : bool array;
  decisions : int array;
      (** per-player bin; [-1] marks a crashed player whose input was
          dropped ({!Fault_model.Drop}) *)
  load0 : float;
  load1 : float;
  delta_eff : float;  (** the (possibly jittered) capacity this play was judged against *)
  win : bool;
  faults : int;  (** fault events injected in this play *)
}

val degrade_view : Rng.t -> Fault_model.t -> Dist_protocol.view -> Dist_protocol.view * int
(** Apply link loss, stale reads, and view noise to one player's view;
    returns the degraded view and the number of fault events injected.
    Exposed for tests. *)

val run_once :
  ?sampler:(Rng.t -> float) ->
  Rng.t -> faults:Fault_model.t -> delta:float -> Comm_pattern.t -> Dist_protocol.t -> outcome
(** One fault-injected play.
    @raise Invalid_argument on a non-finite decide output (wrap the
    protocol with {!Dist_protocol.sanitized} to degrade instead). *)

val win_probability_mc :
  ?sampler:(Rng.t -> float) ->
  ?kernel:bool ->
  ?domains:int ->
  ?leases:int ->
  rng:Rng.t ->
  samples:int ->
  faults:Fault_model.t ->
  delta:float ->
  Comm_pattern.t ->
  Dist_protocol.t ->
  Mc.estimate
(** Monte-Carlo win probability under faults, with a Wilson 95% CI.
    [?domains]/[?leases] are {!Mc.probability}'s (default one domain);
    fault counters stay exact (they are atomic) and estimates are
    bit-identical for every worker count at a fixed seed.

    [~kernel:true] rides the batch kernel's flat fault-injection variant:
    crash / noise / jitter translate one-to-one; [link_loss] and [stale]
    are accepted and dropped because a kernel-eligible (local) rule never
    reads the revealed inputs they degrade, so they cannot change any
    outcome.  Statistically identical to the scalar path at the same
    seed, several times faster, same [-j] bit-identity.  On this path
    [ddm_faults_plays_total] is bumped in aggregate and the per-event
    fault counters (crashes, perturbations, ...) are not maintained.
    @raise Invalid_argument when [~kernel:true] is combined with a custom
    [sampler] or a protocol without a {!Dist_protocol.local_rule}. *)

val win_probability_given :
  ?domains:int ->
  ?leases:int ->
  faults:Fault_model.t -> delta:float -> Comm_pattern.t -> Dist_protocol.t -> float array -> float
(** Exact win probability conditioned on the inputs, folding the fault
    model analytically: sums over the [2^n] crash subsets (weighted
    [c^|S| (1-c)^(n-|S|)]), rerouting crashed inputs per the crash mode,
    and over the surviving players' decision branches.

    The [2^n] subsets are sharded by index range over [leases]
    contiguous ranges ({!Par_fold.sum}) on [domains] (default 1) worker
    domains; partial sums merge in lease order so the fold is
    bit-identical for every worker count at fixed [leases].
    ["faults.fold.lease"] spans ride the tracing plane.
    @raise Invalid_argument unless {!Fault_model.crash_foldable} holds —
    only the crash dimension folds; estimate the rest by Monte-Carlo. *)

val win_probability_grid :
  ?points:int ->
  ?cancel:(unit -> bool) ->
  ?domains:int ->
  ?leases:int ->
  faults:Fault_model.t ->
  delta:float ->
  Comm_pattern.t ->
  Dist_protocol.t ->
  float
(** Midpoint-rule integration of {!win_probability_given} over [[0,1]^n]
    (default 64 points per dimension), exact up to the grid — the
    fault-model analogue of {!Engine.win_probability_grid}, and equal to
    it at crash rate 0.  [cancel] is the same per-cell cooperative
    cancellation hook: when it returns [true] the sweep raises
    {!Engine.Cancelled} with its partial progress.

    [domains]/[leases] shard the {e cells} exactly as in
    {!Engine.win_probability_grid} (the per-cell subset fold is a plain
    loop, equal to {!win_probability_given} at [~leases:1] —
    parallelism at one level only): worker-count-invariant
    results, merged-progress cancellation, ["faults.grid.lease"] spans.
    @raise Invalid_argument when the model is not crash-foldable or the
    grid exceeds [10^8] cells.
    @raise Engine.Cancelled when [cancel] fires mid-sweep. *)
