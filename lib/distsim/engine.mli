(** Execution engine for the distributed load-balancing game.

    Runs protocols over a {!Comm_pattern} either by Monte-Carlo simulation of
    actual distributed executions or by deterministic numeric integration
    over the input cube (midpoint rule), and provides a protocol-family
    optimizer used by the communication-trade-off experiment (X1).

    Every entry point takes [?faults] (default {!Fault_model.none}, the
    paper's own setting): a {!Fault_model} applied between the input draw
    and the decisions.  All fault randomness comes from the caller's seeded
    {!Rng}, and a fault dimension consumes draws only when its rate is
    nonzero, so any chaos run is reproducible from its seed.

    The [ddm_engine_*] counters count every play, grid cell and decision
    branch.  The [ddm_faults_*] family (plays, per-dimension fault events,
    [ddm_faults_injected_total] across all dimensions, degraded plays,
    crash-fold branches) moves only under a model other than
    {!Fault_model.none}. *)

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

val views : Comm_pattern.t -> float array -> Dist_protocol.view array
(** The per-player views induced by a pattern on a given input vector. *)

val degrade_view :
  Rng.t -> Fault_model.t -> count:int ref -> Dist_protocol.view -> Dist_protocol.view
(** Apply link loss, stale reads, and view noise to one player's view,
    adding the number of fault events injected to [count].  Returns the
    view it was given, unallocated and with no draw, when none of the three
    is active. *)

val backoff_delay :
  base_s:float -> ?factor:float -> ?max_s:float -> ?jitter:Rng.t -> int -> float
(** Exponential backoff with full jitter: the delay before retry [k]
    (0-based) is [min max_s (base_s * factor^k)] (default [factor] 2, no
    cap), scaled by a uniform draw in [0.5, 1) when [jitter] is given.  A
    seeded jitter source makes the schedule a deterministic function of
    the seed.
    @raise Invalid_argument on non-positive [base_s], [factor < 1], or a
    negative index. *)

val backoff_schedule :
  base_s:float -> ?factor:float -> ?max_s:float -> ?jitter:Rng.t -> attempts:int -> unit -> float list
(** The [attempts - 1] inter-attempt delays {!retry_under} would use —
    [backoff_delay] at indices [0 .. attempts-2].  Exposed so tests can
    pin the exact schedule for a given seed. *)

val retry_under :
  deadline_s:float ->
  ?attempts:int ->
  ?default:float ->
  ?backoff:float ->
  ?jitter:Rng.t ->
  Dist_protocol.t ->
  Dist_protocol.t
(** Deadline-bounded evaluation: re-invoke a decide rule that raised or
    returned a non-finite value, up to [attempts] (default 3) tries and a
    wall-clock budget of [deadline_s] seconds per decision, then give up
    and answer [default] (0.5). Fatal exceptions ([Out_of_memory],
    [Stack_overflow], [Assert_failure], [Sys.Break]) are re-raised rather
    than retried or converted into the fallback.

    [backoff] spaces the retries: the delay before retry [k] is
    [backoff_delay ~base_s:backoff ~max_s:deadline_s ?jitter k]
    (exponential, capped at the deadline, jittered by the seeded [jitter]
    source when given so schedules stay deterministic under test).  A
    delay that would overrun the deadline forfeits the retry instead of
    sleeping past it.  Without [backoff] retries are immediate (the
    historical behavior).

    Retries are counted in [ddm_faults_retries_total] and abandoned
    decisions in [ddm_faults_deadline_exceeded_total].
    @raise Invalid_argument on a non-positive deadline, attempt count, or
    backoff base. *)

val run_once :
  ?sampler:(Rng.t -> float) ->
  ?faults:Fault_model.t ->
  Rng.t ->
  delta:float ->
  Comm_pattern.t ->
  Dist_protocol.t ->
  outcome
(** One distributed play. [sampler] draws each player's private input
    (default [Rng.float01], the paper's U[0,1] model); supplying another
    sampler exercises the paper's Section 6 direction of "more realistic
    assumptions on the distribution of inputs".  Under [faults] the crash
    flags and the capacity jitter are drawn after the inputs, then each
    surviving player's view is degraded ({!degrade_view}) before it
    decides.
    @raise Invalid_argument when the protocol returns a non-finite decide
    output (see {!Dist_protocol.sanitized} to degrade instead). *)

val kernel_spec :
  where:string ->
  ?faults:Fault_model.t ->
  delta:float ->
  Comm_pattern.t ->
  Dist_protocol.t ->
  Mc_kernel.t
(** Translate a protocol with a {!Dist_protocol.local_rule} into a batch
    kernel spec for the pattern's player count; [where] names the caller
    in errors.  Crash / noise / jitter translate one-to-one into
    {!Mc_kernel.fault}; [link_loss] and [stale] are dropped because a
    local rule never reads the revealed inputs they degrade.
    @raise Invalid_argument when the protocol has no local rule or its
    parameter count disagrees with the pattern. *)

val win_probability_mc :
  ?sampler:(Rng.t -> float) ->
  ?kernel:bool ->
  ?faults:Fault_model.t ->
  ?domains:int ->
  ?leases:int ->
  rng:Rng.t -> samples:int -> delta:float -> Comm_pattern.t -> Dist_protocol.t -> Mc.estimate
(** Monte-Carlo estimate of the win probability, with a Wilson 95% CI.
    [?domains]/[?leases] are {!Mc.probability}'s (default one domain);
    estimates are bit-identical for every worker count at a fixed seed,
    and the fault counters stay exact (they are atomic).

    [~kernel:true] routes the run through the batch kernel
    ({!Mc_kernel}, see {!kernel_spec} for the faults it carries):
    statistically identical to the closure path at the same seed, several
    times faster, same [-j] bit-identity contract.  On this path the plays
    counters are bumped in aggregate and the per-event fault counters
    (crashes, perturbations, ...) are not maintained.
    @raise Invalid_argument on an invalid fault model, or when
    [~kernel:true] is combined with a custom [sampler] or a protocol
    without a {!Dist_protocol.local_rule}. *)

val win_probability_given :
  ?faults:Fault_model.t ->
  ?domains:int ->
  ?leases:int ->
  delta:float -> Comm_pattern.t -> Dist_protocol.t -> float array -> float
(** Exact win probability conditioned on the input vector.  Sums over the
    crash subsets [S] of nonzero weight [c^|S| (1-c)^(n-|S|)] (only the
    empty one at crash rate 0), rerouting crashed inputs per the crash
    mode, and over the surviving players' decision vectors with their
    probabilities (single branch for deterministic protocols).  A vector
    wins when [load0 <= delta] and [live - load0 <= delta], where [live]
    is the sum, in index order, of the inputs that reach a bin.

    Decision probabilities slightly outside [[0,1]] are clamped; a
    non-finite one raises [Invalid_argument] rather than silently
    poisoning grid integrals with NaN.  More than one subset is sharded
    by index range over [leases] contiguous ranges ({!Par_fold.sum}) on
    [domains] (default 1) worker domains, with partial sums merged in
    lease order, so the fold is bit-identical for every worker count at
    fixed [leases]; ["engine.fold.lease"] spans ride the tracing plane.
    @raise Invalid_argument unless {!Fault_model.crash_foldable} holds —
    only the crash dimension folds; estimate the rest by Monte-Carlo. *)

exception Cancelled of { cells_done : int; cells_total : int }
(** Raised out of a grid integration when its [cancel] hook fires,
    carrying how far the sweep got — the partial-progress metadata a
    deadline-bounded service reports with its 504. *)

val win_probability_grid :
  ?points:int ->
  ?cancel:(unit -> bool) ->
  ?faults:Fault_model.t ->
  ?domains:int ->
  ?leases:int ->
  delta:float -> Comm_pattern.t -> Dist_protocol.t -> float
(** Midpoint-rule integration of {!win_probability_given} over [[0,1]^n];
    default 64 points per dimension. Deterministic, so usable inside
    optimizers.  The per-cell crash fold is a plain loop (parallelism at
    one level only), and it is the same fold as {!win_probability_given},
    so a crash rate that tends to 0 tends to the fault-free answer.

    Cells are sharded by flat index into [leases] (default
    {!Par_fold.default_leases}) contiguous ranges executed on a
    [domains]-domain pool (default 1), with per-lease partial sums
    merged in lease order: for fixed [(points, leases)] the result is
    bit-identical for every worker count ([domains:1] = [domains:8]).
    Changing [leases] regroups the partial sums and may move the last
    ulp.  Per-lease ["engine.grid.lease"] spans ride the tracing plane.
    See docs/PARALLELISM.md.

    [cancel] is a cooperative cancellation hook consulted once per cell;
    when it returns [true] the sweep raises {!Cancelled} with its
    progress (this is how per-request deadlines reach into the exact
    pipeline — see lib/serve).  Every lease polls the same hook and the
    raise carries the merged progress of all leases.
    @raise Invalid_argument when the model is not crash-foldable or
    [points^n] exceeds [10^8].
    @raise Cancelled when [cancel] fires mid-sweep. *)

val optimize_family :
  ?points:int ->
  ?domains:int ->
  ?leases:int ->
  delta:float ->
  Comm_pattern.t ->
  family:(float array -> Dist_protocol.t) ->
  x0:float array ->
  bounds:(float * float) array ->
  unit ->
  float array * float
(** Nelder-Mead (with bound clamping) over a parametric protocol family,
    scoring each candidate with {!win_probability_grid} (each scoring
    sweep runs on [domains] domains; the simplex itself is
    sequential). Returns the best parameters and their win probability. *)
