(** Execution engine for the distributed load-balancing game.

    Runs protocols over a {!Comm_pattern} either by Monte-Carlo simulation of
    actual distributed executions or by deterministic numeric integration
    over the input cube (midpoint rule), and provides a protocol-family
    optimizer used by the communication-trade-off experiment (X1). *)

type outcome = {
  inputs : float array;
  decisions : int array;
  load0 : float;
  load1 : float;
  win : bool;
}

val views : Comm_pattern.t -> float array -> Dist_protocol.view array
(** The per-player views induced by a pattern on a given input vector. *)

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
  ?sampler:(Rng.t -> float) -> Rng.t -> delta:float -> Comm_pattern.t -> Dist_protocol.t -> outcome
(** One distributed play. [sampler] draws each player's private input
    (default [Rng.float01], the paper's U[0,1] model); supplying another
    sampler exercises the paper's Section 6 direction of "more realistic
    assumptions on the distribution of inputs".
    @raise Invalid_argument when the protocol returns a non-finite decide
    output (see {!Dist_protocol.sanitized} to degrade instead). *)

val kernel_spec :
  where:string ->
  ?fault:Mc_kernel.fault ->
  delta:float ->
  Comm_pattern.t ->
  Dist_protocol.t ->
  Mc_kernel.t
(** Translate a protocol with a {!Dist_protocol.local_rule} into a batch
    kernel spec for the pattern's player count.  Shared with
    [Fault_engine]; [where] names the caller in errors.
    @raise Invalid_argument when the protocol has no local rule or its
    parameter count disagrees with the pattern. *)

val no_sampler : where:string -> (Rng.t -> float) option -> unit
(** Reject a custom input sampler on a [~kernel] path (the kernel bakes in
    the paper's U[0,1] input model).  Shared with [Fault_engine]. *)

val win_probability_mc :
  ?sampler:(Rng.t -> float) ->
  ?kernel:bool ->
  ?domains:int ->
  ?leases:int ->
  rng:Rng.t -> samples:int -> delta:float -> Comm_pattern.t -> Dist_protocol.t -> Mc.estimate
(** Monte-Carlo estimate of the win probability. [?domains]/[?leases]
    are {!Mc.probability}'s (default one domain); estimates are
    bit-identical for every worker count at a fixed seed.

    [~kernel:true] routes the run through the batch kernel
    ({!Mc_kernel}): statistically identical to the closure path at the
    same seed, several times faster, same [-j] bit-identity contract.
    [ddm_engine_plays_total] is bumped in aggregate rather than per play.
    @raise Invalid_argument when [~kernel:true] is combined with a custom
    [sampler] or a protocol without a {!Dist_protocol.local_rule}. *)

val win_probability_given : delta:float -> Comm_pattern.t -> Dist_protocol.t -> float array -> float
(** Exact win probability conditioned on the input vector: enumerates the
    [2^n] decision vectors with their probabilities (single branch for
    deterministic protocols). Decision probabilities slightly outside
    [[0,1]] are clamped; a non-finite one raises [Invalid_argument] rather
    than silently poisoning grid integrals with NaN. *)

exception Cancelled of { cells_done : int; cells_total : int }
(** Raised out of a grid integration when its [cancel] hook fires,
    carrying how far the sweep got — the partial-progress metadata a
    deadline-bounded service reports with its 504. *)

val cancel_check_atomic :
  where:string -> (unit -> bool) option -> int Atomic.t -> int -> unit -> unit
(** [cancel_check_atomic ~where cancel done_cells total] builds the
    per-cell cancellation probe shared by the exact grid integrators
    (including {!Fault_engine.win_probability_grid}): a no-op for [None],
    otherwise a thunk that raises {!Cancelled} when the hook returns
    [true].  Progress lives in a shared atomic that every lease bumps, so
    the raise carries the merged [cells_done] across all leases rather
    than one lease's private count.  Exposed for the fault-engine mirror;
    not meant for direct use. *)

val decode_cell : n:int -> points:int -> int -> float array
(** Midpoint coordinates of flat cell [idx] in the row-major enumeration
    of the [points^n] grid (dimension 0 outermost) — the index scheme the
    sharded sweeps lease out.  Exposed for the fault-engine mirror; not
    meant for direct use. *)

val win_probability_grid :
  ?points:int ->
  ?cancel:(unit -> bool) ->
  ?domains:int ->
  ?leases:int ->
  delta:float -> Comm_pattern.t -> Dist_protocol.t -> float
(** Midpoint-rule integration of {!win_probability_given} over [[0,1]^n];
    default 64 points per dimension. Deterministic, so usable inside
    optimizers.

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
    @raise Invalid_argument when [points^n] exceeds [10^8].
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
