(** Batch Monte-Carlo kernel for the 2-bin load game.

    The scalar harness ({!Mc}) estimates by calling a closure
    once per play; this module replaces that inner loop for the game the
    paper studies — [n] players with uniform inputs each pick one of two
    bins, and the play wins when both bin loads stay within the capacity
    [delta].  Draws are produced chunk-wise into structure-of-arrays
    [Bigarray] buffers by the alloc-free {!Rng.fill_float01} stream, bin
    assignment runs straight over the buffers, and win counts, overflow
    counts, a Welford accumulator over the max bin load and an optional
    histogram are fused into a single pass.  On the repository's perf
    workloads this is a multiple-times single-core speedup over the
    closure path (see docs/KERNEL.md and EXPERIMENTS.md X14).

    {b Determinism.} A kernel estimate is a pure function of
    [(seed, leases, samples, spec)].  {!run_par} derives one RNG stream
    per lease (exactly {!Mc.fold}'s discipline) and merges per-lease
    results in lease order, so the result is bit-identical for every
    worker count [>= 1].  The kernel consumes randomness in a different
    order than the scalar path, so kernel estimates agree with scalar
    estimates {e statistically} (pinned through {!Mc.agrees} in tests),
    not byte-for-byte. *)

type rule =
  | Threshold of float array
      (** [Threshold tau]: player [i] picks bin 0 iff its input
          [x <= tau.(i)] — {!Model.Single_threshold} /
          [Dist_protocol.single_threshold] semantics. *)
  | Oblivious of float array
      (** [Oblivious alpha]: player [i] picks bin 0 with probability
          [alpha.(i)], ignoring its input — {!Model.Oblivious} /
          [Dist_protocol.oblivious] semantics (values outside [[0,1]]
          behave as the scalar path: clamped in effect). *)

type fault = private { crash_rate : float; crash_bin : int; noise : float; jitter : float }

val fault :
  ?crash_rate:float -> ?crash_bin:int -> ?noise:float -> ?jitter:float -> unit -> fault
(** Flat fault spec mirroring the kernel-foldable subset of
    [Fault_model.t]: each player crashes independently with probability
    [crash_rate] ([crash_bin = -1] drops its input from both bins —
    [Drop]; [0]/[1] reroute the raw input to that bin — [Default_bin]);
    [noise] perturbs the value a rule {e reads} by [U(-noise, noise)]
    clamped to [[0,1]] while loads keep the raw input; [jitter] judges
    each play against [delta * (1 + U(-jitter, jitter))].  Link faults
    ([link_loss], [stale]) have no kernel dimension because the kernel
    rules are local — they never read another player's value, so link
    faults cannot change any outcome (callers accept and drop them).
    @raise Invalid_argument on a rate outside [[0,1]] or a [crash_bin]
    outside [{-1, 0, 1}]. *)

type t

val make : ?fault:fault -> n:int -> delta:float -> rule -> t
(** Validated play specification.  A [fault] whose every dimension is off
    is normalized away, so the plain (fault-free) loops run.
    @raise Invalid_argument when [n < 1], [delta <= 0], or the rule's
    parameter array is not of length [n]. *)

type result = {
  samples : int;
  wins : int;  (** plays with both loads within the (jittered) capacity *)
  over0 : int;  (** plays where bin 0 overflowed *)
  over1 : int;  (** plays where bin 1 overflowed *)
  loads : Stats.acc;
      (** Welford over the max bin load per play; [Stats.empty] unless the
          run asked for [~loads:true] *)
  hist : Stats.histogram option;
      (** max-bin-load histogram, present iff the run passed [?hist] *)
}

val run : ?hist:int * float * float -> ?loads:bool -> rng:Rng.t -> samples:int -> t -> result
(** One batch run on [rng]'s own stream — the per-lease body of
    {!run_par}, public for single-stream measurement.  [?hist:(bins, lo, hi)] requests the fused
    histogram; [~loads:true] (default false) requests the Welford
    accumulator — both are fused into the same pass, costing only their
    own arithmetic.  Advances [rng] by exactly two draws (the fill-stream
    derivation), regardless of [samples].
    @raise Invalid_argument when [samples < 0]. *)

val run_par :
  ?leases:int ->
  ?hist:int * float * float ->
  ?loads:bool ->
  domains:int ->
  rng:Rng.t ->
  samples:int ->
  t ->
  result
(** Lease-sharded batch run on a {!Par_fold} domain pool: [rng] is
    advanced by exactly [leases] splits, lease [i] runs {!run}'s loop on
    its own stream and share of [samples], and per-lease results merge in
    lease order ({!Stats.merge} / [histogram_merge]) — bit-identical for
    every [domains >= 1] at fixed [(seed, leases, samples)], the same
    contract as {!Mc.fold}.
    @raise Invalid_argument when [domains < 1], [leases < 1], or
    [samples < 0]. *)
