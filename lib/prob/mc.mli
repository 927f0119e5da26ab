(** Monte-Carlo estimation harness: every closed-form result of the paper is
    cross-checked against simulation through these entry points. *)

type estimate = {
  mean : float;
  stderr : float;
  ci95 : float * float;
  samples : int;
}

val pp_estimate : Format.formatter -> estimate -> unit

val fold :
  ?domains:int ->
  ?leases:int ->
  rng:Rng.t ->
  samples:int ->
  init:(unit -> 'a) ->
  step:('a -> Rng.t -> 'a) ->
  merge:('a -> 'a -> 'a) ->
  unit ->
  'a
(** The seeded-stream fold under every closure sampler.  The [samples]
    draws are partitioned into [?leases] (default
    {!Par_fold.default_leases}) leases by {!Par_fold.lease_counts}; lease
    [i] owns the [i+1]-th [Rng.split] of [rng] ([rng] is advanced by
    exactly [leases] splits) and folds [step] over its share from a fresh
    [init ()].  The leases run on a [?domains]-domain {!Par_fold} pool
    (default 1; the calling domain is one of the workers, so one domain
    spawns nothing) and their accumulators merge in lease order, starting
    from a fresh [init ()].  Which worker ran which lease cannot affect
    the result: it is bit-identical for every [domains >= 1] at a fixed
    [(seed, leases, samples)].  Changing [leases] selects different split
    streams and so a different (equally valid) estimate.

    [merge] must be associative with [init ()] as identity; [step] and the
    closures it captures must be safe to run on another domain.  Each
    lease is an ["mc.par.lease"] trace span.
    @raise Invalid_argument when [domains < 1], [leases < 1], or
    [samples < 0]. *)

val probability :
  ?domains:int ->
  ?leases:int ->
  ?kernel:Mc_kernel.t ->
  rng:Rng.t ->
  samples:int ->
  (Rng.t -> bool) ->
  estimate
(** Bernoulli estimation with a Wilson 95% interval: the share of
    {!fold}'s draws on which the predicate held.  [?domains]/[?leases]
    are {!fold}'s, so the estimate is bit-identical for every worker
    count at a fixed [(seed, leases, samples)] and [~domains:1] (the
    default) is the determinism reference for any [~domains:k].  The
    sampling closure must be safe to run on other domains (pure up to its
    own [Rng.t] draws — all closures in this repository qualify).

    With [?kernel] the closure is never called: the batch kernel
    ({!Mc_kernel.run_par}) plays the spec's game and [wins/samples] is
    the estimate.  The kernel draws in a different order than the scalar
    loop, so its estimate agrees with the closure path statistically
    (same seed, {!agrees}-close), not byte-for-byte; the [-j]
    bit-identity contract above still holds verbatim on the kernel
    path. *)

val expectation :
  ?domains:int ->
  ?leases:int ->
  ?kernel:Mc_kernel.t ->
  rng:Rng.t ->
  samples:int ->
  (Rng.t -> float) ->
  estimate
(** Sample-mean estimation with a normal-approximation 95% interval
    over {!fold}'s draws, merged with {!Stats.merge} in lease order.
    [?domains]/[?leases] behave as in {!probability}.  With [?kernel] the
    closure is never called and the estimated quantity is the kernel
    game's expected {e max bin load}. *)

val agrees : estimate -> float -> bool
(** [agrees e v]: does [v] fall within the (slightly widened) 95% interval?
    Used by tests comparing closed forms against simulation. *)
