(** Lease-sharded deterministic parallelism: the one domain pool under
    every exact fold and every Monte-Carlo sampler.

    {!fold} shards a pure fold over the index range [0 .. items-1]: the
    range is partitioned into a fixed number of {e leases} (contiguous,
    in index order), worker domains steal whole leases from an atomic
    cursor, each lease folds its own range sequentially, and the main
    domain merges the per-lease accumulators {e in lease order}.  Which
    worker ran which lease therefore cannot affect the result: for a
    fixed [(items, leases)] pair, [domains:1] and [domains:8] produce
    bit-identical values — including for floating-point accumulators,
    because the summation order is a function of the lease partition
    alone.  Changing [leases] regroups the partial sums and may move the
    result by float roundoff (exactly the MC contract, where changing
    [leases] re-derives the split streams).  The stochastic folds
    ({!Mc.fold}, {!Mc_kernel.run_par}) run on {!run_leases} with one
    pre-split RNG stream per lease and the sample budget partitioned by
    {!lease_counts}.

    Exceptions raised by [step] (including cooperative-cancellation
    raises such as [Engine.Cancelled]) park the pool — no new lease
    starts, in-flight leases run to their own completion or raise — and
    propagate to the caller after every worker domain has been joined.

    Observability: [step] may bump {!Metrics} counters (they are
    atomic).  When tracing is enabled each lease is recorded as a span
    (default name ["par.lease"]; callers pass [?span] to label their
    workload) in its worker's domain-local buffer, folded into the main
    domain's profile on join ({!Trace.drain}/{!Trace.absorb}). *)

val default_leases : int
(** 64 — comfortably more leases than any realistic worker count, so the
    pool load-balances even when per-index cost is uneven.  The default
    for the exact folds and the Monte-Carlo samplers alike. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()]: a sensible [-j] value for this
    machine. *)

val lease_counts : leases:int -> items:int -> int array
(** The work partition: lease [i] gets [items / leases] units plus one
    of the remainder, so shares differ by at most one and always sum to
    [items].  {!fold} covers contiguous index ranges of these sizes; the
    Monte-Carlo samplers split their sample budget the same way. *)

val run_leases : ?span:string -> domains:int -> leases:int -> (int -> 'a) -> 'a array
(** [run_leases ~domains ~leases run] executes the [leases] independent
    jobs [run 0 .. run (leases-1)] on a pool of [domains] worker domains
    (the calling domain is one of them, so [domains:1] spawns nothing)
    and returns their results in lease order.  This is the shared
    domain-pool core under {!fold} and {!Mc.fold}; use it directly
    when per-lease work is not an indexed fold (e.g. {!Mc.fold}'s
    per-lease RNG streams).  [run] and the closures it captures must be
    safe to call from another domain.
    @raise Invalid_argument when [domains < 1] or [leases < 0].
    @raise e re-raises the first exception any lease raised (main
    domain's first), after all workers are joined. *)

val fold :
  ?leases:int ->
  ?span:string ->
  domains:int ->
  items:int ->
  init:(unit -> 'a) ->
  step:('a -> int -> 'a) ->
  merge:('a -> 'a -> 'a) ->
  unit ->
  'a
(** [fold ~domains ~items ~init ~step ~merge ()] computes
    [step (... (step (init ()) i_0) ...) i_k] over each lease's
    contiguous index share and merges the per-lease accumulators in
    lease order starting from a fresh [init ()].  [merge] must be
    associative with [init ()] as identity; [step] must be pure up to
    atomic-counter bumps and safe to run on another domain.  Leases in
    excess of [items] simply fold zero indices and contribute an
    [init ()] to the merge.
    @raise Invalid_argument when [domains < 1], [leases < 1], or
    [items < 0]. *)

val sum : ?leases:int -> ?span:string -> domains:int -> items:int -> (int -> float) -> float
(** [sum ~domains ~items f] is [f 0 +. ... +. f (items-1)] with
    per-lease partial sums merged in lease order — the worker-count-
    invariant building block under the parallel grid integrators and the
    2^n subset folds. *)
