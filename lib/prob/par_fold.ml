let default_leases = 64
let recommended_domains () = Domain.recommended_domain_count ()

(* Lease i gets [items / leases] indices plus one of the remainder, so the
   shares differ by at most one and every index is owned by exactly one
   lease.  Ranges are contiguous and in index order: lease i covers
   [start i, start i + count i). *)
let lease_counts ~leases ~items =
  let base = items / leases and extra = items mod leases in
  Array.init leases (fun i -> base + if i < extra then 1 else 0)

let run_leases ?(span = "par.lease") ~domains ~leases run =
  if domains < 1 then invalid_arg "Par_fold.run_leases: domains must be >= 1";
  if leases < 0 then invalid_arg "Par_fold.run_leases: leases must be >= 0";
  let run_lease i = Trace.with_span span (fun () -> run i) in
  if domains = 1 || leases <= 1 then
    (* One worker: the calling domain runs the leases in lease order
       (Array.init applies its function to 0, 1, ... in turn), with no
       cursor or slot traffic; a raise stops it as it would park a pool. *)
    Array.init leases run_lease
  else begin
    let results = Array.make leases None in
    let next = Atomic.make 0 in
    (* Raised exceptions (a worker bug, or a cooperative-cancellation raise
       reaching up through [run]) park the pool: leases already running
       finish or raise on their own, but no new lease starts. *)
    let stop = Atomic.make false in
    let rec worker () =
      if not (Atomic.get stop) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < leases then begin
          (* Slots are disjoint per lease and published to the main
             domain by Domain.join's happens-before edge. *)
          (try results.(i) <- Some (run_lease i)
           with e ->
             Atomic.set stop true;
             raise e);
          worker ()
        end
      end
    in
    let spawned =
      Array.init
        (min (domains - 1) leases)
        (fun _ ->
          Domain.spawn (fun () ->
              worker ();
              (* Hand tracing back to the main domain; an empty list when
                 tracing is off. *)
              Trace.drain ()))
    in
    let main_exn = (try worker (); None with e -> Some e) in
    (* Join every domain even if one raised, so no worker outlives the
       call; re-raise the main domain's exception first. *)
    let joined = Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned in
    Array.iter (function Ok spans -> Trace.absorb spans | Error _ -> ()) joined;
    (match main_exn with Some e -> raise e | None -> ());
    Array.iter (function Error e -> raise e | Ok _ -> ()) joined;
    Array.init leases (fun i ->
        match results.(i) with
        | Some v -> v
        | None ->
          (* Unreachable: a missing slot means some lease raised, and that
             exception was re-raised above. *)
          assert false)
  end

let fold ?(leases = default_leases) ?span ~domains ~items ~init ~step ~merge () =
  if domains < 1 then invalid_arg "Par_fold.fold: domains must be >= 1";
  if leases < 1 then invalid_arg "Par_fold.fold: leases must be >= 1";
  if items < 0 then invalid_arg "Par_fold.fold: items must be >= 0";
  if Logx.would_log Logx.Debug then
    Logx.debug "par.fold.start"
      [ ("domains", Logx.Int domains); ("leases", Logx.Int leases); ("items", Logx.Int items) ];
  let t0 = Trace.now_mono_s () in
  let counts = lease_counts ~leases ~items in
  let starts = Array.make leases 0 in
  for i = 1 to leases - 1 do
    starts.(i) <- starts.(i - 1) + counts.(i - 1)
  done;
  let parts =
    run_leases ?span ~domains ~leases (fun i ->
        let acc = ref (init ()) in
        let hi = starts.(i) + counts.(i) - 1 in
        for k = starts.(i) to hi do
          acc := step !acc k
        done;
        !acc)
  in
  if Logx.would_log Logx.Debug then
    Logx.debug "par.fold.done"
      [ ("items", Logx.Int items); ("wall_s", Logx.Float (Trace.now_mono_s () -. t0)) ];
  Array.fold_left merge (init ()) parts

let sum ?leases ?span ~domains ~items f =
  fold ?leases ?span ~domains ~items
    ~init:(fun () -> 0.)
    ~step:(fun acc k -> acc +. f k)
    ~merge:( +. ) ()
