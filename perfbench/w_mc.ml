(* mc-sample: a fixed sample budget per instance through the three
   Monte-Carlo entry points (Mc_eval's closure path, its batch-kernel path,
   and Fault_engine at a nonzero crash rate), each at -j 1 and at -j nproc.
   The prob, engine and faults layers do the work; the exact stack idles. *)

open Perfbench

let crash = Rat.of_ints 1 10

type inst = {
  name : string;
  n : int;
  delta : float;
  rule : Model.rule;
  proto : Dist_protocol.t option;  (** for the fault path; [None] skips it *)
  kernel : bool;  (** the rule has a batch-kernel form *)
  p_exact : float Lazy.t;  (** Theorem 4.1/5.1 closed form, or the banded evaluator *)
  p_crash : float Lazy.t;  (** exact fold over the number of crashed players *)
}

(* Under Drop crashes the k crashed players' inputs reach neither bin and
   the survivors play the same local rule, so the win probability folds
   exactly over k with the survivors' closed form. *)
let crash_fold ~n survivors_p =
  let c = crash and s = Rat.sub Rat.one crash in
  let sum = ref Rat.zero in
  for k = 0 to n do
    let m = n - k in
    let pm = if m = 0 then Rat.one else survivors_p m in
    let weight = Rat.mul (Rat.of_bigint (Combinat.binomial n k)) (Rat.mul (Rat.pow c k) (Rat.pow s m)) in
    sum := Rat.add !sum (Rat.mul weight pm)
  done;
  Rat.to_float !sum

let threshold name n beta =
  let delta_r = Rat.of_ints n 3 and b = Rat.of_float beta in
  let p m = Threshold.winning_probability_sym_rat ~n:m ~delta:delta_r b in
  {
    name;
    n;
    delta = float_of_int n /. 3.;
    rule = Model.Single_threshold (Array.make n beta);
    proto = Some (Dist_protocol.common_threshold ~n beta);
    kernel = true;
    p_exact = lazy (Rat.to_float (p n));
    p_crash = lazy (crash_fold ~n p);
  }

let oblivious_half name n =
  let delta_r = Rat.of_ints n 3 in
  let p m = Oblivious.winning_probability_uniform_rat ~n:m ~delta:delta_r in
  {
    name;
    n;
    delta = float_of_int n /. 3.;
    rule = Model.Oblivious (Array.make n 0.5);
    proto = Some (Dist_protocol.oblivious (Array.make n 0.5));
    kernel = true;
    p_exact = lazy (Rat.to_float (p n));
    p_crash = lazy (crash_fold ~n p);
  }

(* X3: the optimal banded rule at n = 4, delta = 4/3 (ddm banded), which
   only the closure path can play. *)
let banded_x3 () =
  let r = { Banded.t1 = 0.; t2 = 0.73039; q = 0.786451 } in
  let delta = 4. /. 3. in
  {
    name = "x3-banded4";
    n = 4;
    delta;
    rule = Banded.to_rule r;
    proto = None;
    kernel = false;
    p_exact = lazy (Banded.winning_probability ~n:4 ~delta r);
    p_crash = lazy Float.nan;
  }

(* beta* of Section 5.2 at n = 3 and 6 (ddm threshold) and the numeric
   optimum at n = 12 (Threshold.optimum_sym). *)
let instances () =
  [ threshold "thr3" 3 0.622035526991; threshold "thr6" 6 0.684091544584;
    threshold "thr12" 12 0.701435049177; oblivious_half "obl6" 6; banded_x3 () ]

type path = Default | Kernel | Faulty

let path_name = function Default -> "default" | Kernel -> "kernel" | Faulty -> "faulty"

(* Samples per call, sized so one call at -j 1 takes roughly 0.1-0.4 s. *)
let budget = function Default -> 400_000 | Kernel -> 2_000_000 | Faulty -> 200_000

let applies path i =
  match path with Default -> true | Kernel -> i.kernel | Faulty -> Option.is_some i.proto

let call path i ~domains ~rng =
  let samples = budget path in
  match path with
  | Default ->
    Mc_eval.winning_probability ~domains ~rng ~samples (Model.instance ~n:i.n ~delta:i.delta) i.rule
  | Kernel ->
    Mc_eval.winning_probability ~kernel:true ~domains ~rng ~samples
      (Model.instance ~n:i.n ~delta:i.delta) i.rule
  | Faulty ->
    Fault_engine.win_probability_mc ~domains ~rng ~samples
      ~faults:(Fault_model.crash_only (Rat.to_float crash))
      ~delta:i.delta (Comm_pattern.none ~n:i.n) (Option.get i.proto)

let paths = [ Default; Kernel; Faulty ]

(* One RNG seed per (run seed, round, instance, path). *)
let call_seed ~seed ~round ~inst ~path =
  Hashtbl.hash (seed, round, inst, path_name path) lxor (round lsl 20)

let timed f =
  let t0 = Trace.now_mono_s () in
  let r = f () in
  (r, Trace.now_mono_s () -. t0)

type acc = { mutable wins : int; mutable trials : int }

type round = {
  rate : (path * float) list;  (** -j 1 samples per second, per entry point *)
  par_rate : float;  (** -j nproc samples per second, all entry points *)
  t_j1 : (path * float) list;  (** -j 1 seconds per entry point *)
  t_jn : (path * float) list;
}

(* One round: every applicable (instance, path) at -j 1 then -j nproc on
   the same seed; the two estimates must be bit-identical.  -j 1 outcomes
   are pooled into [pool] for the closed-form check at the end. *)
let round rep ~seed ~nproc ~round:r ~pool ~span insts =
  let t1 = Hashtbl.create 3 and tn = Hashtbl.create 3 and s1 = Hashtbl.create 3 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.) in
  let par_samples = ref 0 and par_time = ref 0. in
  List.iteri
    (fun ii i ->
      List.iter
        (fun path ->
          if applies path i then begin
            let s = call_seed ~seed ~round:r ~inst:ii ~path in
            let name = Printf.sprintf "mc.%s" (path_name path) in
            let e1, d1 =
              span (name ^ ".j1") (fun () -> timed (fun () -> call path i ~domains:1 ~rng:(Rng.create ~seed:s)))
            in
            let en, dn =
              span (name ^ ".jn") (fun () ->
                  timed (fun () -> call path i ~domains:nproc ~rng:(Rng.create ~seed:s)))
            in
            Report.check rep (e1 = en)
              (Printf.sprintf "mc %s %s: -j %d estimate %.17g differs from -j 1 %.17g" i.name
                 (path_name path) nproc en.Mc.mean e1.Mc.mean);
            let a =
              match Hashtbl.find_opt pool (i.name, path) with
              | Some a -> a
              | None ->
                let a = { wins = 0; trials = 0 } in
                Hashtbl.replace pool (i.name, path) a;
                a
            in
            a.wins <- a.wins + int_of_float (Float.round (e1.Mc.mean *. float_of_int e1.Mc.samples));
            a.trials <- a.trials + e1.Mc.samples;
            add t1 path d1;
            add tn path dn;
            add s1 path (float_of_int (budget path));
            par_samples := !par_samples + budget path;
            par_time := !par_time +. dn
          end)
        paths)
    insts;
  let get tbl p = Option.value (Hashtbl.find_opt tbl p) ~default:0. in
  {
    rate = List.map (fun p -> (p, get s1 p /. get t1 p)) paths;
    par_rate = float_of_int !par_samples /. !par_time;
    t_j1 = List.map (fun p -> (p, get t1 p)) paths;
    t_jn = List.map (fun p -> (p, get tn p)) paths;
  }

(* Pooled -j 1 estimates against the exact values.  The per-check z keeps
   the chance of a false alarm anywhere in the run at 0.001. *)
let check_pool rep pool insts =
  let checks = Hashtbl.length pool in
  let z = Oracle.family_z ~alpha:0.001 ~checks in
  List.iter
    (fun i ->
      List.iter
        (fun path ->
          match Hashtbl.find_opt pool (i.name, path) with
          | None -> ()
          | Some a ->
            let p = Lazy.force (if path = Faulty then i.p_crash else i.p_exact) in
            let lo, hi = Stats.wilson_interval ~z ~successes:a.wins ~trials:a.trials () in
            Report.log "  %-10s %-8s %9d plays  est %.6f  exact %.6f  z=%.2f interval [%.6f, %.6f]"
              i.name (path_name path) a.trials
              (float_of_int a.wins /. float_of_int a.trials)
              p z lo hi;
            Report.check rep (lo <= p && p <= hi)
              (Printf.sprintf "mc %s %s: estimate %.6f outside [%.6f, %.6f] around %.6f" i.name
                 (path_name path)
                 (float_of_int a.wins /. float_of_int a.trials)
                 lo hi p))
        paths)
    insts

let no_span _ f = f ()

let run rep ~seed ~seconds ~nproc =
  let insts = instances () in
  let pool = Hashtbl.create 16 in
  let t_end = Trace.now_mono_s () +. seconds in
  let rounds = ref [] and r = ref 0 in
  while !rounds = [] || Trace.now_mono_s () < t_end do
    rounds := round rep ~seed ~nproc ~round:!r ~pool ~span:no_span insts :: !rounds;
    incr r
  done;
  check_pool rep pool insts;
  let rounds = Array.of_list (List.rev !rounds) in
  let med f = Summary.median (Array.map f rounds) in
  Report.log "mc-sample: %d rounds, nproc %d" (Array.length rounds) nproc;
  List.iter
    (fun p ->
      Report.log "  %-8s -j 1: %s" (path_name p)
        (Summary.to_string ~unit:" samples/s"
           (Summary.of_samples (Array.map (fun rd -> List.assoc p rd.rate) rounds))))
    paths;
  Report.log "  all      -j %d: %s" nproc
    (Summary.to_string ~unit:" samples/s" (Summary.of_samples (Array.map (fun rd -> rd.par_rate) rounds)));
  (* wall time of one round's calls, all entry points, at -j 1 and -j nproc *)
  let total l = List.fold_left (fun acc (_, t) -> acc +. t) 0. l in
  Report.metric rep "main_ms" ~unit:"ms" (med (fun rd -> total rd.t_j1) *. 1000.);
  Report.metric rep "aux_ms" ~unit:"ms" (med (fun rd -> total rd.t_jn) *. 1000.)

(* ------------------------------ traced ------------------------------ *)

let per_sample_ns ~samples f =
  let _, dt = timed f in
  dt *. 1e9 /. float_of_int samples

(* [~overhead:true] runs two traced rounds, each after the same round
   untraced, and reports the trace overhead; otherwise one traced round. *)
let run_traced rep ~seed ~nproc ~overhead =
  let insts = instances () in
  let kernel_insts = List.filter (fun i -> i.kernel) insts in
  let pool = Hashtbl.create 16 in
  let span name f = Spans.with_span name f in
  let plain = ref [] and traced = ref [] and rounds = ref [] in
  for r = 0 to if overhead then 1 else 0 do
    let run_round sp = timed (fun () -> round rep ~seed ~nproc ~round:r ~pool ~span:sp insts) in
    if overhead then plain := snd (run_round no_span) :: !plain;
    let rd, d1 = Spans.with_span "mc.round" (fun () -> run_round span) in
    traced := d1 :: !traced;
    rounds := rd :: !rounds
  done;
  check_pool rep pool insts;
  if overhead then
    Report.metric rep "trace.overhead_frac" ~unit:"ratio"
      ((Summary.median (Array.of_list !traced) /. Summary.median (Array.of_list !plain)) -. 1.);
  (* rng fill *)
  let buf = Bigarray.(Array1.create float64 c_layout 4096) in
  let fill = Rng.fill_of (Rng.create ~seed) in
  let fill_ns =
    Array.init 50 (fun _ ->
        Spans.with_span "rng.fill" (fun () ->
            per_sample_ns ~samples:(4096 * 100) (fun () ->
                for _ = 1 to 100 do
                  Rng.fill_float01 fill buf ~pos:0 ~len:4096
                done)))
  in
  (* kernel, direct and through the -j 1 lease path *)
  let ksamples = 2_000_000 in
  let direct = ref 0. and leased = ref 0. in
  List.iter
    (fun i ->
      let spec =
        match i.rule with
        | Model.Single_threshold a -> Mc_kernel.make ~n:i.n ~delta:i.delta (Mc_kernel.Threshold a)
        | Model.Oblivious a -> Mc_kernel.make ~n:i.n ~delta:i.delta (Mc_kernel.Oblivious a)
        | Model.Custom _ -> assert false
      in
      for _ = 1 to 2 do
        let _, d =
          Spans.with_span "mc_kernel.run" (fun () ->
              timed (fun () -> Mc_kernel.run ~rng:(Rng.create ~seed) ~samples:ksamples spec))
        in
        direct := !direct +. d;
        let _, d =
          Spans.with_span "mc_eval.kernel.j1" (fun () ->
              timed (fun () -> call Kernel i ~domains:1 ~rng:(Rng.create ~seed)))
        in
        leased := !leased +. d
      done)
    kernel_insts;
  let kernel_ns = !direct *. 1e9 /. float_of_int (2 * ksamples * List.length kernel_insts) in
  (* the distsim engine's closure sampler on the threshold instances *)
  let esamples = 200_000 in
  let engine_t = ref 0. and engine_n = ref 0 in
  List.iter
    (fun i ->
      match (i.rule, i.proto) with
      | Model.Single_threshold _, Some proto ->
        let _, d =
          Spans.with_span "engine.mc" (fun () ->
              timed (fun () ->
                  Engine.win_probability_mc ~domains:1 ~rng:(Rng.create ~seed) ~samples:esamples
                    ~delta:i.delta (Comm_pattern.none ~n:i.n) proto))
        in
        engine_t := !engine_t +. d;
        engine_n := !engine_n + esamples
      | _ -> ())
    insts;
  let sum_assoc p l = List.fold_left (fun acc rd -> acc +. List.assoc p (l rd)) 0. !rounds in
  let fault_ns =
    sum_assoc Faulty (fun rd -> rd.t_j1)
    *. 1e9
    /. float_of_int
         (List.length !rounds * budget Faulty * List.length (List.filter (applies Faulty) insts))
  in
  let speedup p = sum_assoc p (fun rd -> rd.t_j1) /. sum_assoc p (fun rd -> rd.t_jn) in
  Report.metric rep "rng.fill_ns" ~unit:"ns" (Summary.median fill_ns);
  Report.metric rep "mc_kernel.run_ns_per_sample" ~unit:"ns" kernel_ns;
  Report.metric rep "engine.mc_ns_per_sample" ~unit:"ns"
    (!engine_t *. 1e9 /. float_of_int !engine_n);
  Report.metric rep "fault_engine.mc_ns_per_sample" ~unit:"ns" fault_ns;
  List.iter
    (fun p ->
      Report.metric rep (Printf.sprintf "par_fold.speedup.%s" (path_name p)) ~unit:"ratio" (speedup p))
    paths;
  Report.metric rep "par_fold.overhead_frac" ~unit:"ratio" ((!leased /. !direct) -. 1.)
