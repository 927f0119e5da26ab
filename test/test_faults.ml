(* Tests for the fault-injection stack: fault models, the engine under
   faults (seeded determinism, draw discipline, the exact crash fold and
   its tie rule, metric scope), golden pins of the engine's answers,
   resilient protocol combinators, and the degradation-analysis sweep. *)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let contains s needle =
  let ls = String.length s and ln = String.length needle in
  let rec at i = i + ln <= ls && (String.sub s i ln = needle || at (i + 1)) in
  at 0

(* Metrics are process-global and off by default; measure counter deltas
   with the switch temporarily on. *)
let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

let counter_value name =
  match Metrics.find name with
  | Some { Metrics.value = Metrics.Counter_v v; _ } -> v
  | _ -> 0

(* ------------------------- Fault_model ------------------------- *)

let model_tests =
  [
    Alcotest.test_case "none is none and foldable" `Quick (fun () ->
      Alcotest.(check bool) "is_none" true (Fault_model.is_none Fault_model.none);
      Alcotest.(check bool) "foldable" true (Fault_model.crash_foldable Fault_model.none);
      Fault_model.validate Fault_model.none);
    Alcotest.test_case "validate rejects bad rates" `Quick (fun () ->
      Alcotest.(check bool) "crash > 1" true
        (raises_invalid (fun () -> Fault_model.make ~crash:1.5 ()));
      Alcotest.(check bool) "negative noise" true
        (raises_invalid (fun () -> Fault_model.make ~noise:(-0.1) ()));
      Alcotest.(check bool) "nan loss" true
        (raises_invalid (fun () -> Fault_model.make ~link_loss:Float.nan ()));
      Alcotest.(check bool) "bad default bin" true
        (raises_invalid (fun () ->
           Fault_model.make ~crash:0.1 ~crash_mode:(Fault_model.Default_bin 2) ())));
    Alcotest.test_case "foldability is crash-only" `Quick (fun () ->
      Alcotest.(check bool) "crash only" true
        (Fault_model.crash_foldable (Fault_model.crash_only 0.3));
      Alcotest.(check bool) "with loss" false
        (Fault_model.crash_foldable (Fault_model.make ~crash:0.3 ~link_loss:0.1 ()));
      Alcotest.(check bool) "with jitter" false
        (Fault_model.crash_foldable (Fault_model.make ~jitter:0.2 ())));
    Alcotest.test_case "to_string names every dimension" `Quick (fun () ->
      let s =
        Fault_model.to_string
          (Fault_model.make ~crash:0.25 ~crash_mode:(Fault_model.Default_bin 1) ~link_loss:0.1
             ~stale:0.05 ~noise:0.01 ~jitter:0.2 ())
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "%S mentions %S" s needle) true (contains s needle))
        [ "crash=0.25"; "bin1"; "loss=0.1"; "stale=0.05"; "noise=0.01"; "jitter=0.2" ]);
  ]

(* ------------------------- Engine under faults ------------------------- *)

let all_faults =
  Fault_model.make ~crash:0.2 ~crash_mode:(Fault_model.Default_bin 0) ~link_loss:0.25 ~stale:0.15
    ~noise:0.05 ~jitter:0.1 ()

let outcome_stream ~seed ~plays ~faults ~delta pattern protocol =
  let rng = Rng.create ~seed in
  List.init plays (fun _ -> Engine.run_once ~faults rng ~delta pattern protocol)

let engine_tests =
  [
    Alcotest.test_case "same seed, same outcome stream" `Quick (fun () ->
      let pattern = Comm_pattern.ring ~n:4 in
      let protocol = Dist_protocol.common_threshold ~n:4 0.62 in
      let run () = outcome_stream ~seed:5 ~plays:300 ~faults:all_faults ~delta:1.2 pattern protocol in
      let a = run () and b = run () in
      List.iter2
        (fun (x : Engine.outcome) (y : Engine.outcome) ->
          Alcotest.(check (array (float 0.))) "inputs" x.Engine.inputs y.Engine.inputs;
          Alcotest.(check (array int)) "decisions" x.Engine.decisions
            y.Engine.decisions;
          Alcotest.(check (array bool)) "crashed" x.Engine.crashed y.Engine.crashed;
          Alcotest.(check (float 0.)) "delta_eff" x.Engine.delta_eff
            y.Engine.delta_eff;
          Alcotest.(check (float 0.)) "load0" x.Engine.load0 y.Engine.load0;
          Alcotest.(check bool) "win" x.Engine.win y.Engine.win;
          Alcotest.(check int) "faults" x.Engine.faults y.Engine.faults)
        a b);
    Alcotest.test_case "crash faults are counted and degrade plays" `Quick (fun () ->
      with_metrics (fun () ->
        let before_injected = counter_value "ddm_faults_injected_total" in
        let before_degraded = counter_value "ddm_faults_degraded_plays_total" in
        let rng = Rng.create ~seed:21 in
        let pattern = Comm_pattern.none ~n:3 in
        let protocol = Dist_protocol.fair_coin ~n:3 in
        let faults = Fault_model.crash_only ~mode:(Fault_model.Default_bin 0) 0.5 in
        for _ = 1 to 200 do
          ignore (Engine.run_once ~faults rng ~delta:1. pattern protocol)
        done;
        let injected = counter_value "ddm_faults_injected_total" - before_injected in
        let degraded = counter_value "ddm_faults_degraded_plays_total" - before_degraded in
        Alcotest.(check bool)
          (Printf.sprintf "injected %d near 300" injected)
          true
          (injected > 200 && injected < 400);
        Alcotest.(check bool) "degraded plays counted" true (degraded > 100 && degraded <= 200)));
    Alcotest.test_case "degrade_view: loss removes, stale stays in [0,1]" `Quick (fun () ->
      let rng = Rng.create ~seed:3 in
      let v = { Dist_protocol.me = 0; own = 0.4; others = [ (1, 0.5); (2, 0.6); (3, 0.7) ] } in
      let degrade m =
        let k = ref 0 in
        let dv = Engine.degrade_view rng m ~count:k v in
        (dv, !k)
      in
      let lossy = Fault_model.make ~link_loss:1. () in
      let dv, k = degrade lossy in
      Alcotest.(check int) "all links lost" 3 k;
      Alcotest.(check (list (pair int (float 0.)))) "empty" [] dv.Dist_protocol.others;
      let stale = Fault_model.make ~stale:1. () in
      let dv, k = degrade stale in
      Alcotest.(check int) "all links stale" 3 k;
      Alcotest.(check int) "links kept" 3 (List.length dv.Dist_protocol.others);
      List.iter
        (fun (j, x) ->
          Alcotest.(check bool) "index kept" true (List.mem_assoc j v.Dist_protocol.others);
          Alcotest.(check bool) "stale value in [0,1)" true (x >= 0. && x < 1.))
        dv.Dist_protocol.others;
      let noisy = Fault_model.make ~noise:0.2 () in
      let dv, k = degrade noisy in
      Alcotest.(check int) "own + 3 links perturbed" 4 k;
      Alcotest.(check bool) "own moved at most by amplitude" true
        (abs_float (dv.Dist_protocol.own -. 0.4) <= 0.2));
    Alcotest.test_case "degrade_view returns an untouched view as is" `Quick (fun () ->
      (* crash and jitter act on the play, not on a view: the view must
         come back physically unchanged, with no draw *)
      let rng = Rng.create ~seed:4 and ref_rng = Rng.create ~seed:4 in
      let v = { Dist_protocol.me = 0; own = 0.4; others = [ (1, 0.5) ] } in
      let k = ref 0 in
      List.iter
        (fun m ->
          Alcotest.(check bool) (Fault_model.to_string m) true
            (Engine.degrade_view rng m ~count:k v == v))
        [ Fault_model.none; Fault_model.make ~crash:0.5 ~jitter:0.3 () ];
      Alcotest.(check int) "no events" 0 !k;
      Alcotest.(check (float 0.)) "no draws" (Rng.float01 ref_rng) (Rng.float01 rng));
    Alcotest.test_case "crash=1 drop always wins; crash=1 bin0 wins iff total fits" `Quick
      (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.common_threshold ~n:3 0.622 in
      let p_drop =
        Engine.win_probability_given ~faults:(Fault_model.crash_only 1.) ~delta:1. pattern
          protocol [| 0.9; 0.8; 0.7 |]
      in
      Alcotest.(check (float 1e-12)) "drop sheds all load" 1. p_drop;
      let bin0 r inputs =
        Engine.win_probability_given
          ~faults:(Fault_model.crash_only ~mode:(Fault_model.Default_bin 0) r)
          ~delta:1. pattern protocol inputs
      in
      Alcotest.(check (float 1e-12)) "total 0.9 fits in bin 0" 1. (bin0 1. [| 0.4; 0.3; 0.2 |]);
      Alcotest.(check (float 1e-12)) "total 1.2 overflows bin 0" 0. (bin0 1. [| 0.5; 0.4; 0.3 |]));
    Alcotest.test_case "zero-rate fold equals the clean enumeration" `Quick (fun () ->
      (* the clean enumeration written out here: every decision vector d,
         weighted by prod alpha_i^[d_i=0] (1-alpha_i)^[d_i=1] *)
      let alpha = [| 0.2; 0.4; 0.6; 0.8 |] in
      let pattern = Comm_pattern.none ~n:4 in
      let protocol = Dist_protocol.oblivious alpha in
      let clean inputs =
        let acc = ref 0. in
        for d = 0 to 15 do
          let w = ref 1. and l0 = ref 0. and l1 = ref 0. in
          Array.iteri
            (fun i x ->
              if d land (1 lsl i) = 0 then begin
                w := !w *. alpha.(i);
                l0 := !l0 +. x
              end
              else begin
                w := !w *. (1. -. alpha.(i));
                l1 := !l1 +. x
              end)
            inputs;
          if !l0 <= 1.3 && !l1 <= 1.3 then acc := !acc +. !w
        done;
        !acc
      in
      let rng = Rng.create ~seed:33 in
      for _ = 1 to 50 do
        let inputs = Array.init 4 (fun _ -> Rng.float01 rng) in
        Alcotest.(check (float 1e-12)) "fold = clean" (clean inputs)
          (Engine.win_probability_given ~faults:(Fault_model.crash_only 0.) ~delta:1.3 pattern
             protocol inputs)
      done);
    Alcotest.test_case "crash grid tends to the fault-free grid" `Quick (fun () ->
      (* midpoints at 12 points are not dyadic, so cell sums land exactly
         on delta; the crash fold must judge those ties by the fault-free
         leaf test, or a vanishing crash rate jumps by 0.002 *)
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.oblivious [| 0.2; 0.35; 0.5 |] in
      let grid faults = Engine.win_probability_grid ~points:12 ~faults ~delta:1. pattern protocol in
      let clean = grid Fault_model.none and tiny = grid (Fault_model.crash_only 1e-9) in
      Alcotest.(check (float 1e-6)) "crash 1e-9 vs none" clean tiny);
    Alcotest.test_case "fault counters move only under faults" `Quick (fun () ->
      with_metrics (fun () ->
        Metrics.reset ();
        let pattern = Comm_pattern.none ~n:3 in
        let protocol = Dist_protocol.common_threshold ~n:3 0.62 in
        let mc ?kernel ?faults samples =
          ignore
            (Engine.win_probability_mc ?kernel ?faults ~rng:(Rng.create ~seed:5) ~samples
               ~delta:1. pattern protocol)
        in
        mc 2_000;
        mc ~kernel:true 3_000;
        ignore (Engine.win_probability_grid ~points:8 ~delta:1. pattern protocol);
        List.iter
          (fun (name, v) ->
            if String.starts_with ~prefix:"ddm_faults_" name then
              Alcotest.(check int) (name ^ " after fault-free runs") 0 v)
          (Metrics.counter_samples ());
        Alcotest.(check int) "engine plays" 5_000 (counter_value "ddm_engine_plays_total");
        Alcotest.(check int) "grid cells" 512 (counter_value "ddm_engine_grid_cells_total");
        mc ~faults:(Fault_model.crash_only 0.05) 4_000;
        Alcotest.(check int) "engine plays under crash" 9_000
          (counter_value "ddm_engine_plays_total");
        Alcotest.(check int) "fault plays under crash" 4_000
          (counter_value "ddm_faults_plays_total");
        ignore
          (Engine.win_probability_grid ~points:8 ~faults:(Fault_model.crash_only 0.05) ~delta:1.
             pattern protocol);
        Alcotest.(check int) "crash grid cells" 1_024 (counter_value "ddm_engine_grid_cells_total");
        Alcotest.(check int) "crash fold branches" (512 * 8)
          (counter_value "ddm_faults_fold_branches_total")));
    Alcotest.test_case "crash fold agrees with Monte-Carlo" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.common_threshold ~n:3 0.622 in
      let faults = Fault_model.crash_only ~mode:(Fault_model.Default_bin 0) 0.3 in
      let exact = Engine.win_probability_grid ~points:128 ~faults ~delta:1. pattern protocol in
      let est =
        Engine.win_probability_mc ~rng:(Rng.create ~seed:41) ~samples:200_000 ~faults
          ~delta:1. pattern protocol
      in
      Alcotest.(check bool)
        (Printf.sprintf "MC %.4f vs fold %.4f" est.Mc.mean exact)
        true (Mc.agrees est exact));
    Alcotest.test_case "non-foldable model is rejected by the fold" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.fair_coin ~n:3 in
      Alcotest.(check bool) "raises" true
        (raises_invalid (fun () ->
           Engine.win_probability_given
             ~faults:(Fault_model.make ~link_loss:0.5 ())
             ~delta:1. pattern protocol [| 0.5; 0.5; 0.5 |])));
    Alcotest.test_case "golden degradation table (n=3, delta=1, beta*)" `Quick (fun () ->
      (* pinned 64-point-grid fold values for the paper's optimal common
         threshold beta* = 1 - 1/sqrt(7) under Default_bin-0 crashes *)
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.common_threshold ~n:3 (1. -. (1. /. sqrt 7.)) in
      let fold r =
        Engine.win_probability_grid ~points:64
          ~faults:(Fault_model.crash_only ~mode:(Fault_model.Default_bin 0) r)
          ~delta:1. pattern protocol
      in
      let golden = [ (0., 0.546798706055); (0.1, 0.523612976073); (0.25, 0.482654571533) ] in
      List.iter
        (fun (r, expected) -> Alcotest.(check (float 1e-9)) (Printf.sprintf "rate %.2f" r) expected (fold r))
        golden;
      let values = List.map (fun (r, _) -> fold r) golden in
      let rec strictly_decreasing = function
        | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
        | _ -> true
      in
      Alcotest.(check bool) "monotone degradation" true (strictly_decreasing values));
  ]

(* ------------------------- golden pins ------------------------- *)

(* Exact bits of the engine's answers, recorded as hex floats: any change
   to the draw order, the fold order or the leaf test of the closure
   sampler, the exact grid or the fault paths moves at least one of them. *)
let golden_tests =
  let pattern = Comm_pattern.none ~n:3 in
  [
    Alcotest.test_case "closure MC at faults none" `Quick (fun () ->
      let est =
        Engine.win_probability_mc ~rng:(Rng.create ~seed:17) ~samples:50_000 ~delta:1. pattern
          (Dist_protocol.common_threshold ~n:3 0.622)
      in
      Alcotest.(check (float 0.)) "mean" 0x1.182fd75e2046cp-1 est.Mc.mean;
      Alcotest.(check (float 0.)) "stderr" 0x1.23c65d1d82005p-9 est.Mc.stderr);
    Alcotest.test_case "run_once stream at faults none" `Quick (fun () ->
      let rng = Rng.create ~seed:9 in
      let protocol = Dist_protocol.oblivious [| 0.3; 0.5; 0.7 |] in
      let l0 = ref 0. and l1 = ref 0. and wins = ref 0 in
      for _ = 1 to 300 do
        let o = Engine.run_once rng ~delta:1. pattern protocol in
        l0 := !l0 +. o.Engine.load0;
        l1 := !l1 +. o.Engine.load1;
        if o.Engine.win then incr wins
      done;
      Alcotest.(check (float 0.)) "load0 sum" 0x1.d6e5a7c271ea6p+7 !l0;
      Alcotest.(check (float 0.)) "load1 sum" 0x1.a9603fdfd2e82p+7 !l1;
      Alcotest.(check int) "wins" 123 !wins);
    Alcotest.test_case "grid at faults none, 12 and 48 points" `Quick (fun () ->
      let protocol = Dist_protocol.oblivious [| 0.2; 0.35; 0.5 |] in
      let grid points = Engine.win_probability_grid ~points ~delta:1. pattern protocol in
      Alcotest.(check (float 0.)) "12 points" 0x1.b6d9b1df623a6p-2 (grid 12);
      Alcotest.(check (float 0.)) "48 points" 0x1.a24bcdf01234fp-2 (grid 48));
    Alcotest.test_case "scalar MC with every fault dimension" `Quick (fun () ->
      let est =
        Engine.win_probability_mc ~rng:(Rng.create ~seed:23) ~samples:40_000
          ~faults:all_faults ~delta:1. (Comm_pattern.full ~n:3)
          (Dist_protocol.weighted_threshold
             ~weights:(Array.make_matrix 3 3 (1. /. 3.))
             ~thresholds:(Array.make 3 0.45))
      in
      Alcotest.(check (float 0.)) "mean" 0x1.4c28f5c28f5c3p-2 est.Mc.mean;
      Alcotest.(check (float 0.)) "stderr" 0x1.32cd009658394p-9 est.Mc.stderr);
    Alcotest.test_case "crash grid, bin 0 at rate 0.3, 64 points" `Quick (fun () ->
      let g =
        Engine.win_probability_grid ~points:64
          ~faults:(Fault_model.crash_only ~mode:(Fault_model.Default_bin 0) 0.3)
          ~delta:1. pattern
          (Dist_protocol.common_threshold ~n:3 (1. -. (1. /. sqrt 7.)))
      in
      Alcotest.(check (float 0.)) "value" 0x1.de92000000041p-2 g);
  ]

(* ------------------------- resilient combinators ------------------------- *)

let nan_protocol =
  Dist_protocol.make ~name:"nan" (fun v -> if v.Dist_protocol.own >= 0. then Float.nan else 0.5)

let combinator_tests =
  [
    Alcotest.test_case "engine rejects non-finite decide outputs" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      Alcotest.(check bool) "run_once raises" true
        (raises_invalid (fun () ->
           Engine.run_once (Rng.create ~seed:1) ~delta:1. pattern nan_protocol));
      Alcotest.(check bool) "win_probability_given raises" true
        (raises_invalid (fun () ->
           Engine.win_probability_given ~delta:1. pattern nan_protocol [| 0.5; 0.5; 0.5 |]));
      Alcotest.(check bool) "under faults too" true
        (raises_invalid (fun () ->
           Engine.run_once ~faults:all_faults (Rng.create ~seed:1) ~delta:1. pattern
             nan_protocol)));
    Alcotest.test_case "sanitized clamps and replaces non-finite outputs" `Quick (fun () ->
      let v = { Dist_protocol.me = 0; own = 0.5; others = [] } in
      let wild =
        Dist_protocol.make ~name:"wild" (fun v ->
          if v.Dist_protocol.own < 0.2 then 1.7
          else if v.Dist_protocol.own < 0.4 then -0.3
          else Float.nan)
      in
      let s = Dist_protocol.sanitized wild in
      Alcotest.(check (float 0.)) "clamp high" 1.
        (Dist_protocol.decide s { v with Dist_protocol.own = 0.1 });
      Alcotest.(check (float 0.)) "clamp low" 0.
        (Dist_protocol.decide s { v with Dist_protocol.own = 0.3 });
      with_metrics (fun () ->
        let before = counter_value "ddm_faults_sanitized_total" in
        Alcotest.(check (float 0.)) "nan -> default" 0.5 (Dist_protocol.decide s v);
        Alcotest.(check int) "counted" (before + 1) (counter_value "ddm_faults_sanitized_total"));
      (* a sanitized NaN protocol becomes usable by the strict engine *)
      let p =
        Engine.win_probability_given ~delta:1. (Comm_pattern.none ~n:3)
          (Dist_protocol.sanitized nan_protocol)
          [| 0.5; 0.5; 0.5 |]
      in
      Alcotest.(check bool) "usable after sanitizing" true (p >= 0. && p <= 1.);
      Alcotest.(check bool) "bad default rejected" true
        (raises_invalid (fun () -> Dist_protocol.sanitized ~default:Float.nan wild)));
    Alcotest.test_case "with_fallback routes incomplete views to the fallback" `Quick (fun () ->
      let full = Comm_pattern.full ~n:3 in
      let inner =
        Dist_protocol.make ~deterministic:true ~name:"needs-links" (fun v ->
          if List.length v.Dist_protocol.others = 2 then 1. else Float.nan)
      in
      let resilient = Dist_protocol.with_fallback ~expected:full inner in
      let complete = { Dist_protocol.me = 0; own = 0.5; others = [ (1, 0.4); (2, 0.6) ] } in
      let broken = { Dist_protocol.me = 0; own = 0.5; others = [ (2, 0.6) ] } in
      Alcotest.(check (float 0.)) "complete view -> inner" 1.
        (Dist_protocol.decide resilient complete);
      with_metrics (fun () ->
        let before = counter_value "ddm_faults_fallbacks_total" in
        Alcotest.(check (float 0.)) "broken view -> fair coin" 0.5
          (Dist_protocol.decide resilient broken);
        Alcotest.(check int) "counted" (before + 1) (counter_value "ddm_faults_fallbacks_total"));
      (* a statically severed pattern triggers the fallback only for the
         affected viewer *)
      let severed = Comm_pattern.filter (fun ~viewer ~source:_ -> viewer <> 0) full in
      let vs = Engine.views severed [| 0.5; 0.4; 0.6 |] in
      Alcotest.(check (float 0.)) "viewer 0 falls back" 0.5
        (Dist_protocol.decide resilient vs.(0));
      Alcotest.(check (float 0.)) "viewer 1 keeps inner" 1.
        (Dist_protocol.decide resilient vs.(1)));
    Alcotest.test_case "retry_under retries then gives up at the attempt cap" `Quick (fun () ->
      let calls = ref 0 in
      let flaky =
        Dist_protocol.make ~name:"flaky" (fun _ ->
          incr calls;
          if !calls <= 2 then failwith "transient" else 0.9)
      in
      let v = { Dist_protocol.me = 0; own = 0.5; others = [] } in
      let ok = Engine.retry_under ~deadline_s:5. ~attempts:5 flaky in
      Alcotest.(check (float 0.)) "third try wins" 0.9 (Dist_protocol.decide ok v);
      Alcotest.(check int) "three calls" 3 !calls;
      let always_bad = Dist_protocol.make ~name:"bad" (fun _ -> failwith "down") in
      with_metrics (fun () ->
        let before = counter_value "ddm_faults_deadline_exceeded_total" in
        Alcotest.(check (float 0.)) "gives up to default" 0.5
          (Dist_protocol.decide (Engine.retry_under ~deadline_s:5. ~attempts:2 always_bad) v);
        Alcotest.(check int) "abandonment counted" (before + 1)
          (counter_value "ddm_faults_deadline_exceeded_total"));
      Alcotest.(check bool) "bad deadline rejected" true
        (raises_invalid (fun () -> Engine.retry_under ~deadline_s:0. flaky)));
    Alcotest.test_case "retry_under re-raises fatal exceptions" `Quick (fun () ->
      (* pre-fix, `with _ -> None` converted resource exhaustion into the
         fallback probability: a protocol blowing the stack looked like a
         healthy 0.5 decision *)
      let v = { Dist_protocol.me = 0; own = 0.5; others = [] } in
      let wrap exn = Engine.retry_under ~deadline_s:5. (Dist_protocol.make ~name:"fatal" (fun _ -> raise exn)) in
      Alcotest.check_raises "Stack_overflow" Stack_overflow (fun () ->
        ignore (Dist_protocol.decide (wrap Stack_overflow) v));
      Alcotest.check_raises "Out_of_memory" Out_of_memory (fun () ->
        ignore (Dist_protocol.decide (wrap Out_of_memory) v));
      (match Dist_protocol.decide (wrap (Assert_failure ("p", 1, 2))) v with
      | _ -> Alcotest.fail "expected Assert_failure to propagate"
      | exception Assert_failure _ -> ());
      (* non-fatal exceptions still retry into the default *)
      Alcotest.(check (float 0.)) "Failure still retried to default" 0.5
        (Dist_protocol.decide (wrap (Failure "transient")) v));
    Alcotest.test_case "faulty MC estimates are worker-count independent" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.common_threshold ~n:3 0.62 in
      let faults = Fault_model.make ~crash:0.1 ~crash_mode:(Fault_model.Default_bin 0) () in
      let est j =
        Engine.win_probability_mc ~domains:j ~rng:(Rng.create ~seed:81) ~samples:20_000
          ~faults ~delta:1. pattern protocol
      in
      let e1 = est 1 in
      Alcotest.(check (float 0.)) "-j 2 bit-identical" e1.Mc.mean (est 2).Mc.mean;
      Alcotest.(check (float 0.)) "-j 4 bit-identical" e1.Mc.mean (est 4).Mc.mean);
    Alcotest.test_case "parametric families validate the deciding player" `Quick (fun () ->
      let v1 = { Dist_protocol.me = 1; own = 0.5; others = [] } in
      Alcotest.(check bool) "oblivious short vector" true
        (raises_invalid (fun () -> Dist_protocol.decide (Dist_protocol.oblivious [| 0.5 |]) v1));
      Alcotest.(check bool) "single_threshold short vector" true
        (raises_invalid (fun () ->
           Dist_protocol.decide (Dist_protocol.single_threshold [| 0.5 |]) v1));
      Alcotest.(check bool) "empty oblivious" true
        (raises_invalid (fun () -> Dist_protocol.oblivious [||]));
      Alcotest.(check bool) "weighted_threshold row/threshold mismatch" true
        (raises_invalid (fun () ->
           Dist_protocol.weighted_threshold
             ~weights:[| [| 1.; 1. |]; [| 1.; 1. |] |]
             ~thresholds:[| 0.5 |]));
      Alcotest.(check bool) "weighted_threshold ragged row" true
        (raises_invalid (fun () ->
           Dist_protocol.weighted_threshold
             ~weights:[| [| 1.; 1. |]; [| 1. |] |]
             ~thresholds:[| 0.5; 0.5 |]));
      (* mismatches raise a named error, not Index out of bounds *)
      (match Dist_protocol.decide (Dist_protocol.oblivious [| 0.5 |]) v1 with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "message %S names the family" msg)
          true (contains msg "oblivious")));
  ]

(* ------------------------- batch kernel path ------------------------- *)

let kernel_tests =
  let pattern = Comm_pattern.none ~n:3 in
  let delta = 1. in
  (* MC vs the 64-point exact fold: inside the Wilson CI, or within the
     grid's own midpoint discretization allowance (same rule Degradation
     uses for its baseline check) *)
  let agrees_with_fold est fold = Mc.agrees est fold || Float.abs (est.Mc.mean -. fold) <= 0.5 /. 64. in
  [
    Alcotest.test_case "kernel crash estimates match the exact fold" `Quick (fun () ->
      let protocol = Dist_protocol.common_threshold ~n:3 0.62 in
      List.iter
        (fun mode ->
          let faults = Fault_model.crash_only ~mode 0.2 in
          let est =
            Engine.win_probability_mc ~kernel:true ~rng:(Rng.create ~seed:71)
              ~samples:120_000 ~faults ~delta pattern protocol
          in
          let fold =
            Engine.win_probability_grid ~points:64 ~faults ~delta pattern protocol
          in
          Alcotest.(check bool)
            (Fault_model.to_string faults)
            true (agrees_with_fold est fold))
        [ Fault_model.Drop; Fault_model.Default_bin 0; Fault_model.Default_bin 1 ]);
    Alcotest.test_case "noise and link faults are inert for oblivious rules" `Quick (fun () ->
      (* noise perturbs only the value a rule reads; an oblivious rule reads
         nothing, and local rules never see other players, so link loss and
         stale reads cannot move the estimate either *)
      let exact = Oblivious.winning_probability_uniform ~n:3 ~delta in
      let faults = Fault_model.make ~noise:0.3 ~link_loss:0.4 ~stale:0.3 () in
      let est =
        Engine.win_probability_mc ~kernel:true ~rng:(Rng.create ~seed:72) ~samples:150_000
          ~faults ~delta pattern (Dist_protocol.fair_coin ~n:3)
      in
      Alcotest.(check bool) "fair coin unmoved" true (Mc.agrees est exact));
    Alcotest.test_case "kernel fault estimates are worker-count bit-identical" `Quick (fun () ->
      let protocol = Dist_protocol.common_threshold ~n:3 0.62 in
      let faults = Fault_model.make ~crash:0.15 ~noise:0.1 ~jitter:0.2 () in
      let est j =
        Engine.win_probability_mc ~kernel:true ~domains:j ~rng:(Rng.create ~seed:73)
          ~samples:40_000 ~faults ~delta pattern protocol
      in
      let e1 = est 1 in
      List.iter
        (fun j ->
          Alcotest.(check (float 0.)) (Printf.sprintf "j=%d" j) e1.Mc.mean (est j).Mc.mean)
        [ 2; 4 ]);
    Alcotest.test_case "kernel requests reject custom samplers" `Quick (fun () ->
      Alcotest.check_raises "sampler"
        (Invalid_argument
           "Engine.win_probability_mc: ~kernel assumes the paper's uniform input model \
            (drop the custom sampler)")
        (fun () ->
          ignore
            (Engine.win_probability_mc ~kernel:true
               ~sampler:(fun rng -> Rng.float01 rng *. 0.5)
               ~rng:(Rng.create ~seed:74) ~samples:100 ~faults:Fault_model.none ~delta pattern
               (Dist_protocol.fair_coin ~n:3))));
  ]

(* ------------------------- Degradation ------------------------- *)

let degradation_tests =
  [
    Alcotest.test_case "sweep: baseline agrees, exact present, monotone" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.common_threshold ~n:3 (1. -. (1. /. sqrt 7.)) in
      let report =
        Degradation.sweep ~grid_points:64 ~rng:(Rng.create ~seed:42) ~samples:30_000
          ~rates:[ 0.; 0.1; 0.25 ]
          ~model_of:(fun r -> Fault_model.crash_only ~mode:(Fault_model.Default_bin 0) r)
          ~delta:1. pattern protocol
      in
      Alcotest.(check bool) "baseline agrees" true report.Degradation.baseline_agrees;
      Alcotest.(check int) "three points" 3 (List.length report.Degradation.points);
      List.iter
        (fun (p : Degradation.point) ->
          Alcotest.(check bool) "exact fold present" true (Option.is_some p.Degradation.exact);
          Alcotest.(check bool) "MC within CI of its own exact fold" true
            (Mc.agrees p.Degradation.estimate (Option.get p.Degradation.exact)))
        report.Degradation.points;
      (match report.Degradation.points with
      | p0 :: _ ->
        Alcotest.(check (float 1e-12)) "rate-0 fold is the baseline"
          report.Degradation.baseline_exact
          (Option.get p0.Degradation.exact)
      | [] -> Alcotest.fail "no points");
      Alcotest.(check bool) "monotone" true (Degradation.monotone_nonincreasing report));
    Alcotest.test_case "rate-0 exact is the baseline, bit for bit" `Quick (fun () ->
      (* the instance where the fault grid's tie rule used to differ: the
         rate-0 point and the baseline run the same functions *)
      let report =
        Degradation.sweep ~grid_points:12 ~rng:(Rng.create ~seed:7) ~samples:2_000
          ~rates:[ 0.; 1e-9; 0.1 ] ~model_of:Fault_model.crash_only ~delta:1.
          (Comm_pattern.none ~n:3)
          (Dist_protocol.oblivious [| 0.2; 0.35; 0.5 |])
      in
      match report.Degradation.points with
      | p0 :: p1 :: _ ->
        Alcotest.(check (float 0.)) "rate 0" report.Degradation.baseline_exact
          (Option.get p0.Degradation.exact);
        Alcotest.(check (float 1e-6)) "rate 1e-9" report.Degradation.baseline_exact
          (Option.get p1.Degradation.exact)
      | _ -> Alcotest.fail "missing points");
    Alcotest.test_case "kernel sweep: baseline agrees, points match their folds" `Quick
      (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.common_threshold ~n:3 (1. -. (1. /. sqrt 7.)) in
      let report =
        Degradation.sweep ~kernel:true ~grid_points:64 ~rng:(Rng.create ~seed:42)
          ~samples:30_000 ~rates:[ 0.; 0.1; 0.25 ]
          ~model_of:(fun r -> Fault_model.crash_only ~mode:(Fault_model.Default_bin 0) r)
          ~delta:1. pattern protocol
      in
      Alcotest.(check bool) "baseline agrees" true report.Degradation.baseline_agrees;
      List.iter
        (fun (p : Degradation.point) ->
          Alcotest.(check bool)
            (Printf.sprintf "rate %.2f within CI of its exact fold" p.Degradation.rate)
            true
            (Mc.agrees p.Degradation.estimate (Option.get p.Degradation.exact)))
        report.Degradation.points;
      Alcotest.(check bool) "monotone" true (Degradation.monotone_nonincreasing report);
      (* a kernel sweep is reproducible per seed like any other *)
      let report' =
        Degradation.sweep ~kernel:true ~grid_points:64 ~rng:(Rng.create ~seed:42)
          ~samples:30_000 ~rates:[ 0.; 0.1; 0.25 ]
          ~model_of:(fun r -> Fault_model.crash_only ~mode:(Fault_model.Default_bin 0) r)
          ~delta:1. pattern protocol
      in
      List.iter2
        (fun (x : Degradation.point) (y : Degradation.point) ->
          Alcotest.(check (float 0.)) "identical MC means" x.Degradation.estimate.Mc.mean
            y.Degradation.estimate.Mc.mean)
        report.Degradation.points report'.Degradation.points);
    Alcotest.test_case "sweep is reproducible per seed" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.fair_coin ~n:3 in
      let run () =
        Degradation.sweep ~grid_points:16 ~rng:(Rng.create ~seed:7) ~samples:5_000
          ~rates:[ 0.; 0.2 ]
          ~model_of:(fun r -> Fault_model.make ~crash:r ~link_loss:0.1 ())
          ~delta:1. pattern protocol
      in
      let a = run () and b = run () in
      List.iter2
        (fun (x : Degradation.point) (y : Degradation.point) ->
          Alcotest.(check (float 0.)) "identical MC means" x.Degradation.estimate.Mc.mean
            y.Degradation.estimate.Mc.mean)
        a.Degradation.points b.Degradation.points;
      (* link loss is active: the model does not fold *)
      List.iter
        (fun (p : Degradation.point) ->
          Alcotest.(check bool) "no exact fold" true (Option.is_none p.Degradation.exact))
        a.Degradation.points);
    Alcotest.test_case "renderers carry every sweep point" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.fair_coin ~n:3 in
      let report =
        Degradation.sweep ~grid_points:16 ~rng:(Rng.create ~seed:3) ~samples:2_000
          ~rates:[ 0.; 0.5 ]
          ~model_of:(fun r -> Fault_model.crash_only ~mode:(Fault_model.Default_bin 0) r)
          ~delta:1. pattern protocol
      in
      let count_lines s = List.length (String.split_on_char '\n' (String.trim s)) in
      Alcotest.(check int) "table: header + 2 points" 3 (count_lines (Degradation.to_table report));
      Alcotest.(check int) "csv: header + 2 points" 3 (count_lines (Degradation.to_csv report)));
  ]

(* ------------------------- ddm chaos CLI ------------------------- *)

let ddm_exe =
  let candidates =
    [
      Filename.concat ".." (Filename.concat "bin" "ddm.exe");
      Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "ddm.exe"));
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let cli_tests =
  [
    Alcotest.test_case "ddm chaos: baseline agrees, faults counted in --metrics json" `Slow
      (fun () ->
      let out = "test_faults_chaos.out" in
      let cmd =
        Printf.sprintf "%s chaos -n 3 --crash 0.1 --samples 20000 --seed 42 --metrics json > %s 2>&1"
          (Filename.quote ddm_exe) out
      in
      Alcotest.(check int) "exit code" 0 (Sys.command cmd);
      let output = read_file out in
      Alcotest.(check bool) "baseline agreement reported" true (contains output "agrees: true");
      let injected_line =
        List.find_opt
          (fun l -> contains l "\"name\":\"ddm_faults_injected_total\"")
          (String.split_on_char '\n' output)
      in
      (match injected_line with
      | None -> Alcotest.fail "no ddm_faults_injected_total in metrics output"
      | Some l ->
        Alcotest.(check bool)
          (Printf.sprintf "nonzero injected counter in %s" l)
          false (contains l "\"value\":0}"));
      Sys.remove out);
    Alcotest.test_case "ddm chaos: default sweep is monotone" `Slow (fun () ->
      let out = "test_faults_chaos_sweep.out" in
      let cmd =
        Printf.sprintf "%s chaos -n 3 --samples 20000 --seed 42 > %s 2>&1"
          (Filename.quote ddm_exe) out
      in
      Alcotest.(check int) "exit code" 0 (Sys.command cmd);
      let output = read_file out in
      Alcotest.(check bool) "monotone verdict" true
        (contains output "degradation monotone (within MC noise): true");
      Alcotest.(check bool) "baseline agreement" true (contains output "agrees: true");
      Sys.remove out);
  ]

(* ------------------------- sharded exact folds ------------------------- *)

(* The exact-path determinism contract on the fault side: the 2^n
   crash-subset fold and the fault grid must be worker-count invariant,
   and a sweep's exact column must not change when it goes wide. *)
let fold_par_tests =
  let n = 4 and delta = 4. /. 3. in
  let pattern = Comm_pattern.none ~n in
  let protocol = Dist_protocol.common_threshold ~n 0.62 in
  let faults = Fault_model.crash_only 0.15 in
  [
    Alcotest.test_case "2^n crash fold is bit-identical across domains 1/2/4" `Quick (fun () ->
      let inputs = [| 0.7; 0.25; 0.55; 0.4 |] in
      let fold j =
        Engine.win_probability_given ~domains:j ~faults ~delta pattern protocol inputs
      in
      let f1 = fold 1 in
      List.iter
        (fun j -> Alcotest.(check (float 0.)) (Printf.sprintf "domains=%d" j) f1 (fold j))
        [ 2; 4 ];
      let seq =
        Engine.win_probability_given ~leases:1 ~faults ~delta pattern protocol inputs
      in
      Alcotest.(check bool) "matches the sequential fold" true (Float.abs (f1 -. seq) < 1e-14);
      (* leases beyond the 16 subsets fold nothing *)
      Alcotest.(check (float 0.)) "leases > subsets" f1
        (Engine.win_probability_given ~domains:3 ~leases:64 ~faults ~delta pattern
           protocol inputs));
    Alcotest.test_case "fault grid is bit-identical across domains 1/2/4" `Quick (fun () ->
      let grid j =
        Engine.win_probability_grid ~points:8 ~domains:j ~faults ~delta pattern protocol
      in
      let g1 = grid 1 in
      List.iter
        (fun j -> Alcotest.(check (float 0.)) (Printf.sprintf "domains=%d" j) g1 (grid j))
        [ 2; 4 ];
      let seq =
        Engine.win_probability_grid ~points:8 ~leases:1 ~faults ~delta pattern protocol
      in
      Alcotest.(check bool) "matches the sequential sweep" true (Float.abs (g1 -. seq) < 1e-12));
    Alcotest.test_case "fault grid cancellation reports merged progress" `Quick (fun () ->
      let calls = Atomic.make 0 in
      let cancel () = Atomic.fetch_and_add calls 1 >= 1_000 in
      try
        ignore
          (Engine.win_probability_grid ~points:8 ~domains:4 ~cancel ~faults ~delta pattern
             protocol);
        Alcotest.fail "sweep outran its cancel hook"
      with Engine.Cancelled { cells_done; cells_total } ->
        Alcotest.(check int) "total is the full grid" 4096 cells_total;
        Alcotest.(check bool)
          (Printf.sprintf "progress %d reflects completed work" cells_done)
          true
          (cells_done >= 500 && cells_done < cells_total));
    Alcotest.test_case "sweep exact column is worker-count invariant" `Quick (fun () ->
      let sweep j =
        Degradation.sweep ~grid_points:8 ~domains:j ~rng:(Rng.create ~seed:21) ~samples:2_000
          ~rates:[ 0.; 0.2 ]
          ~model_of:(fun r -> Fault_model.crash_only r)
          ~delta pattern protocol
      in
      let a = sweep 1 and b = sweep 4 in
      Alcotest.(check (float 0.)) "baseline exact" a.Degradation.baseline_exact
        b.Degradation.baseline_exact;
      List.iter2
        (fun (pa : Degradation.point) (pb : Degradation.point) ->
          Alcotest.(check (option (float 0.))) "exact point" pa.Degradation.exact
            pb.Degradation.exact;
          Alcotest.(check (float 0.)) "mc point" pa.Degradation.estimate.Mc.mean
            pb.Degradation.estimate.Mc.mean)
        a.Degradation.points b.Degradation.points);
  ]

let () =
  Alcotest.run "faults"
    [
      ("model", model_tests);
      ("engine", engine_tests);
      ("golden", golden_tests);
      ("combinators", combinator_tests);
      ("kernel", kernel_tests);
      ("degradation", degradation_tests);
      ("fold-par", fold_par_tests);
      ("cli", cli_tests);
    ]
