(* exact-opt: certified optima through both user entry points,
   Symbolic.sym_threshold_curve + Piecewise.maximize (ddm threshold) and
   Symbolic.optimal_sym_threshold_certified (ddm certify), on two fixed
   instance sets:
   - large: n = 8..10 at delta = n/3, where coefficient growth in bigint,
     rat, poly and roots dominates;
   - sweep: n = 3..6 over delta = n*j/12 for j = 3..8, many small-operand
     calls.
   Every result is printed the way the CLI prints it and compared with the
   pinned CLI output (pins/exact.txt).  No sampling, no serving. *)

open Perfbench

type inst = { n : int; delta : Rat.t }

let large = List.map (fun n -> { n; delta = Rat.of_ints n 3 }) [ 8; 9; 10 ]

let sweep =
  List.concat_map
    (fun n -> List.map (fun j -> { n; delta = Rat.of_ints (n * j) 12 }) [ 3; 4; 5; 6; 7; 8 ])
    [ 3; 4; 5; 6 ]

let pins_path = "perfbench/pins/exact.txt"

(* The seed only permutes the order instances are solved in. *)
let shuffle ~seed l =
  let st = Random.State.make [| 0xE4AC; seed |] in
  List.map (fun x -> (Random.State.bits st, x)) l |> List.sort compare |> List.map snd

(* ------------------- the CLI's output, reproduced ------------------- *)

let header i = Printf.sprintf "instance: n = %d, delta = %s\n" i.n (Rat.to_string i.delta)

let threshold_text i (res : Piecewise.max_result) =
  let b = Buffer.create 512 in
  Buffer.add_string b (header i);
  Printf.bprintf b "certified optimum: beta* = %.12f, P* = %.12f\n" (Rat.to_float res.argmax)
    (Rat.to_float res.value);
  List.iter
    (fun (s : Piecewise.stationary) ->
      let m = Rat.mid s.location.Roots.lo s.location.Roots.hi in
      Printf.bprintf b "stationary point near %.8f: %s = 0 (P = %.8f)\n" (Rat.to_float m)
        (Poly.to_string ~var:"b" (Symbolic.monic_condition s.condition))
        (Rat.to_float s.value))
    res.stationaries;
  Buffer.contents b

let certify_text i (res : Piecewise.certified_max) =
  let digits = 30 in
  let b = Buffer.create 512 in
  Buffer.add_string b (header i);
  Printf.bprintf b "beta* = %s  (certified to %d decimals)\n"
    (Alg.to_decimal_string ~digits res.arg)
    digits;
  (match Alg.to_rat_opt res.arg with
  | Some r -> Printf.bprintf b "beta* is exactly the rational %s\n" (Rat.to_string r)
  | None ->
    Printf.bprintf b "beta* is algebraic: root of %s\n"
      (Poly.to_string ~var:"b" (Alg.polynomial res.arg));
    let approx =
      Rat.best_approximation ~max_den:(Bigint.of_int 100000) (Rat.of_float (Alg.to_float res.arg))
    in
    Printf.bprintf b "best rational approximation (den <= 10^5): %s\n" (Rat.to_string approx));
  let v = res.value_enclosure in
  Printf.bprintf b "P* in [%s,\n      %s]\n"
    (Rat.to_decimal_string ~digits v.Interval.lo)
    (Rat.to_decimal_string ~digits v.Interval.hi);
  Buffer.contents b

(* ------------------------------ solving ----------------------------- *)

let span = Spans.with_span

let solve_threshold i =
  let curve = span "symbolic.curve" (fun () -> Symbolic.sym_threshold_curve ~n:i.n ~delta:i.delta) in
  (curve, span "piecewise.maximize" (fun () -> Piecewise.maximize curve))

let solve_certify i =
  span "symbolic.optimal_certified" (fun () ->
      Symbolic.optimal_sym_threshold_certified ~n:i.n ~delta:i.delta ())

let check_text rep pins i res cert =
  let key = Oracle.pin_key ~n:i.n ~delta:i.delta in
  let expected = Option.value (Hashtbl.find_opt pins key) ~default:"" in
  let got = threshold_text i res ^ certify_text i cert in
  Report.check rep (got = expected)
    (Printf.sprintf "exact %s: output differs from the pin:\n%sexpected:\n%s" key got expected)

(* Solve one instance through both entry points and check both against
   the pins. *)
let solve_checked rep pins i =
  let _, res = span "exact.threshold" (fun () -> solve_threshold i) in
  let cert = span "exact.certify" (fun () -> solve_certify i) in
  check_text rep pins i res cert

let timed f =
  let t0 = Trace.now_mono_s () in
  f ();
  Trace.now_mono_s () -. t0

(* A round's time is the sum of its instances' times.  Each instance starts
   from a compacted heap, as a separate `ddm` process would, so the heap the
   instances before it left (which depends on the seeded order) does not
   bill it; the compaction itself is not timed. *)
let set_round rep pins ~seed set =
  let t =
    List.fold_left
      (fun acc i ->
        Gc.compact ();
        acc +. timed (fun () -> solve_checked rep pins i))
      0. (shuffle ~seed set)
  in
  Report.log "  round: %.3f s" t;
  t

let load_pins () =
  if not (Sys.file_exists pins_path) then failwith (pins_path ^ " is missing");
  Oracle.load_pins pins_path

(* Large rounds take at most ~60% of the budget; sweep rounds fill the
   rest.  At least one round of each. *)
let run rep ~seed ~seconds =
  let pins = load_pins () in
  let t0 = Trace.now_mono_s () in
  let large_t = ref [] and sweep_t = ref [] and r = ref 0 in
  let elapsed () = Trace.now_mono_s () -. t0 in
  let large_total () = List.fold_left ( +. ) 0. !large_t in
  while !large_t = [] || !sweep_t = [] || elapsed () < seconds do
    let remaining = seconds -. elapsed () in
    let want_large =
      !large_t = []
      || (!sweep_t <> [] && large_total () < 0.6 *. elapsed () && remaining > List.hd !large_t)
    in
    let s = seed + !r in
    incr r;
    if want_large then large_t := set_round rep pins ~seed:s large :: !large_t
    else sweep_t := set_round rep pins ~seed:s sweep :: !sweep_t
  done;
  let large_t = Array.of_list !large_t and sweep_t = Array.of_list !sweep_t in
  Report.log "exact-opt: large %s" (Summary.to_string ~unit:" s" (Summary.of_samples large_t));
  Report.log "exact-opt: sweep %s" (Summary.to_string ~unit:" s" (Summary.of_samples sweep_t));
  Report.metric rep "main_ms" ~unit:"ms" (Summary.median large_t *. 1000.);
  Report.metric rep "aux_ms" ~unit:"ms" (Summary.median sweep_t *. 1000.)

(* ------------------------------ traced ------------------------------ *)

let bits z = Bigint.bit_length (Bigint.abs z)
let rat_ints r = [ Rat.num r; Rat.den r ]
let poly_ints p = Array.to_list (Poly.coeffs p) |> List.concat_map rat_ints
let max_bits zs = List.fold_left (fun acc z -> max acc (bits z)) 0 zs

(* ns per call of [op] over consecutive pairs of [xs], median of [reps]
   passes. *)
let pair_ns ~name ~reps xs op =
  let a = Array.of_list xs in
  let pairs = Array.length a - 1 in
  if pairs < 1 then Float.nan
  else
    let pass () =
      let dt =
        span name (fun () ->
            timed (fun () ->
                for k = 0 to pairs - 1 do
                  ignore (Sys.opaque_identity (op a.(k) a.(k + 1)))
                done))
      in
      dt *. 1e9 /. float_of_int pairs
    in
    Summary.median (Array.init reps (fun _ -> pass ()))

(* Layer decomposition of one instance, from the public functions each
   layer exports: the curve, then per piece the derivative's gcd,
   square-free part, Sturm chain, isolation and refinement, with Poly.eval
   timed at the bisection midpoints of each isolating interval. *)
type layers = {
  mutable pieces : int;
  mutable roots : int;
  mutable piece_bits : int;
  mutable sturm_bits : int;
  mutable ints : Bigint.t list;
  mutable rats : Rat.t list;
  mutable eval_us : float list;
}

let decompose acc i =
  let curve = span "symbolic.curve" (fun () -> Symbolic.sym_threshold_curve ~n:i.n ~delta:i.delta) in
  let pieces = Piecewise.pieces curve in
  acc.pieces <- acc.pieces + List.length pieces;
  List.iter
    (fun (p : Piecewise.piece) ->
      let coeffs = Array.to_list (Poly.coeffs p.poly) in
      acc.rats <- coeffs @ acc.rats;
      acc.ints <- poly_ints p.poly @ acc.ints;
      acc.piece_bits <- max acc.piece_bits (max_bits (poly_ints p.poly));
      let d = Poly.derivative p.poly in
      if not (Poly.is_zero d) then begin
        acc.piece_bits <- max acc.piece_bits (max_bits (poly_ints d));
        ignore (span "poly.gcd" (fun () -> Poly.gcd d (Poly.derivative d)));
        let sf = span "roots.squarefree" (fun () -> Roots.squarefree d) in
        let chain = span "roots.sturm_chain" (fun () -> Roots.sturm_chain sf) in
        List.iter
          (fun q ->
            acc.ints <- poly_ints q @ acc.ints;
            acc.sturm_bits <- max acc.sturm_bits (max_bits (poly_ints q)))
          chain;
        let encls = span "roots.isolate" (fun () -> Roots.isolate d ~lo:p.lo ~hi:p.hi) in
        acc.roots <- acc.roots + List.length encls;
        List.iter
          (fun (e : Roots.enclosure) ->
            ignore
              (span "roots.refine" (fun () -> Roots.refine d e ~eps:(Rat.of_string "1/1000000000000000000000000000000")));
            (* bisect the isolating interval ourselves, timing each eval *)
            let lo = ref e.lo and hi = ref e.hi in
            let s_lo = Rat.sign (Poly.eval sf !lo) in
            for _ = 1 to 24 do
              if not (Rat.equal !lo !hi) then begin
                let m = Rat.mid !lo !hi in
                let t0 = Trace.now_mono_s () in
                let v = span "poly.eval" (fun () -> Poly.eval sf m) in
                acc.eval_us <- ((Trace.now_mono_s () -. t0) *. 1e6) :: acc.eval_us;
                if Rat.sign v = s_lo then lo := m else hi := m
              end
            done)
          encls
      end)
    pieces;
  curve

(* [~overhead:true] also measures the trace overhead over the sweep set
   (untraced and traced rounds, interleaved) and reports it. *)
let run_traced rep ~seed ~overhead =
  let pins = load_pins () in
  if overhead then begin
    let plain = ref [] and traced = ref [] in
    for r = 0 to 2 do
      Spans.set_enabled false;
      plain := set_round rep pins ~seed:(seed + r) sweep :: !plain;
      Spans.set_enabled true;
      traced := span "exact.sweep" (fun () -> set_round rep pins ~seed:(seed + r) sweep) :: !traced
    done;
    Report.metric rep "trace.overhead_frac" ~unit:"ratio"
      ((Summary.median (Array.of_list !traced) /. Summary.median (Array.of_list !plain)) -. 1.)
  end;
  (* the large set: both entry points, the certified maximizer alone, and
     the layer decomposition *)
  let acc =
    { pieces = 0; roots = 0; piece_bits = 0; sturm_bits = 0; ints = []; rats = []; eval_us = [] }
  in
  let large_t0 = Trace.now_mono_s () in
  List.iter
    (fun i ->
      span "exact.large" (fun () ->
          let curve = decompose acc i in
          let res = span "piecewise.maximize" (fun () -> Piecewise.maximize curve) in
          let cert =
            span "piecewise.maximize_certified" (fun () -> Piecewise.maximize_certified curve)
          in
          List.iter
            (fun (s : Piecewise.stationary) ->
              acc.piece_bits <- max acc.piece_bits (max_bits (poly_ints s.condition)))
            res.stationaries;
          check_text rep pins i res cert))
    (shuffle ~seed large);
  let large_t1 = Trace.now_mono_s () in
  (* arithmetic on the workload's own coefficients *)
  let ints = List.filter (fun z -> not (Bigint.is_zero z)) acc.ints in
  let by_size = List.sort (fun a b -> compare (bits b) (bits a)) ints in
  let gcd_ns = pair_ns ~name:"bigint.gcd" ~reps:5 ints Bigint.gcd in
  let mul_ns = pair_ns ~name:"bigint.mul" ~reps:5 ints Bigint.mul in
  let divmod_ns =
    pair_ns ~name:"bigint.divmod" ~reps:5 by_size (fun a b ->
        if Bigint.compare (Bigint.abs a) (Bigint.abs b) >= 0 then Bigint.divmod a b
        else Bigint.divmod b a)
  in
  let add_ns = pair_ns ~name:"rat.add" ~reps:5 acc.rats Rat.add in
  let rmul_ns = pair_ns ~name:"rat.mul" ~reps:5 acc.rats Rat.mul in
  (* span totals over the large set *)
  let large_total name =
    List.fold_left
      (fun acc (s : Spans.span) ->
        if s.name = name && s.start >= large_t0 && s.stop <= large_t1 then acc +. (s.stop -. s.start)
        else acc)
      0. (Spans.spans ())
  in
  Report.metric rep "bigint.gcd_ns" ~unit:"ns" gcd_ns;
  Report.metric rep "bigint.mul_ns" ~unit:"ns" mul_ns;
  Report.metric rep "bigint.divmod_ns" ~unit:"ns" divmod_ns;
  Report.metric rep "rat.add_ns" ~unit:"ns" add_ns;
  Report.metric rep "rat.mul_ns" ~unit:"ns" rmul_ns;
  Report.metric rep "poly.gcd_s" ~unit:"s" (large_total "poly.gcd");
  Report.metric rep "poly.eval_us" ~unit:"us" (Summary.median (Array.of_list acc.eval_us));
  Report.metric rep "roots.squarefree_s" ~unit:"s" (large_total "roots.squarefree");
  Report.metric rep "roots.sturm_chain_s" ~unit:"s" (large_total "roots.sturm_chain");
  Report.metric rep "roots.isolate_s" ~unit:"s" (large_total "roots.isolate");
  Report.metric rep "roots.refine_s" ~unit:"s" (large_total "roots.refine");
  Report.metric rep "piecewise.maximize_s" ~unit:"s" (large_total "piecewise.maximize");
  Report.metric rep "piecewise.maximize_certified_s" ~unit:"s"
    (large_total "piecewise.maximize_certified");
  Report.metric rep "symbolic.curve_s" ~unit:"s" (large_total "symbolic.curve");
  Report.metric rep "bigint.max_bits" ~unit:"bits" (float_of_int acc.piece_bits);
  Report.metric rep "poly.sturm_max_bits" ~unit:"bits" (float_of_int acc.sturm_bits);
  Report.metric rep "roots.count" ~unit:"count" (float_of_int acc.roots);
  Report.metric rep "piecewise.pieces" ~unit:"count" (float_of_int acc.pieces)
