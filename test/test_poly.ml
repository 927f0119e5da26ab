(* Tests for polynomials, root isolation and piecewise polynomials. *)

module P = Poly
module R = Rat

let poly = Alcotest.testable P.pp P.equal
let rat = Alcotest.testable R.pp R.equal

let gen_rat_small =
  QCheck.Gen.(
    let* num = int_range (-20) 20 in
    let* den = int_range 1 10 in
    return (R.of_ints num den))

let gen_poly_upto max_deg =
  QCheck.Gen.(
    let* deg = int_range 0 max_deg in
    let* coeffs = list_repeat (deg + 1) gen_rat_small in
    return (P.of_list coeffs))

let gen_poly = gen_poly_upto 6

let arb_poly = QCheck.make ~print:P.to_string gen_poly
let arb_rat_small = QCheck.make ~print:R.to_string gen_rat_small

let qtest ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------- Poly ------------------------- *)

let poly_unit =
  [
    Alcotest.test_case "degree and trimming" `Quick (fun () ->
      Alcotest.(check int) "zero" (-1) (P.degree P.zero);
      Alcotest.(check int) "constant" 0 (P.degree P.one);
      Alcotest.(check int) "trim" 1 (P.degree (P.of_int_list [ 1; 2; 0; 0 ]));
      Alcotest.check poly "sub to zero" P.zero (P.sub P.x P.x));
    Alcotest.test_case "to_string" `Quick (fun () ->
      Alcotest.(check string) "poly" "7/2*x^3 - 21/2*x^2 + 9*x - 11/6"
        (P.to_string (P.of_string_list [ "-11/6"; "9"; "-21/2"; "7/2" ]));
      Alcotest.(check string) "zero" "0" (P.to_string P.zero);
      Alcotest.(check string) "monic" "x^2 - 2" (P.to_string (P.of_int_list [ -2; 0; 1 ])));
    Alcotest.test_case "divmod exact" `Quick (fun () ->
      (* (x^2 - 1) = (x - 1)(x + 1) *)
      let p = P.of_int_list [ -1; 0; 1 ] in
      let d = P.of_int_list [ -1; 1 ] in
      let q, r = P.divmod p d in
      Alcotest.check poly "quotient" (P.of_int_list [ 1; 1 ]) q;
      Alcotest.check poly "remainder" P.zero r);
    Alcotest.test_case "gcd of products" `Quick (fun () ->
      let a = P.of_int_list [ -1; 1 ] in
      let b = P.of_int_list [ 2; 1 ] in
      let c = P.of_int_list [ 5; 3 ] in
      let g = P.gcd (P.mul a b) (P.mul a c) in
      (* gcd is monic: a is already monic *)
      Alcotest.check poly "common factor" a g);
    Alcotest.test_case "derivative and antiderivative" `Quick (fun () ->
      let p = P.of_string_list [ "1/6"; "0"; "3/2"; "-1/2" ] in
      Alcotest.check poly "derivative" (P.of_string_list [ "0"; "3"; "-3/2" ]) (P.derivative p);
      Alcotest.check poly "roundtrip" (P.sub p (P.constant (R.of_string "1/6")))
        (P.antiderivative (P.derivative p)));
    Alcotest.test_case "compose" `Quick (fun () ->
      (* (x+1)^2 = x^2 + 2x + 1 *)
      let sq = P.of_int_list [ 0; 0; 1 ] in
      let xp1 = P.of_int_list [ 1; 1 ] in
      Alcotest.check poly "square shift" (P.of_int_list [ 1; 2; 1 ]) (P.compose sq xp1);
      Alcotest.check poly "linear compose" (P.compose sq xp1)
        (P.compose_linear sq R.one R.one));
    Alcotest.test_case "eval exactness" `Quick (fun () ->
      let p = P.of_string_list [ "-11/6"; "9"; "-21/2"; "7/2" ] in
      Alcotest.check rat "at 1/2" (R.of_string "23/48") (P.eval p R.half));
  ]

let poly_props =
  [
    qtest "ring: mul commutative" (QCheck.pair arb_poly arb_poly) (fun (p, q) ->
      P.equal (P.mul p q) (P.mul q p));
    qtest "ring: mul associative" (QCheck.triple arb_poly arb_poly arb_poly) (fun (p, q, r) ->
      P.equal (P.mul (P.mul p q) r) (P.mul p (P.mul q r)));
    qtest "ring: distributive" (QCheck.triple arb_poly arb_poly arb_poly) (fun (p, q, r) ->
      P.equal (P.mul p (P.add q r)) (P.add (P.mul p q) (P.mul p r)));
    qtest "degree of product" (QCheck.pair arb_poly arb_poly) (fun (p, q) ->
      QCheck.assume (not (P.is_zero p) && not (P.is_zero q));
      P.degree (P.mul p q) = P.degree p + P.degree q);
    qtest "divmod invariant" (QCheck.pair arb_poly arb_poly) (fun (p, d) ->
      QCheck.assume (not (P.is_zero d));
      let q, r = P.divmod p d in
      P.equal p (P.add (P.mul q d) r) && P.degree r < P.degree d);
    qtest "eval is a ring homomorphism"
      (QCheck.triple arb_poly arb_poly arb_rat_small)
      (fun (p, q, v) ->
        R.equal (P.eval (P.mul p q) v) (R.mul (P.eval p v) (P.eval q v))
        && R.equal (P.eval (P.add p q) v) (R.add (P.eval p v) (P.eval q v)));
    qtest "product rule" (QCheck.pair arb_poly arb_poly) (fun (p, q) ->
      P.equal
        (P.derivative (P.mul p q))
        (P.add (P.mul (P.derivative p) q) (P.mul p (P.derivative q))));
    qtest "compose eval" (QCheck.triple arb_poly arb_poly arb_rat_small) (fun (p, q, v) ->
      R.equal (P.eval (P.compose p q) v) (P.eval p (P.eval q v)));
    qtest "gcd divides" (QCheck.pair arb_poly arb_poly) (fun (p, q) ->
      QCheck.assume (not (P.is_zero p) && not (P.is_zero q));
      let g = P.gcd p q in
      P.is_zero (snd (P.divmod p g)) && P.is_zero (snd (P.divmod q g)));
    qtest "eval_float tracks eval" (QCheck.pair arb_poly arb_rat_small) (fun (p, v) ->
      let exact = R.to_float (P.eval p v) in
      abs_float (P.eval_float p (R.to_float v) -. exact) <= 1e-9 *. (1. +. abs_float exact));
  ]

(* ------------------------- Roots ------------------------- *)

let enc_mid (e : Roots.enclosure) = R.to_float (R.mid e.Roots.lo e.Roots.hi)

let roots_unit =
  [
    Alcotest.test_case "sqrt 2" `Quick (fun () ->
      let p = P.of_int_list [ -2; 0; 1 ] in
      match Roots.roots_in p ~lo:(R.of_int 0) ~hi:(R.of_int 2) with
      | [ e ] -> Alcotest.(check (float 1e-12)) "value" (sqrt 2.) (enc_mid e)
      | _ -> Alcotest.fail "expected exactly one root");
    Alcotest.test_case "paper condition beta^2 - 2beta + 6/7" `Quick (fun () ->
      let p = P.of_string_list [ "6/7"; "-2"; "1" ] in
      match Roots.roots_in p ~lo:R.zero ~hi:R.one with
      | [ e ] ->
        Alcotest.(check (float 1e-12)) "1 - sqrt(1/7)" (1. -. sqrt (1. /. 7.)) (enc_mid e)
      | _ -> Alcotest.fail "expected exactly one root");
    Alcotest.test_case "multiple roots collapse" `Quick (fun () ->
      (* (x-1)^2 (x+2): distinct real roots 1 and -2 *)
      let p = P.mul (P.pow (P.of_int_list [ -1; 1 ]) 2) (P.of_int_list [ 2; 1 ]) in
      Alcotest.(check int) "count" 2 (Roots.count_roots p ~lo:(R.of_int (-5)) ~hi:(R.of_int 5));
      let rs = Roots.root_floats p ~lo:(R.of_int (-5)) ~hi:(R.of_int 5) in
      Alcotest.(check int) "isolated" 2 (List.length rs));
    Alcotest.test_case "rational roots found exactly" `Quick (fun () ->
      (* roots 1/3 and -2/5 *)
      let p = P.mul (P.of_int_list [ -1; 3 ]) (P.of_int_list [ 2; 5 ]) in
      let es = Roots.isolate p ~lo:(R.of_int (-1)) ~hi:(R.of_int 1) in
      Alcotest.(check int) "count" 2 (List.length es));
    Alcotest.test_case "roots at interval endpoints" `Quick (fun () ->
      let p = P.mul (P.of_int_list [ 0; 1 ]) (P.of_int_list [ -1; 1 ]) in
      (* roots at exactly 0 and 1 *)
      Alcotest.(check int) "count closed" 2 (Roots.count_roots p ~lo:R.zero ~hi:R.one);
      let es = Roots.isolate p ~lo:R.zero ~hi:R.one in
      Alcotest.(check int) "enclosures" 2 (List.length es);
      List.iter
        (fun (e : Roots.enclosure) ->
          Alcotest.(check bool) "degenerate exact" true (R.equal e.lo e.hi))
        es);
    Alcotest.test_case "root exactly at the first bisection midpoint" `Quick (fun () ->
      (* (x - 1/2)(x^2 - 2)(x + 3) on [0, 1]: 1/2 is the first midpoint the
         bisection probes, and forces the strip-and-recurse path *)
      let p =
        P.mul
          (P.mul (P.of_string_list [ "-1/2"; "1" ]) (P.of_int_list [ -2; 0; 1 ]))
          (P.of_int_list [ 3; 1 ])
      in
      let es = Roots.isolate p ~lo:R.zero ~hi:R.one in
      Alcotest.(check int) "one root in [0,1]" 1 (List.length es);
      (match es with
      | [ e ] ->
        (* refinement's first probe is the midpoint 1/2, an exact root *)
        let e = Roots.refine p e ~eps:(R.of_ints 1 1000) in
        Alcotest.(check bool) "refined to the exact rational" true
          (R.equal e.Roots.lo R.half && R.equal e.Roots.hi R.half)
      | _ -> ());
      (* and over [0,2] both roots appear *)
      let es2 = Roots.isolate p ~lo:R.zero ~hi:R.two in
      Alcotest.(check int) "two roots in [0,2]" 2 (List.length es2));
    Alcotest.test_case "no roots" `Quick (fun () ->
      let p = P.of_int_list [ 1; 0; 1 ] in
      Alcotest.(check int) "x^2+1" 0 (Roots.count_roots p ~lo:(R.of_int (-10)) ~hi:(R.of_int 10)));
    Alcotest.test_case "refine certifies width" `Quick (fun () ->
      let p = P.of_int_list [ -2; 0; 1 ] in
      let eps = R.of_string "1/1000000000000000000000000000000000000000000000000" in
      match Roots.isolate p ~lo:R.zero ~hi:R.two with
      | [ e ] ->
        let e = Roots.refine p e ~eps in
        Alcotest.(check bool) "width below eps" true (R.compare (R.sub e.hi e.lo) eps < 0);
        (* certified: p changes sign across the enclosure *)
        Alcotest.(check bool) "sign change" true
          (R.sign (P.eval p e.lo) * R.sign (P.eval p e.hi) < 0)
      | _ -> Alcotest.fail "expected one root");
    Alcotest.test_case "wilkinson-style clustered roots" `Quick (fun () ->
      (* (x-1)(x-2)...(x-8): isolate all roots *)
      let p =
        List.fold_left
          (fun acc k -> P.mul acc (P.of_int_list [ -k; 1 ]))
          P.one
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      let rs = Roots.root_floats p ~lo:R.zero ~hi:(R.of_int 9) in
      Alcotest.(check int) "count" 8 (List.length rs);
      List.iteri
        (fun i r -> Alcotest.(check (float 1e-9)) (Printf.sprintf "root %d" (i + 1)) (float_of_int (i + 1)) r)
        rs);
  ]

let roots_props =
  [
    qtest ~count:150 "roots found satisfy p ~ 0" arb_poly (fun p ->
      QCheck.assume (P.degree p >= 1);
      let rs = Roots.root_floats p ~lo:(R.of_int (-50)) ~hi:(R.of_int 50) in
      List.for_all
        (fun r ->
          let scale = 1. +. List.fold_left (fun a c -> a +. abs_float (R.to_float c)) 0. (Array.to_list (P.coeffs p)) in
          abs_float (P.eval_float p r) <= 1e-8 *. scale *. Combinat.int_pow (1. +. abs_float r) (P.degree p))
        rs);
    qtest ~count:150 "count matches isolate" arb_poly (fun p ->
      QCheck.assume (P.degree p >= 1);
      let lo = R.of_int (-50) and hi = R.of_int 50 in
      Roots.count_roots p ~lo ~hi = List.length (Roots.isolate p ~lo ~hi));
    qtest ~count:100 "product of distinct linear factors has all roots"
      (QCheck.list_of_size (QCheck.Gen.int_range 1 6) (QCheck.int_range (-20) 20))
      (fun ks ->
        let ks = List.sort_uniq compare ks in
        let p = List.fold_left (fun acc k -> P.mul acc (P.of_int_list [ -k; 1 ])) P.one ks in
        Roots.count_roots p ~lo:(R.of_int (-25)) ~hi:(R.of_int 25) = List.length ks);
    qtest ~count:150 "squarefree has same distinct roots" arb_poly (fun p ->
      QCheck.assume (P.degree p >= 1);
      let sq = P.mul p p in
      let lo = R.of_int (-50) and hi = R.of_int 50 in
      Roots.count_roots p ~lo ~hi = Roots.count_roots sq ~lo ~hi);
  ]

(* ------------------- Roots against the Q-Sturm oracle ------------------- *)

(* The Sturm-sequence isolator Roots used before Descartes bisection, kept
   here as the reference: square-free part by a gcd over Q, Sturm chains
   over Q, recursive bisection at exact midpoints. *)
module Sturm_oracle = struct
  let squarefree p =
    if P.degree p <= 0 then p
    else begin
      let g = P.gcd p (P.derivative p) in
      if P.degree g <= 0 then p else fst (P.divmod p g)
    end

  (* Remove rational roots sitting exactly at [v] by dividing out (x - v). *)
  let rec strip_root p v =
    if (not (P.is_zero p)) && R.is_zero (P.eval p v) then
      strip_root (fst (P.divmod p (P.linear (R.neg v) R.one))) v
    else p

  let count_roots p ~lo ~hi =
    let p = squarefree p in
    if P.degree p <= 0 then 0
    else begin
      let at_lo = if R.is_zero (P.eval p lo) then 1 else 0 in
      let at_hi = if (not (R.equal lo hi)) && R.is_zero (P.eval p hi) then 1 else 0 in
      let p' = strip_root (strip_root p lo) hi in
      if P.degree p' <= 0 || R.equal lo hi then at_lo + at_hi
      else begin
        let chain = Roots.sturm_chain p' in
        at_lo + at_hi + (Roots.sign_variations chain lo - Roots.sign_variations chain hi)
      end
    end

  let rec isolate p ~lo ~hi =
    let p = squarefree p in
    if P.degree p <= 0 then []
    else begin
      let exact = ref [] in
      let p = ref p in
      if R.is_zero (P.eval !p lo) then begin
        exact := { Roots.lo; hi = lo } :: !exact;
        p := strip_root !p lo
      end;
      if (not (R.equal lo hi)) && R.is_zero (P.eval !p hi) then begin
        exact := { Roots.lo = hi; hi } :: !exact;
        p := strip_root !p hi
      end;
      let p = !p in
      let chain = Roots.sturm_chain p in
      let count a b = Roots.sign_variations chain a - Roots.sign_variations chain b in
      let rec go a b acc =
        let c = count a b in
        if c = 0 then acc
        else if c = 1 then { Roots.lo = a; hi = b } :: acc
        else begin
          let m = R.mid a b in
          if R.is_zero (P.eval p m) then begin
            let stripped = strip_root p m in
            let chain' = Roots.sturm_chain stripped in
            let count' a b = Roots.sign_variations chain' a - Roots.sign_variations chain' b in
            let rec go' a b acc =
              let c = count' a b in
              if c = 0 then acc
              else if c = 1 then { Roots.lo = a; hi = b } :: acc
              else begin
                let m = R.mid a b in
                if R.is_zero (P.eval stripped m) then
                  List.rev_append (isolate stripped ~lo:a ~hi:b) acc
                else go' m b (go' a m acc)
              end
            in
            { Roots.lo = m; hi = m } :: go' m b (go' a m acc)
          end
          else go m b (go a m acc)
        end
      in
      let open_intervals = go lo hi [] in
      List.sort (fun (e1 : Roots.enclosure) e2 -> R.compare e1.lo e2.lo) (!exact @ open_intervals)
    end
end

let enclosures_equal (xs : Roots.enclosure list) (ys : Roots.enclosure list) =
  List.length xs = List.length ys
  && List.for_all2 (fun (x : Roots.enclosure) (y : Roots.enclosure) -> R.equal x.lo y.lo && R.equal x.hi y.hi) xs ys

(* The oracle sorts on [lo] alone, so a point root {m, m} and the interval
   [m, x] beside it come out in the order its recursion left them in.
   Roots.isolate always puts the point first; order the oracle's list the
   same way. *)
let by_lo_then_hi (xs : Roots.enclosure list) =
  List.stable_sort
    (fun (x : Roots.enclosure) (y : Roots.enclosure) ->
      match R.compare x.lo y.lo with 0 -> R.compare x.hi y.hi | c -> c)
    xs

let show_encs (es : Roots.enclosure list) =
  String.concat "; " (List.map (fun (e : Roots.enclosure) -> R.to_string e.lo ^ ".." ^ R.to_string e.hi) es)

let linear_factor r = P.of_list [ R.neg r; R.one ]

(* A random interval [lo, hi], lo < hi, with small rational ends. *)
let gen_interval =
  QCheck.Gen.(
    let* lo = gen_rat_small in
    let* w_num = int_range 1 12 in
    let* w_den = int_range 1 6 in
    return (lo, R.add lo (R.of_ints w_num w_den)))

(* A root placed relative to [lo, hi]: an end, a dyadic midpoint of the
   bisection, or a non-dyadic rational inside or near the interval. *)
let gen_root (lo, hi) =
  QCheck.Gen.(
    let w = R.sub hi lo in
    oneof
      [
        return lo;
        return hi;
        (let* k = int_range 1 4 in
         let* j = int_range 1 ((1 lsl k) - 1) in
         return (R.add lo (R.mul w (R.of_ints j (1 lsl k)))));
        (let* j = int_range (-2) 14 in
         let* d = oneofl [ 3; 5; 7; 9; 11 ] in
         return (R.add lo (R.mul w (R.of_ints j d))));
      ])

(* An irreducible quadratic: x^2 - k for a non-square k, or one with no
   real roots. *)
let gen_irreducible_quadratic =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> P.of_int_list [ -k; 0; 1 ]) (oneofl [ 2; 3; 5; 6; 7; 10 ]);
        map (fun (b, c) -> P.of_int_list [ (b * b) + c; 2 * b; 1 ]) (pair (int_range (-3) 3) (int_range 1 5));
        map (fun k -> P.of_list [ R.of_ints (-k) 3; R.zero; R.one ]) (oneofl [ 1; 2; 4; 5 ]);
      ])

(* Products of linear factors at the shapes above (a factor drawn twice
   gives the repeated factors of p * q^2), irreducible quadratics, and a
   random polynomial, on a random interval.  Degrees stay small so that the
   oracle's remainder sequences over Q stay fast. *)
let gen_isolation_case =
  QCheck.Gen.(
    let* iv = gen_interval in
    let* roots = list_size (int_range 0 4) (gen_root iv) in
    let* squared = list_size (int_range 0 1) (gen_root iv) in
    let* quads = list_size (int_range 0 1) gen_irreducible_quadratic in
    let* extra = oneof [ return P.one; gen_poly_upto 3 ] in
    let* scale = map (fun (a, b) -> R.of_ints a b) (pair (oneofl [ -3; -1; 1; 2; 7 ]) (int_range 1 5)) in
    let prod = List.fold_left P.mul (P.constant scale) in
    let p =
      prod
        (List.map linear_factor roots
        @ List.map (fun r -> P.pow (linear_factor r) 2) squared
        @ quads @ [ extra ])
    in
    return (p, iv))

let arb_isolation_case =
  QCheck.make
    ~print:(fun (p, (lo, hi)) -> Printf.sprintf "%s on [%s, %s]" (P.to_string p) (R.to_string lo) (R.to_string hi))
    gen_isolation_case

(* The first prime the modular square-free test tries. *)
let sqf_prime = 1073741789

(* Square-free over Q but not modulo the prime (roots 0 and q collide), or
   with a leading coefficient the prime divides (the test moves to the
   next prime), times a random polynomial. *)
let gen_sqf_case =
  QCheck.Gen.(
    let q = R.of_int sqf_prime in
    let* special =
      oneofl
        [
          P.mul P.x (linear_factor q);
          P.mul (P.of_list [ R.one; R.one ]) (linear_factor (R.add q R.one));
          P.of_list [ R.minus_one; R.zero; q ];
          P.mul (P.of_list [ R.one; q ]) (P.of_int_list [ -2; 0; 1 ]);
          P.one;
        ]
    in
    let* p = gen_poly_upto 3 in
    let* rep = gen_poly_upto 2 in
    let* square = bool in
    return (P.mul special (if square then P.mul p (P.mul rep rep) else p)))

let oracle_props =
  [
    qtest ~count:400 "isolate matches the Q-Sturm oracle" arb_isolation_case (fun (p, (lo, hi)) ->
      let got = Roots.isolate p ~lo ~hi in
      let want = by_lo_then_hi (Sturm_oracle.isolate p ~lo ~hi) in
      enclosures_equal got want
      || QCheck.Test.fail_reportf "got [%s]\nwant [%s]" (show_encs got) (show_encs want));
    qtest ~count:400 "count_roots matches the Q-Sturm oracle" arb_isolation_case (fun (p, (lo, hi)) ->
      Roots.count_roots p ~lo ~hi = Sturm_oracle.count_roots p ~lo ~hi);
    qtest ~count:200 "isolate matches the oracle on random polynomials"
      (QCheck.pair arb_poly (QCheck.make gen_interval))
      (fun (p, (lo, hi)) ->
        enclosures_equal (Roots.isolate p ~lo ~hi) (by_lo_then_hi (Sturm_oracle.isolate p ~lo ~hi))
        && Roots.count_roots p ~lo ~hi = Sturm_oracle.count_roots p ~lo ~hi);
    qtest ~count:150 "refine brackets the oracle's roots" arb_isolation_case (fun (p, (lo, hi)) ->
      let eps = R.of_ints 1 1_000_000 in
      List.for_all
        (fun (e : Roots.enclosure) ->
          let r = Roots.refine p e ~eps in
          R.compare e.lo r.lo <= 0
          && R.compare r.hi e.hi <= 0
          && (R.equal r.lo r.hi || R.compare (R.sub r.hi r.lo) eps < 0)
          && Sturm_oracle.count_roots p ~lo:r.lo ~hi:r.hi = 1)
        (Roots.isolate p ~lo ~hi));
    qtest ~count:100 "modular squarefree equals p / gcd (p, p')"
      (QCheck.make ~print:P.to_string gen_sqf_case)
      (fun p -> P.equal (Roots.squarefree p) (Sturm_oracle.squarefree p));
    qtest ~count:200 "modular squarefree on the isolation shapes" arb_isolation_case (fun (p, _) ->
      P.equal (Roots.squarefree p) (Sturm_oracle.squarefree p));
  ]

let oracle_unit =
  [
    Alcotest.test_case "square-free over Q but not mod the prime" `Quick (fun () ->
      (* x (x - q): the roots 0 and q meet modulo q, so the modular test is
         inconclusive and the gcd over Q decides *)
      let p = P.mul P.x (linear_factor (R.of_int sqf_prime)) in
      Alcotest.check poly "unchanged" p (Roots.squarefree p);
      Alcotest.(check int) "two roots" 2
        (Roots.count_roots p ~lo:R.minus_one ~hi:(R.of_int (sqf_prime + 1)));
      (* and a square whose prime divides the leading coefficient *)
      let q = P.of_list [ R.minus_one; R.zero; R.of_int sqf_prime ] in
      let sq = Roots.squarefree (P.mul q q) in
      Alcotest.(check int) "square stripped" 2 (P.degree sq);
      Alcotest.check poly "as over Q" (Sturm_oracle.squarefree (P.mul q q)) sq);
    Alcotest.test_case "point root before the interval beside it" `Quick (fun () ->
      (* roots 1/2, 1/4 and 1/3 on [0, 1]: 1/2 and 1/4 are midpoints of
         intervals holding several roots, 1/3 is alone in [1/4, 1/2] *)
      let p = List.fold_left P.mul P.one (List.map linear_factor [ R.half; R.of_ints 1 4; R.of_ints 1 3 ]) in
      let got = Roots.isolate p ~lo:R.zero ~hi:R.one in
      let q = R.of_ints 1 4 in
      Alcotest.(check string) "enclosures"
        (show_encs [ { Roots.lo = q; hi = q }; { lo = q; hi = R.half }; { lo = R.half; hi = R.half } ])
        (show_encs got);
      Alcotest.(check bool) "oracle agrees up to that order" true
        (enclosures_equal got (by_lo_then_hi (Sturm_oracle.isolate p ~lo:R.zero ~hi:R.one))));
    Alcotest.test_case "empty interval is rejected" `Quick (fun () ->
      Alcotest.check_raises "isolate" (Invalid_argument "Roots.isolate: empty interval") (fun () ->
        ignore (Roots.isolate P.x ~lo:R.one ~hi:R.zero)));
    Alcotest.test_case "roots telemetry: counters and spans only when enabled" `Quick (fun () ->
      let nodes = Metrics.counter "ddm_roots_descartes_nodes_total" in
      let bisections = Metrics.counter "ddm_roots_bisections_total" in
      let run () = ignore (Roots.roots_in (P.of_int_list [ -2; 0; 0; 1; 1 ]) ~lo:(R.of_int (-3)) ~hi:R.two) in
      let span_names () = List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.spans ()) in
      Metrics.set_enabled false;
      Trace.set_enabled false;
      Trace.clear ();
      let n0 = Metrics.counter_value nodes and b0 = Metrics.counter_value bisections in
      run ();
      Alcotest.(check int) "descartes nodes untouched" n0 (Metrics.counter_value nodes);
      Alcotest.(check int) "bisections untouched" b0 (Metrics.counter_value bisections);
      Alcotest.(check (list string)) "no spans" [] (span_names ());
      Metrics.set_enabled true;
      Trace.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Metrics.set_enabled false;
          Trace.set_enabled false;
          Trace.clear ())
        (fun () ->
          run ();
          Alcotest.(check bool) "descartes nodes counted" true (Metrics.counter_value nodes > n0);
          Alcotest.(check bool) "bisections counted" true (Metrics.counter_value bisections > b0);
          let names = span_names () in
          Alcotest.(check bool) "isolate span" true (List.mem "roots.isolate" names);
          Alcotest.(check bool) "refine span" true (List.mem "roots.refine" names)));
  ]

(* ------------------------- Piecewise ------------------------- *)

let pw_t1 () =
  Piecewise.make
    [
      { Piecewise.lo = R.zero; hi = R.half; poly = P.of_string_list [ "1/6"; "0"; "3/2"; "-1/2" ] };
      { Piecewise.lo = R.half; hi = R.one; poly = P.of_string_list [ "-11/6"; "9"; "-21/2"; "7/2" ] };
    ]

let piecewise_unit =
  [
    Alcotest.test_case "make validates" `Quick (fun () ->
      (try
         ignore
           (Piecewise.make
              [
                { Piecewise.lo = R.zero; hi = R.half; poly = P.one };
                { Piecewise.lo = R.of_string "3/5"; hi = R.one; poly = P.one };
              ]);
         Alcotest.fail "accepted a gap"
       with Invalid_argument _ -> ());
      (try
         ignore (Piecewise.make [ { Piecewise.lo = R.one; hi = R.zero; poly = P.one } ]);
         Alcotest.fail "accepted an empty piece"
       with Invalid_argument _ -> ());
      try
        ignore (Piecewise.make []);
        Alcotest.fail "accepted no pieces"
      with Invalid_argument _ -> ());
    Alcotest.test_case "continuity detection" `Quick (fun () ->
      Alcotest.(check bool) "T1 continuous" true (Piecewise.is_continuous (pw_t1 ()));
      let broken =
        Piecewise.make
          [
            { Piecewise.lo = R.zero; hi = R.half; poly = P.one };
            { Piecewise.lo = R.half; hi = R.one; poly = P.zero };
          ]
      in
      Alcotest.(check bool) "broken" false (Piecewise.is_continuous broken));
    Alcotest.test_case "eval picks correct piece" `Quick (fun () ->
      let pw = pw_t1 () in
      Alcotest.check rat "left" (R.of_string "1/6") (Piecewise.eval pw R.zero);
      Alcotest.check rat "breakpoint consistent" (Piecewise.eval pw R.half)
        (P.eval (P.of_string_list [ "1/6"; "0"; "3/2"; "-1/2" ]) R.half);
      Alcotest.check rat "right" (R.of_string "1/6") (Piecewise.eval pw R.one);
      Alcotest.check_raises "outside" (Invalid_argument "Piecewise.eval: outside domain")
        (fun () -> ignore (Piecewise.eval pw R.two)));
    Alcotest.test_case "maximize T1 (paper Section 5.2.1)" `Quick (fun () ->
      let res = Piecewise.maximize (pw_t1 ()) in
      Alcotest.(check (float 1e-10)) "argmax = 1 - sqrt(1/7)" (1. -. sqrt (1. /. 7.))
        (R.to_float res.Piecewise.argmax);
      Alcotest.(check (float 1e-10)) "P* = 0.5446" 0.544631139671
        (R.to_float res.Piecewise.value);
      (* the optimality condition is a scalar multiple of beta^2 - 2beta + 6/7 *)
      let interior =
        List.filter
          (fun (s : Piecewise.stationary) ->
            R.to_float (R.mid s.location.Roots.lo s.location.Roots.hi) > 0.5)
          res.Piecewise.stationaries
      in
      match interior with
      | [ s ] ->
        let monic = P.scale (R.inv (P.leading s.condition)) s.condition in
        Alcotest.check poly "condition" (P.of_string_list [ "6/7"; "-2"; "1" ]) monic
      | _ -> Alcotest.fail "expected a single stationary point above 1/2");
    Alcotest.test_case "maximize at endpoint" `Quick (fun () ->
      (* strictly increasing: max at right endpoint *)
      let pw = Piecewise.make [ { Piecewise.lo = R.zero; hi = R.one; poly = P.x } ] in
      let res = Piecewise.maximize pw in
      Alcotest.check rat "argmax" R.one res.Piecewise.argmax;
      Alcotest.check rat "value" R.one res.Piecewise.value);
    Alcotest.test_case "map_polys derivative" `Quick (fun () ->
      let d = Piecewise.map_polys P.derivative (pw_t1 ()) in
      Alcotest.check rat "derivative at 1/4"
        (P.eval (P.of_string_list [ "0"; "3"; "-3/2" ]) (R.of_ints 1 4))
        (Piecewise.eval d (R.of_ints 1 4)));
  ]

(* ------------------------- Interval ------------------------- *)

let interval_unit =
  [
    Alcotest.test_case "construction and accessors" `Quick (fun () ->
      let i = Interval.make R.zero R.one in
      Alcotest.check rat "mid" R.half (Interval.mid i);
      Alcotest.check rat "width" R.one (Interval.width i);
      Alcotest.(check bool) "mem" true (Interval.mem R.half i);
      Alcotest.(check bool) "not mem" false (Interval.mem R.two i);
      try
        ignore (Interval.make R.one R.zero);
        Alcotest.fail "accepted inverted interval"
      with Invalid_argument _ -> ());
    Alcotest.test_case "mul sign cases" `Quick (fun () ->
      let i a b = Interval.make (R.of_int a) (R.of_int b) in
      let check name exp got =
        Alcotest.check rat (name ^ " lo") (R.of_int (fst exp)) got.Interval.lo;
        Alcotest.check rat (name ^ " hi") (R.of_int (snd exp)) got.Interval.hi
      in
      check "pos*pos" (2, 12) (Interval.mul (i 1 3) (i 2 4));
      check "mixed" (-12, 12) (Interval.mul (i (-3) 3) (i 2 4));
      check "neg*neg" (2, 12) (Interval.mul (i (-3) (-1)) (i (-4) (-2)));
      check "spanning" (-9, 9) (Interval.mul (i (-3) 3) (i (-2) 3)));
    Alcotest.test_case "eval_poly soundness on samples" `Quick (fun () ->
      let p = P.of_string_list [ "-11/6"; "9"; "-21/2"; "7/2" ] in
      let i = Interval.make R.half R.one in
      let e = Interval.eval_poly p i in
      (* every sampled value must land inside the enclosure *)
      for k = 0 to 20 do
        let v = R.add R.half (R.of_ints k 40) in
        Alcotest.(check bool) "inside" true (Interval.mem (P.eval p v) e)
      done);
    Alcotest.test_case "compare_certain" `Quick (fun () ->
      let i a b = Interval.make (R.of_ints a 10) (R.of_ints b 10) in
      Alcotest.(check (option int)) "lt" (Some (-1)) (Interval.compare_certain (i 0 1) (i 2 3));
      Alcotest.(check (option int)) "gt" (Some 1) (Interval.compare_certain (i 5 6) (i 2 3));
      Alcotest.(check (option int)) "overlap" None (Interval.compare_certain (i 0 3) (i 2 5));
      Alcotest.(check (option int)) "equal points" (Some 0)
        (Interval.compare_certain (Interval.point R.half) (Interval.point R.half)));
  ]

let gen_rat_unit =
  QCheck.Gen.(map2 (fun n d -> R.of_ints n d) (int_range (-50) 50) (int_range 1 50))

let interval_props =
  [
    qtest "arithmetic soundness"
      (QCheck.make
         QCheck.Gen.(
           let* a = gen_rat_unit and* b = gen_rat_unit and* c = gen_rat_unit and* d = gen_rat_unit in
           let* x = gen_rat_unit and* y = gen_rat_unit in
           return (a, b, c, d, x, y)))
      (fun (a, b, c, d, x, y) ->
        let i1 = Interval.make (R.min a b) (R.max a b) in
        let i2 = Interval.make (R.min c d) (R.max c d) in
        (* pick points inside via clamping *)
        let clamp v i = R.max i.Interval.lo (R.min i.Interval.hi v) in
        let p1 = clamp x i1 and p2 = clamp y i2 in
        Interval.mem (R.add p1 p2) (Interval.add i1 i2)
        && Interval.mem (R.sub p1 p2) (Interval.sub i1 i2)
        && Interval.mem (R.mul p1 p2) (Interval.mul i1 i2));
  ]

(* ------------------------- Alg ------------------------- *)

let alg_unit =
  [
    Alcotest.test_case "sqrt2 decimal expansion" `Quick (fun () ->
      let s2 = List.hd (Alg.roots_of (P.of_int_list [ -2; 0; 1 ]) ~lo:R.zero ~hi:R.two) in
      Alcotest.(check string) "30 digits" "1.414213562373095048801688724209"
        (Alg.to_decimal_string ~digits:30 s2);
      Alcotest.(check (float 1e-15)) "to_float" (sqrt 2.) (Alg.to_float s2));
    Alcotest.test_case "rationals stay exact" `Quick (fun () ->
      let a = Alg.of_rat (R.of_ints 3 7) in
      Alcotest.(check (option (Alcotest.testable R.pp R.equal))) "to_rat" (Some (R.of_ints 3 7))
        (Alg.to_rat_opt a);
      Alcotest.(check int) "sign" 1 (Alg.sign a);
      Alcotest.(check string) "decimal" "0.428571" (Alg.to_decimal_string ~digits:6 a));
    Alcotest.test_case "ordering" `Quick (fun () ->
      let root p lo hi = List.hd (Alg.roots_of p ~lo ~hi) in
      let s2 = root (P.of_int_list [ -2; 0; 1 ]) R.zero R.two in
      let s3 = root (P.of_int_list [ -3; 0; 1 ]) R.zero R.two in
      Alcotest.(check int) "sqrt2 < sqrt3" (-1) (Alg.compare s2 s3);
      Alcotest.(check int) "sqrt2 > 1.414" 1
        (Alg.compare s2 (Alg.of_rat (R.of_string "1.414")));
      Alcotest.(check int) "sqrt2 < 1.4143" (-1)
        (Alg.compare s2 (Alg.of_rat (R.of_string "1.4143"))));
    Alcotest.test_case "equality across distinct defining polynomials" `Quick (fun () ->
      let s2 = List.hd (Alg.roots_of (P.of_int_list [ -2; 0; 1 ]) ~lo:R.one ~hi:R.two) in
      let s2' =
        List.hd (Alg.roots_of (P.of_int_list [ -4; 0; 0; 0; 1 ]) ~lo:R.one ~hi:R.two)
      in
      Alcotest.(check bool) "equal" true (Alg.equal s2 s2');
      (* and very close but distinct numbers separate *)
      let near =
        List.hd
          (Alg.roots_of
             (P.of_string_list [ "-2000000001/1000000000"; "0"; "1" ])
             ~lo:R.one ~hi:R.two)
      in
      Alcotest.(check int) "sqrt(2+1e-9) > sqrt2" 1 (Alg.compare near s2));
    Alcotest.test_case "negative algebraic numbers" `Quick (fun () ->
      let neg_s2 =
        List.hd (Alg.roots_of (P.of_int_list [ -2; 0; 1 ]) ~lo:(R.of_int (-2)) ~hi:R.zero)
      in
      Alcotest.(check int) "sign" (-1) (Alg.sign neg_s2);
      Alcotest.(check string) "decimal" "-1.414213562373"
        (Alg.to_decimal_string ~digits:12 neg_s2);
      Alcotest.(check int) "ordering vs positive" (-1)
        (Alg.compare neg_s2 (Alg.of_rat R.zero)));
    Alcotest.test_case "of_root validates isolation" `Quick (fun () ->
      let p = P.of_int_list [ 2; -3; 1 ] in
      (* roots 1 and 2: [0,3] holds both *)
      try
        ignore (Alg.of_root p { Roots.lo = R.zero; hi = R.of_int 3 });
        Alcotest.fail "accepted non-isolating interval"
      with Invalid_argument _ -> ());
    Alcotest.test_case "the paper's beta* as an algebraic number" `Quick (fun () ->
      let cond = P.of_string_list [ "6/7"; "-2"; "1" ] in
      let beta = List.hd (Alg.roots_of cond ~lo:R.zero ~hi:R.one) in
      (* 1 - sqrt(1/7) to 25 certified digits *)
      Alcotest.(check string) "digits" "0.6220355269907727727854834"
        (Alg.to_decimal_string ~digits:25 beta));
    Alcotest.test_case "compare_poly_values certifies value ordering" `Quick (fun () ->
      let q = P.of_string_list [ "-11/6"; "9"; "-21/2"; "7/2" ] in
      let cond = P.of_string_list [ "6/7"; "-2"; "1" ] in
      let beta = List.hd (Alg.roots_of cond ~lo:R.zero ~hi:R.one) in
      (* q at beta_star exceeds q(0.6) and q(0.65), since beta_star is the max *)
      Alcotest.(check int) "vs 0.6" 1
        (Alg.compare_poly_values q beta (Alg.of_rat (R.of_string "0.6")));
      Alcotest.(check int) "vs 0.65" 1
        (Alg.compare_poly_values q beta (Alg.of_rat (R.of_string "0.65"))));
  ]

let alg_props =
  [
    qtest ~count:100 "compare agrees with float compare when far apart"
      (QCheck.pair (QCheck.int_range 2 400) (QCheck.int_range 2 400))
      (fun (a, b) ->
        QCheck.assume (a <> b);
        let root k =
          List.hd
            (Alg.roots_of (P.of_int_list [ -k; 0; 1 ]) ~lo:R.zero ~hi:(R.of_int (k + 1)))
        in
        compare (sqrt (float_of_int a)) (sqrt (float_of_int b))
        = Alg.compare (root a) (root b));
    qtest ~count:50 "to_decimal_string prefix-consistent with to_float"
      (QCheck.int_range 2 200)
      (fun k ->
        QCheck.assume
          (let s = int_of_float (sqrt (float_of_int k)) in
           s * s <> k);
        let r = List.hd (Alg.roots_of (P.of_int_list [ -k; 0; 1 ]) ~lo:R.zero ~hi:(R.of_int k)) in
        let s = Alg.to_decimal_string ~digits:12 r in
        abs_float (float_of_string s -. sqrt (float_of_int k)) < 1e-11);
  ]

(* ------------------------- certified maximize ------------------------- *)

let certified_unit =
  [
    Alcotest.test_case "maximize_certified matches maximize on T1" `Quick (fun () ->
      let pw = pw_t1 () in
      let plain = Piecewise.maximize pw in
      let cert = Piecewise.maximize_certified pw in
      Alcotest.(check (float 1e-12)) "argmax" (R.to_float plain.Piecewise.argmax)
        (Alg.to_float cert.Piecewise.arg);
      Alcotest.(check bool) "value inside enclosure" true
        (Interval.mem plain.Piecewise.value cert.Piecewise.value_enclosure
        || R.compare
             (R.abs (R.sub plain.Piecewise.value (Interval.mid cert.Piecewise.value_enclosure)))
             (R.of_string "1/1000000000000000000")
           < 0);
      (* P* = 1/6 + 1/sqrt(7): certified decimal *)
      Alcotest.(check string) "certified P* digits" "0.544631139675893893881"
        (R.to_decimal_string ~digits:21 (Interval.mid cert.Piecewise.value_enclosure)));
    Alcotest.test_case "certified argmax is the exact algebraic root" `Quick (fun () ->
      let pw = pw_t1 () in
      let cert = Piecewise.maximize_certified pw in
      (* the arg is a root of the derivative: plugging into the stored
         polynomial's derivative gives an interval containing 0 *)
      let deriv = P.derivative cert.Piecewise.arg_piece in
      let v = Alg.eval_poly_interval deriv cert.Piecewise.arg in
      Alcotest.(check bool) "derivative vanishes" true (Interval.mem R.zero v));
    Alcotest.test_case "endpoint maximum is returned as a rational" `Quick (fun () ->
      let pw = Piecewise.make [ { Piecewise.lo = R.zero; hi = R.one; poly = P.x } ] in
      let cert = Piecewise.maximize_certified pw in
      Alcotest.(check (option (Alcotest.testable R.pp R.equal))) "arg = 1" (Some R.one)
        (Alg.to_rat_opt cert.Piecewise.arg));
  ]

let () =
  Alcotest.run "poly"
    [
      ("poly-unit", poly_unit);
      ("poly-prop", poly_props);
      ("roots-unit", roots_unit);
      ("roots-prop", roots_props);
      ("roots-oracle", oracle_unit);
      ("oracle-prop", oracle_props);
      ("piecewise", piecewise_unit);
      ("interval", interval_unit);
      ("interval-prop", interval_props);
      ("alg", alg_unit);
      ("alg-prop", alg_props);
      ("certified", certified_unit);
    ]
