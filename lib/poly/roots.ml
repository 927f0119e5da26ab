(* Real-root isolation over exact rationals.

   Isolation, counting and refinement work on the square-free part of a
   polynomial as a primitive integer polynomial.  Roots are isolated by
   Descartes' rule of signs with Vincent-Collins-Akritas bisection, and
   every sign test evaluates the integer polynomial at a rational a/b by
   homogenised Horner, so no path runs a remainder sequence over Q or
   normalises a rational inside a sign test.  [sturm_chain] and
   [sign_variations] remain as the classical reference. *)

module B = Bigint

type enclosure = { lo : Rat.t; hi : Rat.t }

let sturm_chains =
  Metrics.counter ~help:"Sturm chains constructed (reference only; isolation does not use them)"
    "ddm_roots_sturm_chains_total"

let bisections =
  Metrics.counter ~help:"Interval bisection steps during root isolation and refinement"
    "ddm_roots_bisections_total"

let descartes_nodes =
  Metrics.counter ~help:"Descartes sign-variation tests during root isolation"
    "ddm_roots_descartes_nodes_total"

(* ------------------------------------------------------------------ *)
(* Integer polynomials: little-endian Bigint arrays, no trailing zeros. *)
(* ------------------------------------------------------------------ *)

let content z = Array.fold_left (fun g c -> if B.is_one g then g else B.gcd g c) B.zero z

let primitive z =
  let g = content z in
  if B.is_zero g || B.is_one g then z else Array.map (fun c -> B.div c g) z

(* The primitive integer polynomial with the roots of [p]: clear the
   denominators, then divide out the content. *)
let integer_form p =
  let cs = Poly.coeffs p in
  let lcm =
    Array.fold_left
      (fun l c ->
        let d = Rat.den c in
        if B.is_one d then l else B.mul l (B.div d (B.gcd l d)))
      B.one cs
  in
  primitive (Array.map (fun c -> B.mul (Rat.num c) (B.div lcm (Rat.den c))) cs)

(* b^d p(a/b), d = deg p: homogenised Horner, no gcd. *)
let eval_hom z a b =
  let d = Array.length z - 1 in
  if d < 0 then B.zero
  else begin
    let acc = ref z.(d) and bk = ref B.one in
    for i = d - 1 downto 0 do
      bk := B.mul !bk b;
      acc := B.mul !acc a;
      if not (B.is_zero z.(i)) then acc := B.add !acc (B.mul z.(i) !bk)
    done;
    !acc
  end

let zsign z v = B.sign (eval_hom z (Rat.num v) (Rat.den v))

(* z / (b x - a), for a root a/b of z (exact over Z by Gauss's lemma). *)
let div_linear z a b =
  let d = Array.length z - 1 in
  let s = Array.make d B.zero in
  let by_b x = if B.is_one b then x else B.div x b in
  s.(d - 1) <- by_b z.(d);
  for i = d - 1 downto 1 do
    s.(i - 1) <- by_b (B.add z.(i) (B.mul a s.(i)))
  done;
  s

(* Divide out rational roots sitting exactly at [v]. *)
let rec strip z v =
  if Array.length z > 0 && zsign z v = 0 then strip (div_linear z (Rat.num v) (Rat.den v)) v else z

(* z(x + s) by the classical O(d^2) Taylor shift. *)
let taylor_shift z s =
  let a = Array.copy z in
  let d = Array.length a - 1 in
  for i = 0 to d - 1 do
    for j = d - 1 downto i do
      a.(j) <- B.add a.(j) (if B.is_one s then a.(j + 1) else B.mul s a.(j + 1))
    done
  done;
  a

(* ------------------------------------------------------------------ *)
(* Square-free test modulo a word-size prime.                          *)
(* ------------------------------------------------------------------ *)

(* The largest primes below 2^30: residues multiply without overflow. *)
let primes = [ 1073741789; 1073741783; 1073741741 ]

let residue q c =
  let r = B.to_int_exn (B.rem c (B.of_int q)) in
  if r < 0 then r + q else r

let rec pow_mod q b e =
  if e = 0 then 1
  else
    let h = pow_mod q (b * b mod q) (e lsr 1) in
    if e land 1 = 1 then h * b mod q else h

let trim_mod f =
  let n = ref (Array.length f) in
  while !n > 0 && f.(!n - 1) = 0 do
    decr n
  done;
  Array.sub f 0 !n

(* f mod g over Z/q; g has a nonzero leading coefficient. *)
let rem_mod q f g =
  let r = Array.copy f in
  let dg = Array.length g - 1 in
  let inv = pow_mod q g.(dg) (q - 2) in
  for i = Array.length r - 1 downto dg do
    let c = r.(i) * inv mod q in
    if c <> 0 then
      for j = 0 to dg do
        r.(i - dg + j) <- (r.(i - dg + j) - (c * g.(j) mod q) + q) mod q
      done
  done;
  trim_mod (Array.sub r 0 (min dg (Array.length r)))

let rec coprime_mod q f g =
  if Array.length g = 0 then Array.length f = 1 else coprime_mod q g (rem_mod q f g)

(* gcd (z mod q, z' mod q) = 1 for a prime q not dividing lc(z).  A common
   factor over Z survives reduction modulo such a q, so [true] certifies
   that [z] is square-free; [false] is inconclusive. *)
let squarefree_mod z =
  let d = Array.length z - 1 in
  match List.find_opt (fun q -> residue q z.(d) <> 0) primes with
  | None -> false
  | Some q ->
    let f = Array.map (residue q) z in
    coprime_mod q f (trim_mod (Array.init d (fun i -> (i + 1) * f.(i + 1) mod q)))

let squarefree_rat p =
  let g = Poly.gcd p (Poly.derivative p) in
  if Poly.degree g <= 0 then p else fst (Poly.divmod p g)

(* ------------------------------------------------------------------ *)
(* Sturm sequences (the classical reference).                          *)
(* ------------------------------------------------------------------ *)

let sturm_chain p =
  if Poly.is_zero p then []
  else begin
    Metrics.incr sturm_chains;
    let rec go acc p0 p1 =
      if Poly.is_zero p1 then List.rev acc
      else begin
        let r = Poly.neg (snd (Poly.divmod p0 p1)) in
        go (p1 :: acc) p1 r
      end
    in
    go [ p ] p (Poly.derivative p)
  end

let sign_variations chain v =
  let signs = List.filter_map (fun p -> let s = Rat.sign (Poly.eval p v) in if s = 0 then None else Some s) chain in
  let rec count = function
    | a :: (b :: _ as rest) -> (if a <> b then 1 else 0) + count rest
    | _ -> 0
  in
  count signs

(* ------------------------------------------------------------------ *)
(* Descartes / Vincent-Collins-Akritas bisection.                      *)
(* ------------------------------------------------------------------ *)

(* D^d z(lo + (hi - lo) x) as an integer polynomial, D the lcm of the
   denominators of lo and hi: the roots of z in (lo, hi) become the roots
   in (0, 1). *)
let to_unit z lo hi =
  let bl = Rat.den lo and bh = Rat.den hi in
  let g = B.gcd bl bh in
  let a = B.mul (Rat.num lo) (B.div bh g) and c = B.mul (Rat.num hi) (B.div bl g) in
  let dd = B.mul bl (B.div bh g) in
  let d = Array.length z - 1 in
  let r = Array.copy z in
  let pw = ref B.one in
  for i = d - 1 downto 0 do
    pw := B.mul !pw dd;
    r.(i) <- B.mul r.(i) !pw
  done;
  let s = taylor_shift r a in
  let w = B.sub c a in
  let pw = ref B.one in
  for i = 1 to d do
    pw := B.mul !pw w;
    s.(i) <- B.mul s.(i) !pw
  done;
  primitive s

(* Sign variations of (x + 1)^d q(1 / (x + 1)), a bound on the roots of q
   in (0, 1) of the same parity, capped at 2.  The Taylor shift finalises
   one coefficient per pass, so it stops as soon as two variations show. *)
let descartes q =
  Metrics.incr descartes_nodes;
  let d = Array.length q - 1 in
  let a = Array.init (d + 1) (fun i -> q.(d - i)) in
  let v = ref 0 and last = ref 0 in
  let see c =
    let s = B.sign c in
    if s <> 0 then begin
      if !last <> 0 && s <> !last then incr v;
      last := s
    end
  in
  let i = ref 0 in
  while !v < 2 && !i < d do
    for j = d - 1 downto !i do
      a.(j) <- B.add a.(j) a.(j + 1)
    done;
    see a.(!i);
    incr i
  done;
  if !v < 2 then see a.(d);
  !v

(* The bisection tree of (0, 1).  [count] is the exact number of roots in
   a node's open interval; a node's midpoint is never a root of the
   polynomials below it (it is divided out and recorded in [mid_root]). *)
type node = Leaf of int | Split of { count : int; mid_root : bool; left : node; right : node }

let count_of = function Leaf c -> c | Split s -> s.count

(* q has no root at 0 or 1.  Left half: 2^d q(x/2); right half: its
   Taylor shift by 1, 2^d q((x + 1)/2). *)
let rec vca q =
  match descartes q with
  | (0 | 1) as c -> Leaf c
  | _ ->
    Metrics.incr bisections;
    let d = Array.length q - 1 in
    let left = Array.mapi (fun i c -> B.shift_left c (d - i)) q in
    let right = taylor_shift left B.one in
    let mid_root = B.is_zero right.(0) in
    let left, right =
      if mid_root then (div_linear left B.one B.one, Array.sub right 1 d) else (left, right)
    in
    let l = vca left and r = vca right in
    Split { count = count_of l + count_of r + Bool.to_int mid_root; mid_root; left = l; right = r }

(* Each root's enclosure is the topmost node that holds it alone, and a
   root at the midpoint of a node holding several comes back exact: the
   enclosures that bisecting by exact root counts yields.  In increasing
   order, prepended to [tail]. *)
let rec emit node a b tail =
  match node with
  | Split s when s.count >= 2 ->
    let m = Rat.mid a b in
    let right = emit s.right m b tail in
    emit s.left a m (if s.mid_root then { lo = m; hi = m } :: right else right)
  | node -> if count_of node = 0 then tail else { lo = a; hi = b } :: tail

(* ------------------------------------------------------------------ *)
(* The square-free integer form, and the operations on it.             *)
(* ------------------------------------------------------------------ *)

module Sqf = struct
  type t = { poly : Poly.t; z : B.t array }

  (* Degree at most 1 is square-free; otherwise the modular test, and the
     gcd over Q only when it is inconclusive. *)
  let of_poly p =
    let z = integer_form p in
    if Array.length z <= 2 || squarefree_mod z then { poly = p; z }
    else
      let q = squarefree_rat p in
      { poly = q; z = integer_form q }

  let poly t = t.poly
  let sign_at t v = zsign t.z v

  (* Roots exactly at the ends, and the polynomial with them divided out
     (so both ends of the open interval are nonzero). *)
  let ends t ~lo ~hi =
    let strip_at z v =
      let z' = strip z v in
      (z', if Array.length z' < Array.length z then [ { lo = v; hi = v } ] else [])
    in
    let z, at_lo = strip_at t.z lo in
    let z, at_hi = if Rat.equal lo hi then (z, []) else strip_at z hi in
    (at_lo, at_hi, z)

  let tree z ~lo ~hi = if Array.length z <= 1 || Rat.equal lo hi then Leaf 0 else vca (to_unit z lo hi)

  let count t ~lo ~hi =
    if Rat.compare lo hi > 0 then invalid_arg "Roots.count_roots: empty interval";
    if Array.length t.z <= 1 then 0
    else
      let at_lo, at_hi, z = ends t ~lo ~hi in
      List.length at_lo + List.length at_hi + count_of (tree z ~lo ~hi)

  let isolate t ~lo ~hi =
    if Rat.compare lo hi > 0 then invalid_arg "Roots.isolate: empty interval";
    if Array.length t.z <= 1 then []
    else
      Trace.with_span "roots.isolate" @@ fun () ->
      let at_lo, at_hi, z = ends t ~lo ~hi in
      at_lo @ emit (tree z ~lo ~hi) lo hi at_hi

  let refine t e ~eps =
    if Rat.equal e.lo e.hi then e
    else
      Trace.with_span "roots.refine" @@ fun () ->
      let z = strip (strip t.z e.lo) e.hi in
      let s_lo = zsign z e.lo in
      (* A single simple root in the open interval implies a sign change. *)
      let rec go lo hi =
        if Rat.compare (Rat.sub hi lo) eps < 0 then { lo; hi }
        else begin
          Metrics.incr bisections;
          let m = Rat.mid lo hi in
          let s_m = zsign z m in
          if s_m = 0 then { lo = m; hi = m }
          else if s_m = s_lo then go m hi
          else go lo m
        end
      in
      go e.lo e.hi
end

let squarefree p = Sqf.poly (Sqf.of_poly p)
let count_roots p ~lo ~hi = Sqf.count (Sqf.of_poly p) ~lo ~hi
let isolate p ~lo ~hi = Sqf.isolate (Sqf.of_poly p) ~lo ~hi
let refine p e ~eps = if Rat.equal e.lo e.hi then e else Sqf.refine (Sqf.of_poly p) e ~eps

let default_eps = Rat.of_string "1/1000000000000000000000000000000"

let roots_in ?(eps = default_eps) p ~lo ~hi =
  let s = Sqf.of_poly p in
  List.map (fun e -> Sqf.refine s e ~eps) (Sqf.isolate s ~lo ~hi)

let root_floats p ~lo ~hi =
  List.map (fun e -> Rat.to_float (Rat.mid e.lo e.hi)) (roots_in p ~lo ~hi)
