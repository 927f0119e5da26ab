(** Real-root isolation and refinement for {!Poly}.

    Roots are isolated by Descartes' rule of signs with
    Vincent-Collins-Akritas bisection on the square-free part of the
    polynomial, taken as a primitive integer polynomial; sign tests evaluate
    that integer polynomial exactly at rational points. All bounds are exact
    rationals, so root enclosures are certified: each returned interval
    contains exactly one real root of the (square-free part of the)
    polynomial. *)

type enclosure = { lo : Rat.t; hi : Rat.t }
(** A root enclosure; [lo = hi] denotes an exact rational root. *)

val squarefree : Poly.t -> Poly.t
(** [p / gcd (p, p')]: same real roots, all simple. Returns [p] itself when
    a gcd modulo a word-size prime certifies that it is already square-free;
    only otherwise does it compute the gcd over the rationals. *)

val sturm_chain : Poly.t -> Poly.t list
(** Sturm sequence of a square-free polynomial (a reference; isolation does
    not use it). *)

val sign_variations : Poly.t list -> Rat.t -> int

val count_roots : Poly.t -> lo:Rat.t -> hi:Rat.t -> int
(** Number of distinct real roots in the closed interval [[lo, hi]].
    @raise Invalid_argument when [lo > hi]. *)

val isolate : Poly.t -> lo:Rat.t -> hi:Rat.t -> enclosure list
(** Disjoint enclosures, one per distinct real root in [[lo, hi]], in
    increasing order. Each is the topmost interval of the midpoint bisection
    of [[lo, hi]] that holds its root alone; roots at [lo], at [hi], or at
    the midpoint of an interval holding several roots come back exact.
    @raise Invalid_argument when [lo > hi]. *)

val refine : Poly.t -> enclosure -> eps:Rat.t -> enclosure
(** Shrinks an enclosure produced by {!isolate} below width [eps] by sign
    bisection at midpoints. *)

val roots_in : ?eps:Rat.t -> Poly.t -> lo:Rat.t -> hi:Rat.t -> enclosure list
(** [isolate] followed by [refine]; default [eps = 10^-30]. *)

val root_floats : Poly.t -> lo:Rat.t -> hi:Rat.t -> float list
(** Double-precision approximations of all distinct real roots in the
    interval. *)

(** The square-free part of a polynomial, computed once and reused.

    {!isolate}, {!count_roots} and {!refine} each compute it from the
    polynomial they are given; callers that isolate and then refine the
    same polynomial many times (as {!Alg} does) keep this form instead. *)
module Sqf : sig
  type t

  val of_poly : Poly.t -> t

  val poly : t -> Poly.t
  (** [squarefree p], the polynomial over the rationals. *)

  val sign_at : t -> Rat.t -> int
  (** Sign of the square-free part at a rational point. *)

  val count : t -> lo:Rat.t -> hi:Rat.t -> int
  (** As {!count_roots}. *)

  val isolate : t -> lo:Rat.t -> hi:Rat.t -> enclosure list
  (** As {!isolate}. *)

  val refine : t -> enclosure -> eps:Rat.t -> enclosure
  (** As {!refine}. *)
end
