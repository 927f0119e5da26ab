(** Real algebraic numbers, represented as a square-free polynomial together
    with an isolating interval.

    The optimal thresholds produced by the paper's optimality conditions are
    algebraic (e.g. [1 - sqrt(1/7)]); this module lets the library report and
    compare them with certainty rather than through floating point. Values
    are immutable; refinement returns sharper views of the same number. *)

type t

val of_rat : Rat.t -> t

val of_root : Poly.t -> Roots.enclosure -> t
(** [of_root p e]: the unique root of (the square-free part of) [p] inside
    [e]. @raise Invalid_argument when [e] does not isolate exactly one
    root. *)

val of_sqf_root : Roots.Sqf.t -> Roots.enclosure -> t
(** As {!of_root}, for a polynomial already in square-free form. *)

val roots_of : Poly.t -> lo:Rat.t -> hi:Rat.t -> t list
(** All real roots of [p] in the interval, as algebraic numbers. *)

val polynomial : t -> Poly.t
(** A square-free polynomial vanishing at the number (the constant-coefficient
    witness [x - r] for rationals). *)

val enclosure : t -> Interval.t

val refine : t -> eps:Rat.t -> t
(** Shrink the isolating interval below [eps]. *)

val to_rat_opt : t -> Rat.t option
(** The exact rational value, when the number is rational {e and} stored
    exactly. *)

val to_float : t -> float
(** Accurate to double precision (refines internally). *)

val to_decimal_string : digits:int -> t -> string
(** Certified decimal expansion: the printed digits are exact (the interval
    is refined until it no longer straddles a decimal boundary at this
    precision). *)

val compare : t -> t -> int
(** Total order, certified by interval refinement; equality is decided by a
    gcd argument when refinement alone cannot separate the numbers. *)

val equal : t -> t -> bool
val sign : t -> int

val eval_poly_interval : Poly.t -> t -> Interval.t
(** Sound enclosure of [q(x)] at the algebraic point. *)

val compare_poly_values : Poly.t -> t -> t -> int
(** [compare_poly_values q a b]: certified comparison of [q(a)] and [q(b)]
    (refining both points as needed; decides ties exactly when both points
    are rational, and by deep refinement otherwise). *)

val pp : Format.formatter -> t -> unit
