(** Minimal JSON tree for the repo's own machine-readable artifacts
    (bench reports, ledger lines, cache entries, serve requests): parse,
    print, and a few accessors.  Numbers are floats throughout (ints
    survive to [1e15]).  Kept tiny on purpose — no dependency on an
    external JSON library. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Why a parse failed; every offset is a byte offset into the input. *)
type error =
  | Syntax of string  (** malformed input; the message names the offset *)
  | Leading_zero of int  (** a number such as [0123] or [-01.5] *)
  | Non_finite of int  (** a number literal outside the float range, e.g. [1e999] *)
  | Lone_surrogate of int
      (** a [\u] escape naming half a UTF-16 surrogate pair, which has
          no UTF-8 encoding *)
  | Duplicate_key of string * int  (** an object key repeated in the same object *)

exception Parse_error of error

val error_to_string : error -> string

val parse : string -> (t, error) result
(** Parse one JSON text (RFC 8259), rejecting non-finite numbers, lone
    surrogates and duplicate object keys, so that every accepted value
    has exactly one reading and prints back as valid JSON. *)

val parse_exn : string -> t
(** @raise Parse_error on malformed input (including trailing garbage). *)

val to_string : t -> string
(** Compact (single-line) rendering, always valid JSON.  Round-trips with
    {!parse} for every value whose numbers are finite and whose objects
    have distinct keys; NaN and the infinities are emitted as [null]. *)

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes). *)

(** {1 Accessors} — all total; [None] on a kind mismatch or missing key. *)

val member : string -> t -> t option
val to_float_opt : t -> float option
val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
val float_member : string -> t -> float option
val int_member : string -> t -> int option
val string_member : string -> t -> string option
val list_member : string -> t -> t list option
