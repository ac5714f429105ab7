(** Unsigned 256-bit integers, implemented from scratch.

    Values are immutable. Arithmetic wraps modulo 2^256 unless the function
    name says otherwise ([checked_*] variants raise {!Overflow}). The
    representation is an array of nine base-2^29 limbs, little-endian, the
    last holding bits 232-255: a 10-word block. A limb product is below
    2^58, so a product column of up to nine of them plus its carry stays
    under 2^62 and every intermediate fits OCaml's native [int]. Comparisons
    and {!is_zero} allocate nothing; {!add}, {!sub}, {!of_int}, {!copy} and
    the division family ({!div}, {!mul_div}, ...) allocate exactly the
    result: divisions work in a domain-local {!ws}. *)

type t

exception Overflow
(** Raised by [checked_*] operations and conversions that do not fit. *)

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val max_value : t
(** [2^256 - 1]. *)

(** {1 Conversions} *)

val of_int : int -> t
(** [of_int n] converts a non-negative native integer. Raises
    [Invalid_argument] if [n < 0]. *)

val of_int64 : int64 -> t
(** Interprets the argument as an unsigned 64-bit value. *)

val to_int : t -> int
(** Raises {!Overflow} if the value exceeds [max_int]. *)

val to_int_opt : t -> int option
val to_float : t -> float
(** Lossy conversion, exact below 2^53. *)

val of_string : string -> t
(** Parses a decimal string, or a hexadecimal string when prefixed with
    ["0x"]. Raises [Invalid_argument] on malformed input and {!Overflow} if
    the value needs more than 256 bits. *)

val of_hex : string -> t
(** Parses a hexadecimal string (no prefix required). *)

val to_string : t -> string
(** Decimal rendering. *)

val to_hex : t -> string
(** Minimal-length lowercase hex, no prefix (["0"] for zero). *)

val to_bytes_be : t -> bytes
(** Big-endian 32-byte encoding. *)

val of_bytes_be : bytes -> t
(** Inverse of {!to_bytes_be}; accepts 1..32 bytes. *)

val read_be : bytes -> int -> t
(** [read_be b off] decodes the 32 big-endian bytes of [b] starting at
    [off]: [of_bytes_be (Bytes.sub b off 32)] without the copy. Raises
    [Invalid_argument] unless [0 <= off <= Bytes.length b - 32]. *)

val write_be : t -> bytes -> int -> unit
(** [write_be x b off] writes [to_bytes_be x] into [b] starting at [off],
    in place. Raises [Invalid_argument] unless
    [0 <= off <= Bytes.length b - 32]. *)

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t
val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool

(** {1 Arithmetic} *)

val add : t -> t -> t
(** Wrapping addition modulo 2^256. *)

val checked_add : t -> t -> t
(** Raises {!Overflow} on carry out. *)

val sub : t -> t -> t
(** Wrapping subtraction modulo 2^256. *)

val checked_sub : t -> t -> t
(** Raises {!Overflow} when the result would be negative. *)

val mul : t -> t -> t
(** Wrapping multiplication modulo 2^256. *)

val checked_mul : t -> t -> t
(** Raises {!Overflow} if the full product needs more than 256 bits. *)

val div : t -> t -> t
(** Floor division. Raises [Division_by_zero]. *)

val rem : t -> t -> t
val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r] and [r < b]. *)

val div_rounding_up : t -> t -> t
(** Ceiling division. *)

val mul_div : t -> t -> t -> t
(** [mul_div a b c = floor (a*b / c)] computed with a 512-bit intermediate
    product, as Uniswap's [FullMath.mulDiv]. Raises [Division_by_zero] when
    [c = 0] and {!Overflow} when the quotient needs more than 256 bits. *)

val mul_div_rounding_up : t -> t -> t -> t
(** Like {!mul_div} but rounding the quotient up. *)

val mul_mod : t -> t -> t -> t
(** [mul_mod a b c = (a*b) mod c] with a 512-bit intermediate. *)

val pow : t -> int -> t
(** Wrapping exponentiation by squaring. *)

(** {1 Destination-passing variants}

    Hot loops can avoid per-operation allocation by writing into a scratch
    value they own (a {e register}). Only ever mutate values obtained from
    {!scratch} or {!copy}: every other [t] (including the constants above
    and anything returned by the functions in this interface) must be
    treated as immutable — several operations return inputs or cached
    values by physical sharing — and a register must never be handed out
    where an immutable value is expected; publish a {!copy} instead.

    Each [*_into] operation below computes exactly what its allocating
    namesake returns, and raises the same exceptions. When it raises,
    [dst] holds an unspecified value. Unless an entry says otherwise,
    [dst] may be physically equal to any input: every input is read
    before [dst] is written. *)

val scratch : unit -> t
(** A fresh mutable value, initially zero. *)

val copy : t -> t
(** A private mutable copy of [x]. *)

val copy_into : dst:t -> t -> unit
(** [copy_into ~dst x] makes [dst] equal to [x]. *)

val of_int_into : dst:t -> int -> unit
(** {!of_int} into [dst]. *)

val read_be_into : dst:t -> bytes -> int -> unit
(** {!read_be} into [dst]. *)

val add_into : dst:t -> t -> t -> unit
(** [add_into ~dst a b] stores the wrapping sum in [dst]. [dst] may be
    physically equal to [a] and/or [b]. *)

val checked_add_into : dst:t -> t -> t -> unit
(** {!checked_add} into [dst]; aliasing allowed as for {!add_into}. *)

val sub_into : dst:t -> t -> t -> unit
(** [sub_into ~dst a b] stores the wrapping difference in [dst]; aliasing
    allowed as for {!add_into}. *)

val mul_into : dst:t -> t -> t -> unit
(** [mul_into ~dst a b] stores the wrapping product in [dst]. Raises
    [Invalid_argument] if [dst] is physically equal to [a] or [b] (the
    product accumulates in place, so aliasing would corrupt it). *)

val checked_mul_into : dst:t -> t -> t -> unit
(** {!checked_mul} into [dst]. Like {!mul_into}, raises
    [Invalid_argument] if [dst] is physically equal to [a] or [b]. *)

val shift_left_into : dst:t -> t -> int -> unit
(** {!shift_left} into [dst]; [dst] may be the shifted value. *)

type ws
(** The scratch of a division: room for a 512-bit product, its quotient,
    a remainder and a normalized divisor. The division family below
    works in a [ws] the caller owns instead of allocating one per call;
    a [ws] holds nothing between calls, so one can serve any number of
    operations run one after another. *)

val workspace : unit -> ws
(** A fresh workspace (about 60 words). *)

val div_into : ws -> dst:t -> t -> t -> unit
(** {!div} into [dst]; [dst] may be either input. *)

val div_rounding_up_into : ws -> dst:t -> t -> t -> unit
(** {!div_rounding_up} into [dst]; [dst] may be either input. *)

val mul_div_into : ws -> dst:t -> t -> t -> t -> unit
(** {!mul_div} into [dst]; [dst] may be any of the three inputs. *)

val mul_div_rounding_up_into : ws -> dst:t -> t -> t -> t -> unit
(** {!mul_div_rounding_up} into [dst]; [dst] may be any of the three
    inputs. *)

val sqrt : t -> t
(** Integer square root (floor). *)

(** {1 Fixed-modulus Montgomery arithmetic}

    When many multiplications share one odd modulus (prime-field
    arithmetic, most notably), a precomputed context replaces the
    512-bit product + Knuth division of {!mul_mod} with a CIOS
    Montgomery reduction: no division at all, just shifts against
    [-m⁻¹ mod 2^29]. Values live in Montgomery form [x·R mod m] between
    {!Mont.to_mont} and {!Mont.of_mont}; {!Mont.mul} is closed over that
    form. R = 2^256: the reduction drops eight 29-bit limbs and then the
    24 bits of the top limb. *)

module Mont : sig
  type ctx

  val create : modulus:t -> ctx
  (** Precompute for a fixed modulus. Raises [Invalid_argument] if the
      modulus is even or zero. *)

  val modulus : ctx -> t

  val one : ctx -> t
  (** [R mod m] — the Montgomery form of 1. *)

  val to_mont : ctx -> t -> t
  (** [to_mont ctx x = x·R mod m]. [x] must already be reduced ([< m]). *)

  val of_mont : ctx -> t -> t
  (** [of_mont ctx x = x·R⁻¹ mod m]; inverse of {!to_mont}. *)

  val mul : ctx -> t -> t -> t
  (** Montgomery product [a·b·R⁻¹ mod m] of reduced inputs; on values in
      Montgomery form this is the modular product in Montgomery form. *)
end

(** {1 Bitwise} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t
val bit : t -> int -> bool
(** [bit x i] is the value of bit [i] (0 = least significant). *)

val bits : t -> int
(** Position of the highest set bit plus one; [bits zero = 0]. *)

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit
val pp_hex : Format.formatter -> t -> unit
