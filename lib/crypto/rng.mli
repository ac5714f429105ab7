(** Deterministic pseudo-random generator: SHA-256 in counter mode.

    Every source of randomness in the simulation flows through an [Rng.t]
    created from an explicit string seed, so whole experiments are
    reproducible bit-for-bit.

    The stream is defined by SHA-256 alone. A generator holds a 32-byte
    seed and a counter that starts at 0. Block [n] is
    [SHA-256(seed ‖ le64 n)], where [le64 n] is [n] as 8 little-endian
    bytes, and every draw takes the next block and advances the counter
    by one:
    - {!int} and {!float} read the first 7 bytes of their block as a
      big-endian 56-bit integer [v]: [int t n] is [v mod n], and
      [float t] is [(v mod 2^53) / 2^53];
    - {!bool}, {!pick} and {!shuffle} draw through {!int};
    - {!bytes} concatenates whole blocks and keeps the first [n] bytes,
      so it takes ⌈n/32⌉ blocks; {!u256} is one block read big-endian.

    [create s] has seed [SHA-256(s)], and [split t label] has seed
    [SHA-256(seed ‖ "/" ‖ label)], both with counter 0. Each block is
    one SHA-256 compression started from a midstate cached per generator
    ({!Sha256.midstate}), bit-for-bit the digest above. *)

type t

val create : string -> t
(** A generator deterministically derived from the seed. *)

val split : t -> string -> t
(** An independent generator derived from this one and a label; does not
    disturb the parent's stream. *)

val bytes : t -> int -> bytes
val u256 : t -> Amm_math.U256.t
val field : t -> Field.t
(** [Field.of_u256] of {!u256}. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)], up to a modulo bias below
    [n / 2^56]. Raises [Invalid_argument] if [n <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)], on a grid of [2^-53]. *)

val bool : t -> bool
(** [int t 2 = 1]. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array: [arr.(int t (Array.length arr))]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle: for [i] from [length - 1] down to 1,
    swap [i] with [int t (i + 1)]. *)
