(** SHA-256 (FIPS 180-4), implemented from scratch. *)

val digest : bytes -> bytes
(** 32-byte digest of the input. Runs on a reusable domain-local context:
    no per-call message-schedule allocation and no padded input copy. *)

val digest_string : string -> bytes
val hex : string -> string
(** Hex digest of a string input, convenient for tests. *)

val concat : bytes list -> bytes
(** Digest of the concatenation of the inputs, streamed — the parts are
    never copied into one buffer. *)

(** {1 Streaming interface}

    Feed a message in arbitrary chunks; equals the one-shot digest of
    the concatenation. A context is reusable: {!finalize} leaves it
    ready for the next message (as does {!reset}). *)

type ctx

val init : unit -> ctx
val reset : ctx -> unit
val feed : ctx -> bytes -> unit

val feed_sub : ctx -> bytes -> int -> int -> unit
(** [feed_sub ctx b off len] feeds [b.[off .. off + len - 1]], without the
    copy [feed ctx (Bytes.sub b off len)] makes. Raises [Invalid_argument]
    unless the range lies within [b]. *)

val feed_string : ctx -> string -> unit
val finalize : ctx -> bytes

(** {1 Counter mode}

    [digest (seed ‖ le64 n)] for a fixed 32-byte [seed] and a counter
    [n >= 0] written as 8 little-endian bytes. The 40-byte message is one
    block, and its first 8 rounds read only the seed, so a {!midstate}
    caches them and each counter runs the other 56. Both entries run on
    the domain-local context and allocate nothing. *)

type midstate

val midstate : bytes -> midstate
(** The seed's message words and the state after rounds 0-7. Raises
    [Invalid_argument] unless the seed is 32 bytes. *)

val counter_56 : midstate -> int -> int
(** [counter_56 m n] is the first 7 bytes of [digest (seed ‖ le64 n)] read
    as a big-endian integer in [\[0, 2^56)]. *)

val counter_into : midstate -> int -> bytes -> int -> unit
(** [counter_into m n dst off] writes [digest (seed ‖ le64 n)] to
    [dst.[off .. off + 31]]. Raises [Invalid_argument] if [dst] has no 32
    bytes at [off]. *)
