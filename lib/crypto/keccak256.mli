(** Keccak-256 as used by Ethereum (original Keccak padding [0x01], not the
    NIST SHA3-256 variant), implemented from scratch on Keccak-f[1600]. *)

val digest : bytes -> bytes
(** 32-byte digest of the input. Runs on a reusable domain-local state
    and allocates only its result: the permutation boxes no lane, and
    the input is never copied into a padded buffer. *)

val digest_string : string -> bytes
val hex : string -> string
(** Hex digest of a string input, convenient for tests. *)

(** {1 Streaming interface}

    Absorb a message in arbitrary chunks; equals the one-shot digest of
    the concatenation. A context is reusable: {!finalize} leaves it
    ready for the next message (as does {!reset}). *)

type ctx

val init : unit -> ctx
val reset : ctx -> unit
val feed : ctx -> bytes -> unit
val feed_string : ctx -> string -> unit
val finalize : ctx -> bytes
(** The digest; allocates only the 32-byte result. *)
