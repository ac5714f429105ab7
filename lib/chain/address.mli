(** 20-byte account addresses, derived from public keys as on Ethereum
    (low 20 bytes of the Keccak-256 of the key). *)

type t

val of_public_key : Amm_crypto.Bls.public_key -> t
val of_bytes : bytes -> t
(** Requires exactly 20 bytes. *)

val of_label : string -> t
(** Deterministic address for named system accounts (contracts, test
    users). *)

val to_bytes : t -> bytes

val write : t -> bytes -> int -> unit
(** [write a dst off] writes the 20 bytes of [a] into [dst] at [off],
    without the copy {!to_bytes} makes. *)

val to_hex : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** [Hashtbl.hash (to_bytes a)], without the copy. *)

val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

module Tbl : Hashtbl.S with type key = t
(** Iteration order is unspecified: sort by {!compare} wherever order
    can reach an output. *)
