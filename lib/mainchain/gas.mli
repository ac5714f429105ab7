(** EVM-style gas schedule and metering.

    The primitive costs follow Ethereum's schedule, with the composite
    costs the paper measured on Sepolia (Table 6) adopted verbatim where
    it reports them: 22 100 gas per stored 32-byte word, 15 771 per payout
    transfer, 6 000 per BN256 scalar multiplication, 113 000 per pairing
    check, Keccak at 30 + 6 per word. *)

(** {1 Primitive costs} *)

val tx_base : int
val sstore_word : int
(** Storing one fresh 32-byte word: 22 100 (Table 6). *)

val sstore_update : int
val sload : int
val keccak_base : int
val keccak_per_word : int
val ec_mul : int
(** BN256 scalar multiplication precompile: 6 000 (Table 6). *)

val pairing_check : int
(** BN256 pairing verification: 113 000 (Table 6). *)

val payout_transfer : int
(** Per payout entry dispensed by Sync: 15 771 (Table 6). *)

val keccak_cost : int -> int
(** Keccak cost of hashing [n] bytes. *)

val calldata_cost_of_size : int -> int
(** Approximate calldata cost when only the size is known (assumes the
    measured 2:1 nonzero:zero byte mix). *)

(** {1 Metering} *)

type meter

val meter : unit -> meter
val charge : meter -> string -> int -> unit
(** Accumulates a named component. *)

val total : meter -> int
val breakdown : meter -> (string * int) list
(** Components in charge order, merged by label. *)
