(** Wire encodings and size models.

    Two encodings matter to the paper's evaluation (Tables 7 and 8):

    - the transaction wire format users broadcast (an Ethereum-style
      envelope plus ABI calldata; Table 8 averages ~1008 B swaps) — this
      bounds the sidechain meta-block capacity and hence throughput;
    - the byte sizes of baseline Uniswap operations on Sepolia (Table 7),
      used for the baseline's mainchain-growth accounting.

    Calldata is genuinely serialized (fields are real 32-byte ABI words);
    the router overhead that the paper's measured averages include (offsets,
    array headers, permit blobs of the Uniswap routers) is modeled as
    documented per-operation padding. *)

module U256 = Amm_math.U256

type op = Op_swap | Op_mint | Op_burn | Op_collect

val envelope_size : int
(** Bytes of a minimal legacy Ethereum transaction envelope including the
    65-byte secp256k1 signature (≈110 B). *)

val selector_size : int
(** 4 bytes of function selector. *)

val word : U256.t -> bytes
(** 32-byte big-endian ABI word. *)

val int_word : int -> bytes
val address_word : Address.t -> bytes
val bytes32_word : bytes -> bytes

(** {1 In-place writers}

    Each writes its word into [dst] at [off] and allocates nothing; hashers
    stream words through a scratch buffer with them instead of building
    the constructors' fresh [bytes]. *)

val write_word : U256.t -> bytes -> int -> unit
(** The bytes of {!word}. *)

val write_int_word : int -> bytes -> int -> unit
(** The 256-bit two's complement of any native int: the bytes of
    {!int_word} for [n >= 0], and all-ones high bytes for a negative [n]
    such as a tick. *)

val write_address_word : Address.t -> bytes -> int -> unit
(** The bytes of {!address_word}. *)

val universal_router_padding : op -> int * int
(** (words, loose bytes) of router overhead in the production-Ethereum
    encoding; calibrated so full transactions match the Table 8 averages. *)

val transaction_wire :
  op:op -> fields:bytes list -> padding:int * int -> bytes
(** Full wire bytes: envelope, selector, the given ABI words, and padding. *)

val sepolia_op_size : op -> int
(** Baseline Uniswap per-operation size on Sepolia (Table 7 model). *)

val ethereum_op_size : op -> int
(** Baseline Uniswap per-operation size on production Ethereum (Table 8
    model), used for the paper's "vs production Ethereum" comparison. *)
