(** AMM transactions — the traffic that ammBoost offloads to the
    sidechain (swaps, mints, burns, collects; flashes stay on the
    mainchain and are modeled in {!module:Mainchain}). Field sets follow
    §4.2 of the paper. *)

module U256 = Amm_math.U256

type swap_kind =
  | Exact_input   (** trade an exact input for the maximum output *)
  | Exact_output  (** trade the minimum input for an exact output *)

type swap = {
  zero_for_one : bool;          (** true: sell token0 for token1 *)
  kind : swap_kind;
  amount_specified : U256.t;    (** exact input or exact output amount *)
  amount_limit : U256.t;        (** min output / max input (slippage guard) *)
  sqrt_price_limit : U256.t;    (** price the trade must not cross *)
  deadline : int;               (** sidechain round after which the swap is void *)
}

type position_target =
  | New_position
  | Existing_position of Ids.Position_id.t

type mint = {
  lower_tick : int;
  upper_tick : int;
  amount0_desired : U256.t;
  amount1_desired : U256.t;
  target : position_target;
}

type burn = {
  burn_position : Ids.Position_id.t;
  amount0_requested : U256.t;
  amount1_requested : U256.t;
}

type collect = {
  collect_position : Ids.Position_id.t;
  fees0_requested : U256.t;
  fees1_requested : U256.t;
}

type payload =
  | Swap of swap
  | Mint of mint
  | Burn of burn
  | Collect of collect

type t = {
  id : Ids.Tx_id.t;
  issuer : Address.t;
  issuer_pk : Amm_crypto.Bls.public_key;
  pool : int;
  payload : payload;
  issued_round : int;           (** sidechain round of broadcast *)
  issued_at : float;            (** simulation time of broadcast, seconds *)
  signature : Amm_crypto.Bls.signature option;
  wire_size : int;              (** serialized size in bytes (Table 8 encoding) *)
}

val create :
  ?sign:Amm_crypto.Bls.secret_key ->
  issuer:Address.t ->
  issuer_pk:Amm_crypto.Bls.public_key ->
  pool:int ->
  issued_round:int ->
  issued_at:float ->
  payload ->
  t
(** Builds a transaction: hashes the payload's ABI field words and the
    issuing round into the id (written into a domain-local scratch
    buffer, not built), and optionally signs it. [wire_size] is
    {!Encoding.ethereum_op_size} of the op — the length
    {!Encoding.transaction_wire} would produce, without building it. *)

val wire : t -> bytes
(** The full Universal Router wire bytes (Table 8 encoding) — built on
    demand; [Bytes.length (wire t) = t.wire_size]. *)

val verify_signature : t -> bool
(** True when the transaction carries a valid signature of its id under
    the issuer's key. Unsigned transactions fail. *)

val type_name : payload -> string
val op_of_payload : payload -> Encoding.op
val pp : Format.formatter -> t -> unit
