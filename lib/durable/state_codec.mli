(** The snapshot section registry.

    Maps every durable state surface at an epoch boundary to a named
    byte section, and validates sections read back from disk through
    their typed codecs. Encodings are exact (encode ∘ decode = id,
    byte-for-byte): the resume path compares freshly rebuilt sections
    against the on-disk snapshot to detect divergence.

    Sections: [bank.meta] (sync frontier, halt state, committee vk,
    custody, pools, exit claims), [bank.positions]
    ({!Tokenbank.Pos_store} codec), [sidechain.deposits]
    ({!Sidechain.Deposits} codec), [sidechain.pool] (AMM pool scalars),
    [window.pending] (certified-but-unapplied summaries). *)

val required : string list
(** Every section a valid snapshot must carry. *)

val bank_meta_bytes : Tokenbank.Token_bank.t -> bytes
(** The [bank.meta] section alone: sync frontier, halt state, committee
    vk, custody, pool balances and exit claims. Also the byte surface
    the state twin compares its replica bank against — two banks with
    equal observable state encode identically. *)

val pool_bytes : Uniswap.Pool.t -> bytes
(** The [sidechain.pool] section alone: the AMM pool's scalar fields
    (price, tick, liquidity, balances, fee growths, table sizes). *)

val sections :
  bank:Tokenbank.Token_bank.t ->
  pool:Uniswap.Pool.t ->
  deposits:Sidechain.Deposits.t ->
  pending:(Tokenbank.Sync_payload.t * Amm_crypto.Bls.signature) list ->
  (string * bytes) list
(** Build the full section list from the live system ([pending] is the
    certified-but-unapplied summary window, oldest first). *)

val validate : (string * bytes) list -> (unit, string) result
(** Structural validation: every required section present, every section
    known and decodable through its typed codec. This is what stands
    between a checksum-valid-but-semantically-garbage file and the
    resume path. *)
