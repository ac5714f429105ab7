(** The contents of a sync-transaction — the epoch summary the sidechain
    committee submits to TokenBank (§4.2 "Syncing TokenBank"): the
    per-user payin/payout list, the updated liquidity position list, the
    updated pool balances, and the next committee's verification key.

    As in the paper's summary rules, each participating user contributes
    a single tuple (public key, total payin, total payout) per epoch. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id

type user_entry = {
  user : Address.t;
  payin0 : U256.t;   (** to deduct from the user's mainchain deposit *)
  payin1 : U256.t;
  payout0 : U256.t;  (** tokens the user receives at sync *)
  payout1 : U256.t;
}

type position_entry = {
  pos_id : Position_id.t;
  owner : Address.t;
  lower_tick : int;
  upper_tick : int;
  liquidity : U256.t;     (** absolute liquidity after the epoch *)
  amount0 : U256.t;       (** token amounts the position represents *)
  amount1 : U256.t;
  fees0 : U256.t;         (** remaining fee balance *)
  fees1 : U256.t;
  deleted : bool;         (** fully withdrawn during the epoch *)
}

type t = {
  epoch : int;
  pool : int;
  pool_balance0 : U256.t;  (** updated reserves after the epoch *)
  pool_balance1 : U256.t;
  users : user_entry list;
  positions : position_entry list;
  next_committee_vk : Amm_crypto.Bls.public_key;
      (** vk of committee e+1, recorded for authenticating the next Sync *)
}

val signing_bytes : t -> bytes
(** Canonical bytes the committee threshold-signs: equal to
    [Sha256.digest (abi_encode t)], but builds no calldata. Each entry is
    written into one small scratch buffer and fed to the hash, so a
    summary of any size costs a few hundred bytes of allocation. *)

val abi_encode : t -> bytes
(** Mainchain ABI encoding of the Sync calldata: 352 B per user entry,
    416 B per position entry, 128 B vk (plus the fixed head); a 64 B
    signature travels alongside (Table 7). *)

val abi_size : t -> int
(** [Bytes.length (abi_encode t)] plus the 64-byte signature, computed
    in closed form without encoding: 4-byte selector + 8 head words +
    vk + 352 B per user + 416 B per position + signature. *)

val abi_user_entry_size : int
(** 352. *)

val abi_position_entry_size : int
(** 416. *)

val storage_words : t -> int
(** 32-byte words TokenBank persists when applying this summary (6 words
    per position as in Table 6, 2 for pool balances, 4 for the vk). *)

(** {1 Binary codec}

    Exact, compact encoding for the durability layer (WAL records and
    the snapshotted unconfirmed-summary window) — unlike {!abi_encode},
    which models EVM calldata. [of_bytes (to_bytes t)] reproduces [t]
    and re-encodes byte-identically; the decoder is total over arbitrary
    buffers. *)

val to_bytes : t -> bytes

val of_bytes : bytes -> (t, string) result
(** Never raises; malformed or truncated buffers come back as [Error]
    with a description of the first offending field. *)
