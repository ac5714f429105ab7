(** A standard ERC20 token contract: balances, allowances, transfers.
    Two instances provide the traded pair, exactly as the paper deploys
    two standard ERC20 contracts on Sepolia. *)

module U256 = Amm_math.U256
module Address = Chain.Address

type t

val deploy : Chain.Token.t -> t
val token : t -> Chain.Token.t

val mint : t -> Address.t -> U256.t -> unit
(** Test faucet: credits fresh supply. *)

val balance_of : t -> Address.t -> U256.t
val total_supply : t -> U256.t
val allowance : t -> owner:Address.t -> spender:Address.t -> U256.t

val approve : ?meter:Gas.meter -> t -> owner:Address.t -> spender:Address.t -> U256.t -> unit

val transfer :
  ?meter:Gas.meter -> t -> source:Address.t -> dest:Address.t -> U256.t -> (unit, string) result
(** Moves value; fails when the balance is insufficient. *)

(** {1 Checkpoints}

    Balances, allowances and the supply are mutable tables under one
    {!Flatstore.Journal}: a checkpoint is a journal mark, and each slot
    records its old value once, on its first write after the newest
    checkpoint. A token that is never checkpointed records nothing. *)

type checkpoint

val checkpoint : t -> checkpoint
(** O(1); used to model mainchain rollbacks and reverted flash loans. *)

val restore : t -> checkpoint -> unit
(** Rewinds every slot written since the checkpoint — O(slots dirtied
    since). Newer checkpoints become invalid; this one stays restorable. *)

val release : t -> checkpoint -> unit
(** No checkpoint older than this one will be restored: drop the journal
    history below it. *)

val journal_length : t -> int
(** Journal entries currently held. *)

val transfer_from :
  ?meter:Gas.meter ->
  t -> spender:Address.t -> source:Address.t -> dest:Address.t -> U256.t ->
  (unit, string) result
(** Spends from an allowance, as the contracts' pit-stop deposits do. *)
