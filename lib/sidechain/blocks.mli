(** The ammBoost sidechain ledger: temporary meta-blocks recording the
    processed transactions (one per round, pruned once their epoch's Sync
    is confirmed on the mainchain) and permanent summary-blocks
    checkpointing each epoch's state changes.

    The simulator stores block headers, not bodies: a meta-block keeps
    its transaction root and byte size but not the transactions, and a
    summary-block keeps its size but not the payload. Byte accounting is
    unchanged; a reader that needs a body (the self-audit, an inclusion
    proof) holds it itself and is checked against the stored root. *)

type meta = {
  m_epoch : int;
  m_round : int;                    (** global sidechain round number *)
  m_tx_root : bytes;                (** Merkle root over the transaction ids *)
  m_size : int;                     (** header plus the transactions' wire bytes *)
  m_view_changes : int;             (** leader changes recorded for accountability *)
}

type summary = {
  s_epoch : int;
  s_size : int;                     (** sidechain binary packing size *)
  s_rounds_covered : int * int;     (** first and last round of the epoch *)
}

type block =
  | Genesis of { mainchain_ref : bytes }  (** references the block holding TokenBank *)
  | Meta of meta
  | Summary of summary

type t

val meta_header_size : int

val create : mainchain_ref:bytes -> t
val append_meta : t -> meta -> unit
val append_summary : t -> summary -> unit

val tx_root : Chain.Tx.t list -> bytes
(** Merkle root over the transactions' ids, in order — what a meta-block
    stores as [m_tx_root]. *)

val make_meta :
  epoch:int -> round:int -> view_changes:int -> Chain.Tx.t list -> meta

val prove_inclusion :
  meta -> txs:Chain.Tx.t list -> Chain.Ids.Tx_id.t -> Amm_crypto.Merkle.proof option
(** Merkle inclusion proof for a transaction in the meta-block — the
    public-verifiability hook: until pruning, anyone can check that a
    transaction feeding a summary was really processed. [txs] is the
    block's body, in block order, supplied by the caller; [None] when the
    id is not among them or they do not rebuild [m_tx_root]. *)

val verify_inclusion : meta -> Chain.Ids.Tx_id.t -> Amm_crypto.Merkle.proof -> bool

val prune_epoch : t -> epoch:int -> int
(** Drops the meta-blocks of the epoch (their Sync is confirmed);
    summary-blocks are permanent. Returns bytes reclaimed. *)

val cumulative_bytes : t -> int
(** Total bytes ever appended — "sidechain growth" before pruning. *)

val stored_bytes : t -> int
(** Bytes currently stored — what remains after pruning. *)

val height : t -> int
val summaries : t -> summary list
(** All permanent summary blocks, oldest first. *)

val meta_count_stored : t -> int
