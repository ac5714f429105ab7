(** Write-ahead-log records.

    Each record is one mainchain state transition, in the exact order the
    live TokenBank applied it. The system emits every accepted bank op
    once, as an {!op}, to both this log and the state twin. [Truncate]
    is the compensation record for mainchain reorg rollbacks: an
    append-only log cannot un-append, so the rollback to [keep] bank ops
    (the op count at the restored checkpoint) is itself a record,
    replayed like any other on recovery.

    The codec is exact: [of_bytes (to_bytes r)] succeeds and re-encodes
    byte-identically, which is what resume-time verification compares. *)

type op =
  | Deposit of {
      user : Chain.Address.t;
      for_epoch : int;
      amount0 : Amm_math.U256.t;
      amount1 : Amm_math.U256.t;
    }
  | Sync of (Tokenbank.Sync_payload.t * Amm_crypto.Bls.signature) list
  | Halt of { epoch : int }
  | Exit of { claimant : Chain.Address.t }
  | Reconcile of (Tokenbank.Sync_payload.t * Amm_crypto.Bls.signature) list

type t = Op of op | Truncate of { keep : int }

val to_bytes : t -> bytes

val of_bytes : bytes -> (t, string) result
(** Total — disk bytes are untrusted. *)

val equal : t -> t -> bool
(** Byte-level equality of the encodings. *)

val describe : t -> string
(** Short human label for logs and divergence reports. *)
