(** Public verifiability of summary-blocks (§3's [VerifyBlock] for
    [btype = summary], and the safety argument of Lemma 1): until the
    meta-blocks of an epoch are pruned, anyone can re-execute them from
    the epoch-start state — with the same unchanged AMM logic — and check
    that they derive exactly the summary the committee published. A
    mismatch exposes an invalid summary before its Sync confirms.

    Blocks store headers only ({!Blocks}), so the auditor is handed each
    meta-block with its transactions and the summary's payload, and
    checks every body against the root its block committed to. *)

val verify_summary :
  pool_at_start:Uniswap.Pool.t ->
  snapshot:Tokenbank.Token_bank.snapshot ->
  metas:(Blocks.meta * Chain.Tx.t list) list ->
  payload:Tokenbank.Sync_payload.t ->
  (unit, string) result
(** [Ok ()] iff every body matches its block and replaying them
    reproduces the summary payload bit-for-bit (canonical signing
    bytes). *)
