(** Payout latency tracking. Experiments process millions of
    transactions, so only running sums are kept — never per-transaction
    lists.

    When epoch [e]'s Sync lands at time [T], every transaction processed
    in [e] has payout latency [T - issued_at]; per epoch only
    [Σ issued_at] and the count are needed. *)

type payout_tracker

val payout_tracker : unit -> payout_tracker
val note_processed : payout_tracker -> epoch:int -> issued_at:float -> unit
val settle_epoch : payout_tracker -> epoch:int -> sync_time:float -> unit
val pending_mean_issued : payout_tracker -> epoch:int -> (float * int) option
(** Mean issue time and count of an epoch's still-pending payouts, or
    [None] if nothing is pending; lets callers derive the epoch's payout
    latency at settle time. *)

val payout_mean : payout_tracker -> float
val payout_count : payout_tracker -> int
