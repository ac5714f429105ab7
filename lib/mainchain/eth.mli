(** The simulated smart-contract mainchain (Ethereum/Sepolia stand-in).

    Blocks are mined at a fixed interval (default 12 s) with a gas limit;
    submitted transactions become eligible after their user flow's
    prerequisite transactions (ERC20 approvals etc.) complete, modeled as
    sequential legs of [(0.6 + U(0,1)) * interval] each — which reproduces
    the confirmation latencies of the paper's Table 6 (≈1.1 blocks per
    leg). Chain growth, per-label gas and latency are all recorded. *)

type t

type tx_spec = {
  label : string;        (** metric bucket, e.g. "deposit", "sync", "swap" *)
  size_bytes : int;
  gas : int;
  flow_txs : int;        (** sequential transactions in the user flow,
                             including this one (deposit = 4, swap = 2, ...) *)
  tag : string option;   (** correlation tag, e.g. sync epoch *)
  execute : (int -> unit) option;  (** state transition, given block height *)
}

type block

val block_tx_tags : block -> string list

val create :
  ?interval:float -> ?gas_limit:int -> ?header_size:int -> ?k_depth:int ->
  rng:Amm_crypto.Rng.t -> unit -> t

val interval : t -> float

val gas_limit : t -> int
val set_gas_limit : t -> int -> unit
(** Changes the block gas limit from the next mined block on (models
    congestion windows). The limit must stay above the largest single
    pending transaction or that transaction never fits a block. *)

val now : t -> float
val height : t -> int
val confirmed_height : t -> int

val submit : t -> at:float -> tx_spec -> unit
(** Enqueues a transaction flow starting at time [at]. *)

val advance_to : t -> float -> unit
(** Mines every block due up to the given time, executing included
    transactions. *)

val block_at : t -> int -> block option
(** The canonical block at a height, genesis included; [None] above the
    tip or below the pruning horizon. *)

val is_tag_included : t -> string -> bool
(** Whether a transaction with this tag sits on the canonical chain. *)

val rollback : t -> int -> string list
(** Fork switch abandoning the last [n] blocks; returns the tags of the
    transactions that fell off the chain. *)

(** {1 Metrics} *)

val cumulative_bytes : t -> int
val gas_used_total : t -> int
val gas_used_by_label : t -> (string * int) list
val bytes_by_label : t -> (string * int) list

val mean_latency : t -> string -> float option
(** Mean completion latency (flow start to inclusion) of the label's
    mined transactions; [None] before the first one. Only a count and a
    running sum are kept per label. *)

val included_count : ?label:string -> t -> int
(** Transactions mined so far, or only those under [label]. *)

val pending_count : t -> int
