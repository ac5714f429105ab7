(** Itemized gas model for the baseline Uniswap-on-mainchain operations.

    Component counts reflect the storage and transfer activity of the
    real V3 contracts; a final "evm execution" residual carries the
    interpreter cost so each operation's total matches the average the
    paper measured on Sepolia (Table 6). *)

val paper_deposit_gas : int  (** 52 696 *)

val op_gas : Chain.Encoding.op -> int
val total : (string * int) list -> int

val flow_txs_of_op : Chain.Encoding.op -> int
(** Sequential mainchain transactions in the user flow (approvals plus
    the operation), driving the Table 6 confirmation latencies. *)

val deposit_flow_txs : int  (** 4 *)

val sync_flow_txs : int     (** 1 *)
