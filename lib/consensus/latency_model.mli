(** Closed-form PBFT round latency for committees too large to simulate
    message-by-message (the paper runs 500-miner committees).

    One leader-based PBFT instance costs: block broadcast by the leader,
    then prepare and commit all-to-all rounds — three message delays —
    plus the time to push the block over the leader's link. The model is
    cross-checked against the message-level {!Pbft} in tests. *)

type params = {
  mean_delay : float;       (** mean one-way message latency, seconds *)
  bandwidth_bytes : float;  (** per-node usable bandwidth, bytes/second *)
}

val consensus_latency : params -> committee_size:int -> block_bytes:int -> float
(** Expected time from the leader proposing a block of the given size to
    quorum commit in a committee of [committee_size] members. *)

val view_change_latency : params -> committee_size:int -> timeout:float -> float
(** Expected extra delay when the leader must be replaced once. *)

val fits_in_round :
  params -> committee_size:int -> block_bytes:int -> round_duration:float -> bool
