(** Leader-based PBFT over the simulated Δ-network, as the ammBoost
    sidechain committee runs it: the epoch leader proposes a block, the
    committee prepares and commits with 2f+1 quorums, and a
    malicious/unresponsive leader is replaced through view change
    (the paper's leader-change interruption handling).

    The implementation is message-level and is exercised with real
    committees in tests and examples; large-scale experiments use
    {!Latency_model} instead (see DESIGN.md). *)

type behavior =
  | Honest
  | Silent          (** never sends anything (crashed / unresponsive) *)
  | Propose_invalid (** as leader, proposes a block that fails validation *)

type config = {
  n : int;             (** committee size; must be >= 3f+1 *)
  f : int;             (** maximum faulty members tolerated *)
  behaviors : behavior array;  (** length n *)
  delta : float;       (** network delay bound (seconds) *)
  timeout : float;     (** view-change timeout τ *)
  max_time : float;    (** simulation horizon *)
}

type outcome = {
  decisions : (bytes * float) option array;
      (** per replica: decided digest and decision time *)
  final_views : int array;
  total_view_changes : int;
}

val backoff_cap : int
(** View-change timers back off exponentially, timeout · 2^min(view, cap);
    this is the cap exponent. *)

val run :
  rng:Amm_crypto.Rng.t ->
  ?chaos:(now:float -> src:int -> dst:int -> Network.delivery) ->
  config -> value:bytes -> outcome
(** Runs one consensus instance on [value]; the honest leader of view [v]
    proposes [H(value || v)], so agreement across replicas implies they
    decided the same view's proposal. [chaos] is passed to the underlying
    {!Network} to drop/duplicate/delay individual messages. *)

val honest_agreement : config -> outcome -> bool
(** All honest replicas that decided agree on one digest. *)

val all_honest_decided : config -> outcome -> bool
