(** Bounded-delay message-passing network (the Δ-synchronous model of the
    paper's adversary section): every sent message is delivered within
    [delta] seconds; actual delays are drawn uniformly from
    [[0.1·delta, delta]]. The adversary may reorder in that window — which
    random delays exercise — but by default cannot drop messages.

    An optional [chaos] hook strengthens the adversary for fault
    injection: consulted once per {!send}, it may drop the message,
    duplicate it (the copy arrives [extra] seconds after the original) or
    add delay beyond Δ. Timers scheduled with {!schedule} are local
    events and are never subject to chaos. *)

(** Per-message verdict of the chaos hook. *)
type delivery =
  | Deliver            (** normal bounded-delay delivery *)
  | Drop               (** the message is lost *)
  | Duplicate of float (** delivered, plus a copy [extra] seconds later *)
  | Delay of float     (** delivered [extra] seconds beyond the drawn delay *)

type 'msg t

val create :
  ?chaos:(now:float -> src:int -> dst:int -> delivery) ->
  rng:Amm_crypto.Rng.t -> delta:float -> unit -> 'msg t

val delta : 'msg t -> float

val send : 'msg t -> at:float -> src:int -> dst:int -> 'msg -> unit
val broadcast : 'msg t -> at:float -> src:int -> dsts:int list -> 'msg -> unit

val schedule : 'msg t -> at:float -> dst:int -> 'msg -> unit
(** Local event (e.g. a timer) delivered to [dst] at exactly [at]. *)

val next : 'msg t -> (float * int * 'msg) option
(** Earliest undelivered event as [(time, dst, msg)]. *)

val pending : 'msg t -> int
