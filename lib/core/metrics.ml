(* Per-epoch pending-payout bookkeeping: when epoch e's Sync lands at time
   T, every transaction processed in e has payout latency T − issued_at;
   only Σ issued_at and the count are needed, never per-transaction
   lists. *)
type payout_tracker = {
  pending : (int, float ref * int ref) Hashtbl.t;
  mutable settled : int;
  mutable latency_sum : float;
}

let payout_tracker () = { pending = Hashtbl.create 16; settled = 0; latency_sum = 0.0 }

let note_processed t ~epoch ~issued_at =
  match Hashtbl.find_opt t.pending epoch with
  | Some (sum, n) ->
    sum := !sum +. issued_at;
    incr n
  | None -> Hashtbl.add t.pending epoch (ref issued_at, ref 1)

let settle_epoch t ~epoch ~sync_time =
  match Hashtbl.find_opt t.pending epoch with
  | None -> ()
  | Some (sum, n) ->
    t.settled <- t.settled + !n;
    t.latency_sum <- t.latency_sum +. ((sync_time *. float_of_int !n) -. !sum);
    Hashtbl.remove t.pending epoch

(* Mean issue time and count of an epoch's still-pending payouts; lets
   callers derive the epoch's payout latency at settle time. *)
let pending_mean_issued t ~epoch =
  match Hashtbl.find_opt t.pending epoch with
  | None -> None
  | Some (sum, n) when !n > 0 -> Some (!sum /. float_of_int !n, !n)
  | Some _ -> None

let payout_mean t =
  if t.settled = 0 then 0.0 else t.latency_sum /. float_of_int t.settled

let payout_count t = t.settled
