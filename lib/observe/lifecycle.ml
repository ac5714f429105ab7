(* Causal transaction-lifecycle tracing. Each op is tagged at inclusion
   with a deterministic sampling decision (seeded FNV-1a over the tx id,
   keep 1 in 2^sample_shift); sampled ops carry (class, issued_at,
   wire_size) through the epoch pipeline, and each downstream stage —
   epoch summary, sync submission, L1 confirmation, prune — folds the
   stage's end-to-end latency into a per-class histogram. Records drop at
   prune, so memory is O(sampled ops in unpruned epochs) and every op
   pays O(1): one hash at inclusion, and stage events are per-epoch.

   Histogram names: lifecycle.<class>.<stage> (latency, seconds) and
   lifecycle.<class>.amplification (L1 bytes amortized per op at sync
   submission ÷ the op's own sidechain wire size). *)

module Metrics = Telemetry.Metrics
module Histogram = Telemetry.Histogram

type stage = Included | Summarized | Submitted | Confirmed | Pruned

let stage_name = function
  | Included -> "included"
  | Summarized -> "summarized"
  | Submitted -> "submitted"
  | Confirmed -> "confirmed"
  | Pruned -> "pruned"

type record = {
  lc_class : string;
  lc_issued_at : float;
  lc_wire : int;
}

type t = {
  metrics : Metrics.t;
  seed_hash : int;
  keep_mask : int; (* keep when hash land keep_mask = 0 *)
  by_epoch : (int, record list ref) Hashtbl.t; (* sampled, inclusion order *)
  included_per_epoch : (int, int) Hashtbl.t; (* all included, for amortization *)
  mutable sampled : int;
  mutable seen : int;
}

(* FNV-1a: tiny, dependency-free, stable across platforms — the
   sampling decision must be identical for the same seed and tx id on
   every run and job count. The fold runs on native ints, i.e. FNV-1a
   64 modulo 2^63: xor and multiply carry only upwards, so the low 63
   bits match the 64-bit hash, and the decision reads at most 20. *)
let fnv_offset = Int64.to_int 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3

let fnv1a_fold h b =
  let h = ref h in
  for i = 0 to Bytes.length b - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * fnv_prime
  done;
  !h

let create ?(sample_shift = 3) ~metrics ~seed () =
  if sample_shift < 0 || sample_shift > 20 then invalid_arg "Lifecycle.create";
  { metrics;
    seed_hash = fnv1a_fold fnv_offset (Bytes.unsafe_of_string seed);
    keep_mask = (1 lsl sample_shift) - 1;
    by_epoch = Hashtbl.create 8; included_per_epoch = Hashtbl.create 8;
    sampled = 0; seen = 0 }

let sampled_count t = t.sampled
let seen_count t = t.seen

let keeps t ~id = fnv1a_fold t.seed_hash id land t.keep_mask = 0

let observe t ~cls ~stage v =
  Metrics.observe t.metrics (Printf.sprintf "lifecycle.%s.%s" cls stage) v

(* Inclusion: the one per-op call. Counts every op for the amortization
   denominator; stores only the sampled ones. *)
let on_included t ~id ~cls ~issued_at ~wire ~epoch ~at =
  t.seen <- t.seen + 1;
  Hashtbl.replace t.included_per_epoch epoch
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.included_per_epoch epoch));
  if keeps t ~id then begin
    t.sampled <- t.sampled + 1;
    let cell =
      match Hashtbl.find_opt t.by_epoch epoch with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add t.by_epoch epoch l;
        l
    in
    cell := { lc_class = cls; lc_issued_at = issued_at; lc_wire = wire } :: !cell;
    observe t ~cls ~stage:(stage_name Included) (at -. issued_at)
  end

let iter_epoch t ~epoch f =
  match Hashtbl.find_opt t.by_epoch epoch with
  | None -> ()
  | Some cell -> List.iter f (List.rev !cell)

(* A downstream stage reached at [at]: every sampled op of the epoch
   observes its end-to-end latency. [Pruned] also drops the records. *)
let on_stage t ~epoch ~stage ~at =
  iter_epoch t ~epoch (fun r ->
      observe t ~cls:r.lc_class ~stage:(stage_name stage) (at -. r.lc_issued_at));
  if stage = Pruned then begin
    Hashtbl.remove t.by_epoch epoch;
    Hashtbl.remove t.included_per_epoch epoch
  end

(* Sync submission: latency plus bytes amplification — the epoch's L1
   payload amortized over every included op, relative to each sampled
   op's own sidechain wire size. *)
let on_submitted t ~epoch ~at ~l1_bytes =
  let included =
    Stdlib.max 1 (Option.value ~default:0 (Hashtbl.find_opt t.included_per_epoch epoch))
  in
  let per_op = float_of_int l1_bytes /. float_of_int included in
  iter_epoch t ~epoch (fun r ->
      observe t ~cls:r.lc_class ~stage:(stage_name Submitted) (at -. r.lc_issued_at);
      observe t ~cls:r.lc_class ~stage:"amplification"
        (per_op /. float_of_int (Stdlib.max 1 r.lc_wire)))

(* Sampled-record classes still live (i.e. not yet pruned), sorted. *)
let live_classes t =
  Hashtbl.fold (fun _ cell acc -> List.map (fun r -> r.lc_class) !cell @ acc)
    t.by_epoch []
  |> List.sort_uniq compare
