(* Cross-layer safety audit and violation ledger (see monitor.mli).

   Each audit re-derives, from first principles, the custody and
   solvency invariants the simulator's safety argument rests on, against
   the live state of the bank and the pool at an epoch boundary. Checks
   are pure reads: the monitor never mutates the state it audits. *)

module U256 = Amm_math.U256
module Token_bank = Tokenbank.Token_bank
module Sync_payload = Tokenbank.Sync_payload
module Pool = Uniswap.Pool
module Tmetrics = Telemetry.Metrics
module Log = Telemetry.Log
module Json = Telemetry.Json

let scope = "monitor"

type severity = Warning | Degraded | Fatal
type layer = Amm | Tokenbank | Sidechain | Mainchain | Consensus | Durability | Twin

type violation = {
  v_check : string;
  v_layer : layer;
  v_severity : severity;
  v_detail : string;
}

type report = {
  r_epoch : int;
  r_violations : violation list;
}

let severity_to_string = function
  | Warning -> "warning"
  | Degraded -> "degraded"
  | Fatal -> "fatal"

let layer_to_string = function
  | Amm -> "amm"
  | Tokenbank -> "tokenbank"
  | Sidechain -> "sidechain"
  | Mainchain -> "mainchain"
  | Consensus -> "consensus"
  | Durability -> "durability"
  | Twin -> "twin"

let has_fatal r = List.exists (fun v -> v.v_severity = Fatal) r.r_violations

type t = {
  c_audits : Tmetrics.counter;
  c_warning : Tmetrics.counter;
  c_degraded : Tmetrics.counter;
  c_fatal : Tmetrics.counter;
}

let create (sink : Telemetry.Report.sink) =
  let reg = sink.Telemetry.Report.metrics in
  { c_audits = Tmetrics.counter reg "monitor.audits";
    c_warning = Tmetrics.counter reg "monitor.violations.warning";
    c_degraded = Tmetrics.counter reg "monitor.violations.degraded";
    c_fatal = Tmetrics.counter reg "monitor.violations.fatal" }

(* The sink's registry is the only store of the monitor's counts. *)
let audits_run t = Tmetrics.counter_value t.c_audits

let violation_totals t =
  List.filter
    (fun (_, n) -> n > 0)
    (List.map
       (fun (k, c) -> (k, Tmetrics.counter_value c))
       [ ("degraded", t.c_degraded); ("fatal", t.c_fatal); ("warning", t.c_warning) ])

(* ------------------------------------------------------------------ *)
(* Individual checks. Each returns a violation list (usually empty).   *)
(* ------------------------------------------------------------------ *)

let pair_str (a, b) = Printf.sprintf "(%s, %s)" (U256.to_string a) (U256.to_string b)

(* Reserves summed over every pool the bank records. *)
let pool_reserves bank =
  List.fold_left
    (fun (a0, a1) pid ->
      match Token_bank.pool bank pid with
      | Some p -> (U256.add a0 p.Token_bank.balance0, U256.add a1 p.Token_bank.balance1)
      | None -> (a0, a1))
    (U256.zero, U256.zero)
    (List.init 4 Fun.id)

(* Token conservation across the ledger, the bank and the pools: the
   ERC20 balances the bank custodies must equal its pool reserves plus
   every deposit that can still be outstanding. *)
let check_custody ~bank ~deposit_horizon =
  let pool_sum0, pool_sum1 = pool_reserves bank in
  let dep0 = ref U256.zero and dep1 = ref U256.zero in
  for e = 0 to deposit_horizon do
    let d0, d1 = Token_bank.deposit_total bank ~epoch:e in
    dep0 := U256.add !dep0 d0;
    dep1 := U256.add !dep1 d1
  done;
  let expect0 = U256.add pool_sum0 !dep0 and expect1 = U256.add pool_sum1 !dep1 in
  let c0, c1 = Token_bank.total_custody bank in
  if U256.equal c0 expect0 && U256.equal c1 expect1 then []
  else
    [ { v_check = "custody-conservation"; v_layer = Tokenbank; v_severity = Fatal;
        v_detail =
          Printf.sprintf "custody %s <> pools+deposits %s"
            (pair_str (c0, c1)) (pair_str (expect0, expect1)) } ]

let custody_holds ~bank ~deposit_horizon = check_custody ~bank ~deposit_horizon = []

(* Bank-side pool solvency: the value the last applied summary attributes
   to open positions (principal + fees) must be covered by the recorded
   pool reserves, per token. *)
let check_bank_solvency ~bank =
  let pool_sum0, pool_sum1 = pool_reserves bank in
  let v0, v1 =
    List.fold_left
      (fun (a0, a1) (p : Sync_payload.position_entry) ->
        ( U256.add a0 (U256.add p.Sync_payload.amount0 p.Sync_payload.fees0),
          U256.add a1 (U256.add p.Sync_payload.amount1 p.Sync_payload.fees1) ))
      (U256.zero, U256.zero) (Token_bank.positions bank)
  in
  if U256.ge pool_sum0 v0 && U256.ge pool_sum1 v1 then []
  else
    [ { v_check = "pool-solvency"; v_layer = Tokenbank; v_severity = Fatal;
        v_detail =
          Printf.sprintf "position value %s exceeds pool reserves %s"
            (pair_str (v0, v1)) (pair_str (pool_sum0, pool_sum1)) } ]

(* Live AMM structural invariants, via Pool's own helpers. *)
let check_amm ~pool =
  let a =
    if Pool.check_liquidity_consistency pool then []
    else
      [ { v_check = "amm-liquidity"; v_layer = Amm; v_severity = Fatal;
          v_detail = "tick-table liquidity_net does not match in-range liquidity" } ]
  in
  let b =
    if Pool.check_owed_solvency pool then []
    else
      [ { v_check = "amm-owed-solvency"; v_layer = Amm; v_severity = Fatal;
          v_detail = "reserves do not cover tokens_owed" } ]
  in
  a @ b

(* ------------------------------------------------------------------ *)
(* The audit                                                           *)
(* ------------------------------------------------------------------ *)

let count t v =
  Tmetrics.inc
    (match v.v_severity with
    | Warning -> t.c_warning
    | Degraded -> t.c_degraded
    | Fatal -> t.c_fatal)

let emit ~now ~epoch v =
  let fields =
    [ ("severity", Json.String (severity_to_string v.v_severity));
      ("layer", Json.String (layer_to_string v.v_layer));
      ("check", Json.String v.v_check);
      ("epoch", Json.Int epoch);
      ("detail", Json.String v.v_detail) ]
  in
  match v.v_severity with
  | Fatal -> Log.error ~scope ~t:now ~fields "monitor.violation"
  | Degraded | Warning -> Log.warn ~scope ~t:now ~fields "monitor.violation"

(* Violations found by another checker: the watchdog's liveness
   findings, the twin's divergence, the durable store's recovery notes.
   Counted and emitted exactly like audit findings, but attached to no
   report. *)
let record_external t ~now ~epoch ~severity ~layer ~check ~detail =
  let v = { v_check = check; v_layer = layer; v_severity = severity;
            v_detail = detail } in
  count t v;
  emit ~now ~epoch v

let audit t ~epoch ~now ~bank ~pool ~deposit_horizon =
  Tmetrics.inc t.c_audits;
  let violations =
    check_custody ~bank ~deposit_horizon @ check_bank_solvency ~bank @ check_amm ~pool
  in
  List.iter
    (fun v ->
      count t v;
      emit ~now ~epoch v)
    violations;
  { r_epoch = epoch; r_violations = violations }
