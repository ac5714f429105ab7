(* The liveness watchdog (see watchdog.mli): a pure state machine over
   per-epoch observations. System runs every effect it decides. *)

type mode = Normal | Degraded | Halted | Recovering

let mode_name = function
  | Normal -> "normal"
  | Degraded -> "degraded"
  | Halted -> "halted"
  | Recovering -> "recovering"

let mode_rank = function Normal -> 0 | Degraded -> 1 | Halted -> 2 | Recovering -> 3

let pipeline_depth = 1
let retry_degraded = 4
let retry_halted = 8
let signing_streak_degraded = 4
let divergence_halt = 2
let lag_warning (w : Config.watchdog) = Stdlib.max 1 (w.Config.wd_stall_degraded - 1)

type t = {
  mode : mode;
  transitions : (float * mode) list;
  signing_streak : int;
  divergence_streak : int;
}

let initial =
  { mode = Normal; transitions = []; signing_streak = 0; divergence_streak = 0 }

let enter st m ~now = { st with mode = m; transitions = (now, m) :: st.transitions }

let signed st ~degraded =
  { st with signing_streak = (if degraded then st.signing_streak + 1 else 0) }

let halted_at st =
  List.find_map (fun (at, m) -> if m = Halted then Some at else None) st.transitions

(* Transitions are newest first: a Recovering seen before the latest
   Halted ended that halt. *)
let recovery_latency st =
  let rec go recovered = function
    | [] -> None
    | (at, Halted) :: _ -> Option.map (fun r -> r -. at) recovered
    | (at, Recovering) :: rest -> go (Some at) rest
    | _ :: rest -> go recovered rest
  in
  go None st.transitions

type action = Stay | Enter of mode * string | Halt of string | Reconcile

type observation = {
  epoch : int;
  last_summary_epoch : int;
  last_synced_epoch : int;
  retry_attempt : int;
  committee_live : bool;
}

(* A finding graded Degraded from [degraded] and Warning from [warning];
   its detail is built only when it is graded. *)
let graded ~check ~layer ~warning ~degraded detail n =
  let finding severity =
    [ { Monitor.v_check = check; v_layer = layer; v_severity = severity;
        v_detail = detail n } ]
  in
  if n >= degraded then finding Monitor.Degraded
  else if n >= warning then finding Monitor.Warning
  else []

let signings = Printf.sprintf "%d consecutive degraded-quorum signings"

let findings w st o =
  if not o.committee_live then []
  else
    let lag ~check ~layer what =
      graded ~check ~layer ~warning:(lag_warning w) ~degraded:w.Config.wd_stall_degraded
        (Printf.sprintf "%s lag %d epochs" what)
    in
    lag ~check:"summary-liveness" ~layer:Monitor.Sidechain "summary production"
      (o.epoch - 1 - o.last_summary_epoch)
    @ lag ~check:"sync-liveness" ~layer:Monitor.Mainchain "sync application"
        (o.last_summary_epoch - o.last_synced_epoch - pipeline_depth)
    @ graded ~check:"degraded-signing" ~layer:Monitor.Consensus ~warning:1
        ~degraded:signing_streak_degraded signings st.signing_streak

let move st m reason = if st.mode = m then Stay else Enter (m, reason)

let tick w st o ~safety =
  let found = findings w st o in
  let stall = o.epoch - 1 - o.last_synced_epoch in
  let action =
    match st.mode with
    | Normal | Degraded ->
      if Monitor.has_fatal safety then Halt "monitor: fatal invariant violation"
      else if stall >= w.Config.wd_stall_halted then
        Halt (Printf.sprintf "sync stalled for %d epochs" stall)
      else if o.retry_attempt >= retry_halted then
        Halt (Printf.sprintf "sync retries exhausted (%d)" o.retry_attempt)
      else if List.exists (fun v -> v.Monitor.v_severity = Monitor.Degraded) found then
        move st Degraded "monitor: degraded violation"
      else if stall >= w.Config.wd_stall_degraded then
        move st Degraded (Printf.sprintf "sync stalled for %d epochs" stall)
      else if o.retry_attempt >= retry_degraded then
        move st Degraded (Printf.sprintf "%d consecutive sync retries" o.retry_attempt)
      else if st.signing_streak >= signing_streak_degraded then
        move st Degraded (signings st.signing_streak)
      else if st.mode = Degraded && stall <= pipeline_depth then
        Enter (Normal, "stall cleared; audit clean")
      else Stay
    | Halted -> Reconcile
    | Recovering ->
      if safety.Monitor.r_violations = [] && found = [] then
        Enter (Normal, "clean audit after reconciliation")
      else Stay
  in
  (found, action)

let audited st ~diverged ~dissolved =
  if not diverged then ({ st with divergence_streak = 0 }, Stay)
  else
    let st = { st with divergence_streak = st.divergence_streak + 1 } in
    let action =
      if dissolved then Stay
      else if st.divergence_streak >= divergence_halt then
        Halt "twin: repeated state divergence"
      else move st Degraded "twin: state divergence detected"
    in
    (st, action)
