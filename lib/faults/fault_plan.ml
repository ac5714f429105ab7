(* Seeded, deterministic fault-plan engine.

   Every decision is drawn from [Rng.split root key] where [key] encodes
   the decision's coordinates (epoch, round, member, attempt).  Splitting
   never disturbs the root stream, so decisions are pure in their key:
   the same seed yields the same fault schedule regardless of evaluation
   order or domain count.  Injection counts are tracked in a table; the
   [seen] guard makes counting idempotent for decisions that may be
   re-queried. *)

module Rng = Amm_crypto.Rng
module Network = Consensus.Network

type network = {
  drop_rate : float;
  duplicate_rate : float;
  delay_rate : float;
  delay_max : float;
  partition_rate : float;
}

type consensus = {
  member_crash_rate : float;
  byzantine_leader_rate : float;
}

type committee = { withhold_rate : float; corrupt_rate : float }

type mainchain = {
  silent_leader_rate : float;
  corrupt_sync_rate : float;
  sync_drop_rate : float;
  reorg_rate : float;
  max_reorg_depth : int;
  congestion_rate : float;
  congestion_gas_limit : int;
}

(* Durable-storage faults: hard process death at a round boundary, with
   an optional torn write applied to the file being appended when the
   process dies. Crashes are scripted (exact (epoch, round) points for
   the crash drill) or drawn per round; torn modes are drawn per crash. *)
type torn = Truncated_tail | Bit_flip | Stale_marker

type durability = {
  crash_rate : float;
  torn_write_rate : float;
  crash_script : (int * int) list;
      (* exact (epoch, round) hard-death points, in addition to the
         probabilistic rate *)
}

(* Scripted sustained-failure scenarios, as opposed to the probabilistic
   rates above: these drive the watchdog's Degraded/Halted transitions
   and the emergency-exit protocol end-to-end. *)
type scenario = {
  quorum_starvation : (int * int) option;
      (* [from, until): every Sync/reconcile submission whose mainchain
         epoch falls in the window is dropped; [until = max_int] starves
         forever. *)
  committee_loss : int option;
      (* from this epoch on the sidechain committee is gone: no election,
         no summaries, no signatures — ever. *)
}

(* Silent state corruption: seeded bit-flips landed directly in the
   flat stores (no transaction, no log record) — the twin audit's prey. *)
type corruption_target = Deposit_row | Position_slab | Pool_tick

type state_corruption = {
  corruption_rate : float;
  corruption_script : (int * int * corruption_target) list;
}

(* Scripted interruptions (§4.2's three and Lemma 2's censoring), each
   answered by its drawn counterpart's decision on one exact epoch. *)
type interruption =
  | Silent_leader of int
  | Invalid_sync of int
  | Rollback of int
  | Censoring of int

type spec = {
  network : network;
  consensus : consensus;
  committee : committee;
  mainchain : mainchain;
  durability : durability;
  corruption : state_corruption;
  scenario : scenario;
  interruptions : interruption list;
}

let no_scenario = { quorum_starvation = None; committee_loss = None }

let no_durability =
  { crash_rate = 0.0; torn_write_rate = 0.0; crash_script = [] }

let no_corruption = { corruption_rate = 0.0; corruption_script = [] }

let corruption_target_label = function
  | Deposit_row -> "deposit_row"
  | Position_slab -> "position_slab"
  | Pool_tick -> "pool_tick"

let none =
  {
    network =
      {
        drop_rate = 0.0;
        duplicate_rate = 0.0;
        delay_rate = 0.0;
        delay_max = 0.0;
        partition_rate = 0.0;
      };
    consensus = { member_crash_rate = 0.0; byzantine_leader_rate = 0.0 };
    committee = { withhold_rate = 0.0; corrupt_rate = 0.0 };
    mainchain =
      {
        silent_leader_rate = 0.0;
        corrupt_sync_rate = 0.0;
        sync_drop_rate = 0.0;
        reorg_rate = 0.0;
        max_reorg_depth = 0;
        congestion_rate = 0.0;
        congestion_gas_limit = 0;
      };
    durability = no_durability;
    corruption = no_corruption;
    scenario = no_scenario;
    interruptions = [];
  }

let chaos ?(intensity = 0.1) () =
  (* Base rates are calibrated for intensity 0.1; scaling is linear and
     clamped so no rate reaches certainty even at extreme intensity. *)
  let r base = Float.min 0.9 (Float.max 0.0 (base *. (intensity /. 0.1))) in
  {
    network =
      {
        drop_rate = r 0.02;
        duplicate_rate = r 0.02;
        delay_rate = r 0.05;
        delay_max = 2.0;
        partition_rate = r 0.02;
      };
    consensus = { member_crash_rate = r 0.02; byzantine_leader_rate = r 0.03 };
    committee = { withhold_rate = r 0.2; corrupt_rate = r 0.1 };
    mainchain =
      {
        silent_leader_rate = r 0.05;
        corrupt_sync_rate = r 0.05;
        sync_drop_rate = r 0.15;
        reorg_rate = r 0.1;
        max_reorg_depth = 3;
        congestion_rate = r 0.1;
        congestion_gas_limit = 2_000_000;
      };
    (* Crashes abort the run they hit; the chaos soak measures recovery
       inside one run, so the durability class stays scripted-only (the
       crash drill drives it explicitly). *)
    durability = no_durability;
    (* Like crashes, corruption aborts what it touches rather than
       exercising recovery inside the run: the chaos soak keeps it
       zero, the twin-audit bench scripts it explicitly. *)
    corruption = no_corruption;
    scenario = no_scenario;
    interruptions = [];
  }

let active s =
  s.network.drop_rate > 0.0
  || s.network.duplicate_rate > 0.0
  || s.network.delay_rate > 0.0
  || s.network.partition_rate > 0.0
  || s.consensus.member_crash_rate > 0.0
  || s.consensus.byzantine_leader_rate > 0.0
  || s.committee.withhold_rate > 0.0
  || s.committee.corrupt_rate > 0.0
  || s.mainchain.silent_leader_rate > 0.0
  || s.mainchain.corrupt_sync_rate > 0.0
  || s.mainchain.sync_drop_rate > 0.0
  || s.mainchain.reorg_rate > 0.0
  || s.mainchain.congestion_rate > 0.0
  || s.durability.crash_rate > 0.0
  || s.durability.torn_write_rate > 0.0
  || s.durability.crash_script <> []
  || s.corruption.corruption_rate > 0.0
  || s.corruption.corruption_script <> []
  || s.scenario.quorum_starvation <> None
  || s.scenario.committee_loss <> None
  || s.interruptions <> []

type t = {
  spec : spec;
  rng : Rng.t; (* root stream; only ever split, never drawn from *)
  counts : (string, int) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;
}

let create ~seed spec =
  {
    spec;
    rng = Rng.create (seed ^ "/fault-plan");
    counts = Hashtbl.create 16;
    seen = Hashtbl.create 64;
  }

let spec t = t.spec

let note t label n =
  if n > 0 then
    Hashtbl.replace t.counts label
      (n + Option.value ~default:0 (Hashtbl.find_opt t.counts label))

let injected t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let total_injected t = Hashtbl.fold (fun _ v acc -> acc + v) t.counts 0

(* A fresh draw keyed by [key]: pure in (seed, key). *)
let draw t key = Rng.float (Rng.split t.rng key)

(* Count [label] once per distinct [key], no matter how often the
   decision is re-queried. *)
let note_once t ~key label n =
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    note t label n
  end

(* A scripted hit always fires; a drawn one fires at [rate]. Both count
   once under the same key and label. *)
let hit ?(scripted = false) t ~rate ~key ~label =
  (scripted || (rate > 0.0 && draw t key < rate))
  &&
  (note_once t ~key label 1;
   true)

(* The per-round callers test for an empty script before building [i],
   so a plan without one allocates nothing there. *)
let scripted t i = List.mem i t.spec.interruptions

let silent_leader t ~epoch =
  hit t ~scripted:(scripted t (Silent_leader epoch))
    ~rate:t.spec.mainchain.silent_leader_rate
    ~key:(Printf.sprintf "mc.silent/%d" epoch)
    ~label:"mainchain.silent_leader"

let corrupt_sync t ~epoch =
  hit t ~scripted:(scripted t (Invalid_sync epoch))
    ~rate:t.spec.mainchain.corrupt_sync_rate
    ~key:(Printf.sprintf "mc.corrupt/%d" epoch)
    ~label:"mainchain.corrupt_sync"

let censoring t ~epoch =
  t.spec.interruptions <> []
  && hit t ~scripted:(scripted t (Censoring epoch)) ~rate:0.0
       ~key:(Printf.sprintf "cm.censor/%d" epoch)
       ~label:"committee.censoring"

let sync_dropped t ~epoch ~attempt =
  hit t ~rate:t.spec.mainchain.sync_drop_rate
    ~key:(Printf.sprintf "mc.syncdrop/%d/%d" epoch attempt)
    ~label:"mainchain.sync_dropped"

let sync_starved t ~epoch =
  match t.spec.scenario.quorum_starvation with
  | Some (from_, until_) when epoch >= from_ && epoch < until_ ->
    note_once t
      ~key:(Printf.sprintf "sc.starve/%d" epoch)
      "scenario.sync_starved" 1;
    true
  | _ -> false

let committee_lost t ~epoch =
  match t.spec.scenario.committee_loss with
  | Some from_ when epoch >= from_ ->
    note_once t ~key:"sc.loss" "scenario.committee_lost" 1;
    true
  | _ -> false

let congested t ~epoch =
  hit t ~rate:t.spec.mainchain.congestion_rate
    ~key:(Printf.sprintf "mc.congest/%d" epoch)
    ~label:"mainchain.congestion"

let reorg_depth t ~epoch =
  let s = t.spec.mainchain in
  if t.spec.interruptions <> [] && scripted t (Rollback epoch) then Some 1
  else if s.reorg_rate <= 0.0 || s.max_reorg_depth < 1 then None
  else
    let key = Printf.sprintf "mc.reorg/%d" epoch in
    if draw t key < s.reorg_rate then
      Some (1 + Rng.int (Rng.split t.rng (key ^ "/depth")) s.max_reorg_depth)
    else None

(* Pick at most [cap] of [n] candidates, each hit independently with
   [rate]; indices are offset by [base] (1 for DKG shares, 0 for
   committee members). *)
let pick_members t ~rate ~cap ~n ~base ~key_prefix ~label ~count_key =
  if rate <= 0.0 || cap <= 0 then []
  else begin
    let picked = ref [] in
    let k = ref 0 in
    let i = ref 0 in
    while !i < n && !k < cap do
      let idx = base + !i in
      if draw t (Printf.sprintf "%s/%d" key_prefix idx) < rate then begin
        picked := idx :: !picked;
        incr k
      end;
      incr i
    done;
    let members = List.rev !picked in
    note_once t ~key:count_key label (List.length members);
    members
  end

let withheld_shares t ~epoch ~n ~max_withheld =
  let key = Printf.sprintf "cm.withhold/%d" epoch in
  pick_members t ~rate:t.spec.committee.withhold_rate ~cap:max_withheld ~n
    ~base:1 ~key_prefix:key ~label:"committee.share_withheld" ~count_key:key

let corrupted_shares t ~epoch ~n ~max_corrupted =
  let key = Printf.sprintf "cm.corrupt/%d" epoch in
  pick_members t ~rate:t.spec.committee.corrupt_rate ~cap:max_corrupted ~n
    ~base:1 ~key_prefix:key ~label:"committee.share_corrupted" ~count_key:key

let crashed_members t ~epoch ~round ~members ~max_faulty =
  let key = Printf.sprintf "cs.crash/%d/%d" epoch round in
  pick_members t ~rate:t.spec.consensus.member_crash_rate ~cap:max_faulty
    ~n:members ~base:0 ~key_prefix:key ~label:"consensus.member_crash"
    ~count_key:key

let byzantine_proposer t ~epoch ~round =
  hit t ~rate:t.spec.consensus.byzantine_leader_rate
    ~key:(Printf.sprintf "cs.byz/%d/%d" epoch round)
    ~label:"consensus.byzantine_leader"

let crash_now t ~epoch ~round =
  let d = t.spec.durability in
  hit t ~scripted:(List.mem (epoch, round) d.crash_script) ~rate:d.crash_rate
    ~key:(Printf.sprintf "dur.crash/%d/%d" epoch round)
    ~label:"durability.crash"

let torn_write t ~epoch ~round =
  let d = t.spec.durability in
  if d.torn_write_rate <= 0.0 then None
  else begin
    let key = Printf.sprintf "dur.torn/%d/%d" epoch round in
    if draw t key >= d.torn_write_rate then None
    else begin
      note_once t ~key "durability.torn_write" 1;
      let u = draw t (key ^ "/mode") in
      Some
        (if u < 1.0 /. 3.0 then Truncated_tail
         else if u < 2.0 /. 3.0 then Bit_flip
         else Stale_marker)
    end
  end

let corrupt_state t ~epoch ~round =
  let c = t.spec.corruption in
  let key = Printf.sprintf "state.corrupt/%d/%d" epoch round in
  let coords target =
    (* Row and bit selectors come from their own splits so a scripted
       and a drawn injection at the same coordinate pick identically. *)
    let index = Rng.int (Rng.split t.rng (key ^ "/index")) 1_000_003 in
    let bit = Rng.int (Rng.split t.rng (key ^ "/bit")) 1_000_003 in
    (* The injection is counted by the caller (with {!note}) when the
       bit-flip actually lands — a scripted coordinate may find the
       target store empty, like a fated reorg whose window closed. *)
    Some (target, index, bit)
  in
  match
    List.find_opt (fun (e, r, _) -> e = epoch && r = round) c.corruption_script
  with
  | Some (_, _, target) -> coords target
  | None ->
    if c.corruption_rate > 0.0 && draw t key < c.corruption_rate then begin
      let u = draw t (key ^ "/target") in
      coords
        (if u < 1.0 /. 3.0 then Deposit_row
         else if u < 2.0 /. 3.0 then Position_slab
         else Pool_tick)
    end
    else None

let net_chaos t ~epoch ~round ~members =
  let s = t.spec.network in
  if
    s.drop_rate <= 0.0 && s.duplicate_rate <= 0.0 && s.delay_rate <= 0.0
    && s.partition_rate <= 0.0
  then None
  else begin
    let key = Printf.sprintf "net/%d/%d" epoch round in
    (* The closure owns its own split stream; per-message draws are
       deterministic because the consensus event loop is. *)
    let rng = Rng.split t.rng key in
    let partitioned =
      s.partition_rate > 0.0 && members > 1
      && draw t (key ^ "/part") < s.partition_rate
    in
    let cut = if partitioned then 1 + Rng.int rng (members - 1) else 0 in
    if partitioned then note_once t ~key:(key ^ "/part") "net.partition" 1;
    Some
      (fun ~now:_ ~src ~dst ->
        if partitioned && src < cut <> (dst < cut) then begin
          note t "net.drop" 1;
          Network.Drop
        end
        else
          let u = Rng.float rng in
          if u < s.drop_rate then begin
            note t "net.drop" 1;
            Network.Drop
          end
          else if u < s.drop_rate +. s.duplicate_rate then begin
            note t "net.duplicate" 1;
            Network.Duplicate (s.delay_max *. Rng.float rng)
          end
          else if u < s.drop_rate +. s.duplicate_rate +. s.delay_rate then begin
            note t "net.delay" 1;
            Network.Delay (s.delay_max *. Rng.float rng)
          end
          else Network.Deliver)
  end
