(** One harness per table and figure of the paper's evaluation (§6), plus
    the ablations from DESIGN.md and the §4.2 recovery drills. Absolute
    numbers are compared against the paper in EXPERIMENTS.md;
    `bench/main.exe` prints everything.

    What an experiment varies arrives as an argument, never from the
    environment: [~scale] divides every daily traffic volume (1 = the
    paper's full parameters), the scale sweep and the twin-overhead cell
    take their user counts, and the crash drill its directory. *)

(** {1 Performance tables (1–5) and drills} *)

type perf_row = {
  row_label : string;
  throughput : float;
  sc_latency : float;
  payout_latency : float;
  extra : (string * string) list;
}

(** {2 Tables and their parallel cell runner}

    A table is a list of independent simulator runs ("cells");
    {!run_table} fans them out across OCaml 5 domains. Every run owns its
    sink ({!System.result.telemetry}); after the parallel phase the
    runner absorbs each run's sink into [?sink] in submission order, so
    both the row list and the aggregated metrics snapshot are identical
    at any [?domains] value (including the sequential [~domains:1]).
    Every experiment below that takes [?sink] follows the same rule, and
    traces its runs when [?sink]'s tracer is enabled. *)

type cell = {
  cell_label : string;  (** the row/column header for this run *)
  cell_cfg : Config.t;
  cell_extra : System.result -> (string * string) list;
      (** extra report lines derived from the finished run *)
}

val cell :
  ?extra:(System.result -> (string * string) list) ->
  label:string -> Config.t -> cell

type 'a verdict = string * ('a list -> bool)
(** A named predicate over a drill's finished runs, in cell order. The
    bench names every verdict of a drill that fails and exits 1. *)

val failed : 'a verdict list -> 'a list -> string list
(** The names of the verdicts that do not hold. *)

type table = {
  title : string;
  col_header : string;  (** heads the column of cell labels *)
  cells : cell list;
  verdicts : System.result verdict list;
      (** what the runs must satisfy; [[]] for the paper's tables *)
}

val run_table :
  ?sink:Telemetry.Report.sink -> ?domains:int -> table ->
  perf_row list * System.result list
(** The rows, one per cell, and the runs behind them, which the table's
    verdicts judge. *)

val print_perf_table : table -> perf_row list -> unit

val table1 : scale:float -> table
(** V_D ∈ {50K, 500K, 5M, 25M} at the default configuration. *)

val table2 : scale:float -> table
(** Meta-block size ∈ {0.5, 1, 1.5, 2} MB at V_D = 50M. *)

val table3 : scale:float -> table
(** Sidechain round ∈ {4, 6, 9, 12} s at V_D = 25M. *)

val table4 : scale:float -> table
(** Epoch ∈ {5, 10, 20, 30, 60, 96} sidechain rounds at V_D = 25M (total
    experiment length held constant). *)

val table5 : scale:float -> table
(** Six (swap, mint, burn, collect) mixes at V_D = 25M; the extra column
    reports the maximum summary-block size. *)

(** {1 Gas, storage, and the overall comparison} *)

type table6 = {
  deposit_gas : float;
  deposit_latency : float;
  sync_payout_each : int;
  sync_storage_per_word : int;
  sync_keccak_base : int;
  sync_keccak_per_word : int;
  sync_ec_mul : int;
  sync_pairing : int;
  sync_latency : float;
  sync_gas_breakdown : (string * int) list;
  uniswap_gas : (string * int) list;
  uniswap_latency : (string * float) list;
}

val table6_gas_itemized :
  ?sink:Telemetry.Report.sink -> ?domains:int -> scale:float -> unit -> table6
(** The ammBoost run and the Uniswap baseline run execute concurrently
    (they are independent simulations over the same config). *)

val print_table6 : table6 -> unit

type table7 = {
  sync_swap_entry_mainchain : int;
  sync_position_entry_mainchain : int;
  vk_size : int;
  signature_size : int;
  swap_entry_sidechain : int;
  position_entry_sidechain : int;
  uniswap_sepolia : (string * int) list;
  uniswap_ethereum : (string * int) list;
}

val table7_storage : unit -> table7
val print_table7 : table7 -> unit

type fig6 = {
  ammboost_gas : int;
  baseline_gas : int;
  gas_reduction_pct : float;
  ammboost_growth : int;
  baseline_growth_sepolia : int;
  baseline_growth_ethereum : int;
  growth_reduction_vs_sepolia_pct : float;
  growth_reduction_vs_ethereum_pct : float;
  ammboost_result : System.result;
  baseline_result : Baseline.result;
}

val fig6_overall :
  ?sink:Telemetry.Report.sink -> ?domains:int -> scale:float -> unit -> fig6
val print_fig6 : fig6 -> unit

val table8_stats : scale:float -> Traffic.type_stats list
val print_table8 : Traffic.type_stats list -> unit

(** {1 Ablations} *)

type ablation_row = { ab_label : string; ab_value : float; ab_unit : string }
type ablation = { ab_title : string; ab_rows : ablation_row list }

val ablations :
  ?sink:Telemetry.Report.sink -> ?domains:int -> scale:float -> unit -> ablation list
(** The three ablations, each one independent run fanned out like table
    cells and absorbed into [?sink] in this order: Sync gas with vs
    without the threshold-signature quorum certificate; Sync bytes vs
    posting every processed transaction individually; sidechain storage
    with vs without meta-block pruning. Rows and the aggregated snapshot
    are identical at any [?domains] value. *)

val print_ablations : ablation list -> unit

val chaos : scale:float -> table
(** Chaos soak: a small threshold-signing, message-level-consensus system
    swept across fault-plan intensities (0, 0.05, 0.1 and 0.2, scaled by
    {!Faults.Fault_plan.chaos}). Extra rows report epochs applied, faults
    injected, recovery actions (mass-syncs, retries, degraded signings,
    rollbacks) and the twin-audit verdict — rows are deterministic in
    the seed at any [?domains] value. *)

val exit_drill : scale:float -> table
(** Liveness/exit drill: scripted quorum-starvation windows and a
    permanent committee loss against a tightened watchdog (Degraded at 2
    stalled epochs, Halted at 4). Sweeps stall duration against exit gas
    cost and recovery latency; extra rows report the operating-mode
    trajectory, exits served with their claimed value, the exit
    conservation and twin-audit verdicts, and the reconciliation
    summary. Deterministic at any [?domains] value. *)

(** {1 Crash drill} *)

type drill_row = {
  drill_label : string;
  drill_crashes : int;   (** injected process deaths survived *)
  drill_detected : int;  (** corruptions caught: snapshots rejected +
                             WAL segments repaired or dropped *)
  drill_healed : int;    (** corrupt/missing snapshots rewritten *)
  drill_replayed : int;  (** records byte-verified against the WAL *)
  drill_appended : int;  (** records newly logged *)
  drill_ok : bool;       (** scene expectation met AND end state
                             byte-identical to the reference run *)
}

exception Drill_failure of string
(** A scene could not even be staged (crash/resume loop diverged, or a
    corruption scene found no file to corrupt) — distinct from a clean
    [drill_ok = false] verdict. *)

type crash_drill = {
  cd_cfg : Config.t;  (** the reference run's configuration *)
  cd_verdicts : drill_row verdict list;  (** what the scene rows must satisfy *)
}

val crash_drill : scale:float -> crash_drill

val run_crash_drill :
  ?sink:Telemetry.Report.sink -> ?domains:int -> ?root:string -> crash_drill ->
  drill_row list
(** Durability drill: one uninterrupted durable reference run, then —
    in parallel — a scripted kill/restart run (hard process death at
    every {i (epoch, round)} in the crash script, each tearing the WAL
    tail) and corruption scenes that damage the newest snapshot (all
    three torn-write modes) or WAL segment before resuming. Every
    recovered run must detect the damage via checksums, fall back to
    the previous valid snapshot where needed, and end with a result
    fingerprint {e and} durable-directory byte digest identical to the
    reference. Scene directories live under [root], which stays for
    inspection, or under a fresh temp dir removed when the drill ends;
    paths never reach stdout, so output is byte-identical at any
    [?domains] value. *)

val print_crash_drill : drill_row list -> unit
(** Render drill rows, ending with a [byte-identity: PASS/FAIL] line. *)

(** {1 State-growth observatory} *)

type observe_run = {
  obs_ledger : Observe.Growth_ledger.t;
  obs_series_json : string;  (** the ledger in guard-baseline JSON form *)
  obs_report : string;       (** the markdown run-report *)
  obs_sampled : int;         (** lifecycle ops kept by the 1-in-8 sampler *)
  obs_seen : int;            (** all included ops the tracer counted *)
  obs_result : System.result;
}

val observe_report :
  ?counterfactual:string * (int * float) list -> System.result -> string
(** Render the markdown run-report for any completed run: parameter and
    summary tables, growth sparklines and per-epoch table, lifecycle
    latency and amplification tables from the run's own registry, and
    the mode/fault event timeline. The growth comparison uses
    [counterfactual] (a labelled per-epoch byte series, e.g. a measured
    {!Baseline.result.growth_epochs}) when given, else the ledger's own
    recorded analytic Sepolia counterfactual. *)

val observe : ?sink:Telemetry.Report.sink -> unit -> observe_run
(** Run the observatory's fixed configuration (deliberately unscaled, so
    the checked-in [OBSERVE_baseline.json] stays valid at any bench
    scale), absorb its sink into [?sink], and return the growth ledger,
    its guard JSON, and the rendered report. Deterministic in the seed:
    the JSON is byte-identical across runs and domain counts. *)

val print_observe : observe_run -> unit
(** Deterministic stdout table of the headline ledger series. *)

(** {1 Scale sweep} *)

val sweep_cfg : users:int -> Config.t
(** The cell configuration for one population: traffic volume, mainchain
    gas limit and meta-block capacity all scale with [users] (a sync
    carrying every user's entry must fit one block), and the seed
    embeds [users] so each cell is independent of which others run. *)

type sweep_cell = {
  sw_users : int;
  sw_generated : int;
  sw_processed : int;
  sw_throughput : float;
  sw_epochs_applied : int;
  sw_epochs_run : int;
  sw_storage_words : float;  (** final bank footprint (growth ledger) *)
  sw_wall_s : float;         (** wall seconds for the cell's [System.run] *)
  sw_rss_kb : int;           (** process peak RSS after the cell (VmHWM) *)
  sw_major_words : float;    (** GC major words allocated by the cell *)
  sw_promoted_words : float;
  sw_minor_words : float;
  sw_alloc_rate_mw_s : float;
      (** allocation pressure: (minor + major − promoted) words per wall
          second, in millions *)
  sw_summary_users : int;
      (** user entries summed over the cell's epoch summaries —
          O(active) under delta summaries (deterministic, printed) *)
  sw_summary_users_max : int;  (** largest single summary's user list *)
  sw_gc_pauses : int;
      (** minor collections + major slices (runtime-events spans) *)
  sw_gc_pause_total_ms : float;
  sw_gc_pause_max_ms : float;  (** longest single stop-the-world span *)
}

val peak_rss_kb : unit -> int
(** The process high-water RSS in KiB (Linux [/proc/self/status] VmHWM;
    0 where unavailable). Monotone over the process lifetime. *)

val scale_sweep :
  ?sink:Telemetry.Report.sink -> users:int list -> unit -> sweep_cell list
(** Run one cell per entry of [users], sequentially in list order (never
    across domains: peak RSS is process-wide and monotone, so parallel
    cells would pollute each other's measurement; pass the counts
    ascending). Simulation outputs are deterministic; wall/RSS/GC fields
    are measurements and go to stderr and the results JSON only. *)

val print_scale_sweep : sweep_cell list -> unit
(** Deterministic stdout table (measurement fields omitted). *)

val sweep_json : sweep_cell list -> string
(** The sweep in [ammboost-sweep/1] JSON form (measurements included) —
    what the CI perf gate compares against the checked-in
    [SWEEP_baseline.json]. *)

(** {1 Twin-audit drill} *)

val twin_audit : scale:float -> table
(** Scripted silent-corruption cells (deposit row, position slab, pool
    tick — each flipped at the summary round so no later write can mask
    it) against the continuous differential audit, plus a clean cell
    (zero false positives expected) and a consecutive-corruption cell
    under background chaos (must halt). Extra rows report audits run,
    divergent keys, injections caught in their own epoch, bisection
    counts, and a read-only time-travel probe executed concurrently on
    two domains against the immutable {!System.result.twin_view}.
    Deterministic at any [?domains] value. *)

type twin_overhead = {
  tov_users : int;
  tov_epochs : int;
  tov_wall_off : float;     (** wall seconds, [twin_audit = false] *)
  tov_wall_on : float;      (** wall seconds, [twin_audit = true] *)
  tov_overhead_pct : float; (** 100·(on/off − 1) *)
  tov_audits : int;
  tov_divergences : int;
  tov_consistent : bool;
}

val twin_overhead : ?sink:Telemetry.Report.sink -> users:int -> unit -> twin_overhead
(** One {!sweep_cfg} cell of [users] run twice in this process — twin
    off, then twin on — under identical machine conditions; the CI gate asserts
    the wall ratio stays within budget. Wall times go to stderr and
    {!twin_overhead_json} only, so stdout stays byte-identical across
    runs and job counts. *)

val print_twin_overhead : twin_overhead -> unit
(** Deterministic fields only (audit counts and the fault-free
    verdict). *)

val twin_overhead_json : twin_overhead -> string
(** The measurement in [ammboost-twin/1] JSON form — what the CI
    twin-audit overhead gate reads. *)
