(** One harness per table and figure of the paper's evaluation (§6), plus
    the ablations from DESIGN.md and the §4.2 recovery drills. Absolute
    numbers are compared against the paper in EXPERIMENTS.md;
    `bench/main.exe` runs, prints, writes and judges every {!experiment}
    in {!experiments} and {!opt_in} on one path.

    What an experiment varies arrives as an argument, never from the
    environment: [~scale] divides every daily traffic volume (1 = the
    paper's full parameters), the scale sweep and the twin-overhead cell
    take their user counts, and the crash drill its directory. *)

(** {1 Experiments} *)

type report = {
  print : unit -> unit;  (** the experiment's stdout section *)
  files : (string * string) list;
      (** (name, contents) to write under the bench's [--out] *)
  failed : string list;  (** the names of the verdicts that do not hold *)
}

type experiment = {
  name : string;
  serial : bool;
      (** measures time or RSS process-wide, so the bench runs it alone,
          with the domain pool shut down *)
  run : sink:Telemetry.Report.sink -> out:string option -> report;
      (** runs every simulation of the experiment, absorbing each run's
          sink into [sink] in submission order; [out] is the bench's
          [--out] directory, which only the crash drill reads (its scene
          directories go under [<out>/crash-drill]) *)
}

val experiments : scale:float -> twin_users:int -> experiment list
(** The bench's default targets, in order: Tables 1–8, Fig. 6, the
    ablations, the chaos, exit, crash and twin-audit drills, the
    twin-overhead cell ([twin_users] users; writes [twin.json]) and the
    growth observatory (writes [observe.json] and [report.md]; fixed
    volumes, so [OBSERVE_baseline.json] holds at any [scale]). Every
    stdout section is deterministic in the seed at any domain count;
    wall and RSS readings go to stderr and the files only. *)

val opt_in : sweep_users:int list -> experiment list
(** Targets run only when named: the scale sweep, one {!sweep_cfg} cell
    per entry of [sweep_users] in list order (pass them ascending: peak
    RSS is a process-wide high-water mark); writes [sweep.json]. *)

(** {1 Tables and drills} *)

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
    Every {!experiment} absorbs its runs the same way, and traces them
    when its sink's tracer is enabled. *)

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

(** {1 Run report} *)

val observe_report :
  ?counterfactual:string * (int * float) list -> System.result -> string
(** Render the markdown run-report for any completed run: parameter and
    summary tables, growth sparklines and per-epoch table, lifecycle
    latency and amplification tables from the run's own registry, and
    the mode/fault event timeline. The growth comparison uses
    [counterfactual] (a labelled per-epoch byte series, e.g. a measured
    {!Baseline.result.growth_epochs}) when given, else the ledger's own
    recorded analytic Sepolia counterfactual. *)

(** {1 Scale sweep} *)

val sweep_cfg : users:int -> Config.t
(** The cell configuration for one population: traffic volume, mainchain
    gas limit and meta-block capacity all scale with [users] (a sync
    carrying every user's entry must fit one block), and the seed
    embeds [users] so each cell is independent of which others run. *)

val peak_rss_kb : unit -> int
(** The process high-water RSS in KiB (Linux [/proc/self/status] VmHWM;
    0 where unavailable). Monotone over the process lifetime. *)
