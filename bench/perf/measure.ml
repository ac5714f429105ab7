(* One measured System.run (the child side), and the metrics derived from
   a set of them (the parent side).

   Every run happens in a fresh child process, so peak RSS, the GC heap
   and the allocation counters belong to that run alone. A child reports
   one flat JSON object; the parent derives the benchmark's metrics from
   the objects of all its children. *)

open Ammboost
module Json = Telemetry.Json

type mode =
  | Setup    (* the workload's set-up only (Workloads.setup_config) *)
  | Timed    (* the workload, untraced *)
  | Traced   (* the workload under the sampling profiler *)
  | Recover  (* reopen the durable directory a Timed run finished *)

let mode_name = function
  | Setup -> "setup" | Timed -> "timed" | Traced -> "traced" | Recover -> "recover"

let mode_of_string = function
  | "setup" -> Some Setup | "timed" -> Some Timed | "traced" -> Some Traced
  | "recover" -> Some Recover | _ -> None

let num f = Json.Jnumber f
let int i = Json.Jnumber (float_of_int i)
let sum_counts l = List.fold_left (fun acc (_, n) -> acc + n) 0 l

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let clear_dir dir =
  rm_rf dir;
  Durable.Fsio.mkdir_p dir

(* Run [cfg] once in this process. [dir] is the durable directory of a
   durable workload: wiped first unless [mode = Recover]. [folded], for a
   traced run, is where the folded stacks go. *)
let run_once ~mode ~(w : Workloads.t) ~(cfg : Config.t) ~dir ?folded () =
  let cfg = if mode = Setup then Workloads.setup_config cfg else cfg in
  let durable =
    if w.Workloads.durable && mode <> Setup then begin
      if mode <> Recover then clear_dir dir;
      Some (Durable.Session.open_ ~dir ~snapshot_every:2 ())
    end
    else None
  in
  let traced = mode = Traced in
  let gc_pause =
    if traced then begin
      let g = Telemetry.Gc_pause.start () in
      ignore (Telemetry.Gc_pause.poll g);
      Some g
    end
    else None
  in
  let g0 = Gc.quick_stat () in
  if traced then Sampler.start ();
  let t0 = Unix.gettimeofday () in
  let r = System.run ?durable cfg in
  let wall = Unix.gettimeofday () -. t0 in
  let samples = if traced then Sampler.stop () else [] in
  let g1 = Gc.quick_stat () in
  let d f = f g1 -. f g0 in
  let promoted = d (fun g -> g.Gc.promoted_words) in
  let stat name = Option.value ~default:0 (List.assoc_opt name r.System.durability) in
  let base =
    [ ("mode", Json.Jstring (mode_name mode));
      ("wall_s", num wall);
      ("rss_kb", int (Experiments.peak_rss_kb ()));
      ("alloc_words",
       num (d (fun g -> g.Gc.minor_words) +. d (fun g -> g.Gc.major_words) -. promoted));
      ("promoted_words", num promoted);
      ("major_collections", int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("fingerprint", Json.Jstring (Workloads.fingerprint r));
      ("error",
       (match if mode = Setup then None else Workloads.check w r with
       | Some e -> Json.Jstring e
       | None -> Json.Jnull));
      ("users", int cfg.Config.users);
      ("generated", int r.System.generated);
      ("processed", int r.System.processed);
      ("rejected", int r.System.rejected);
      ("epochs_run", int r.System.epochs_run);
      ("rounds", int (r.System.epochs_run * cfg.Config.sc_rounds_per_epoch));
      ("summary_user_entries", int r.System.summary_user_entries);
      ("syncs", int r.System.sync_count);
      ("sync_retries", int r.System.sync_retries);
      ("rollbacks", int r.System.rollbacks);
      ("twin_audits", int r.System.twin_audits);
      ("durable_records",
       int
         (stat "durability.records_appended" + stat "durability.records_replayed"
        + stat "durability.records_skipped"));
      ("faults_injected", int (sum_counts r.System.faults_injected)) ]
  in
  match gc_pause with
  | None -> base
  | Some g ->
    let pauses = Telemetry.Gc_pause.poll g in
    let p = Sampler.attribute ~start_words:g0.Gc.minor_words samples in
    Option.iter (fun path -> Sampler.write_folded path p) folded;
    base
    @ [ ("samples", int p.Sampler.total);
        ("layers",
         Json.Jobject
           (List.map
              (fun (l, s) ->
                ( l,
                  Json.Jobject
                    [ ("self", int s.Sampler.self); ("incl", int s.Sampler.incl);
                      ("alloc_words", num s.Sampler.alloc_words) ] ))
              p.Sampler.layers));
        ("gc_pauses", int pauses.Telemetry.Gc_pause.pauses);
        ("gc_pause_ns", num (Int64.to_float pauses.Telemetry.Gc_pause.total_ns));
        ("gc_pause_max_ns", num (Int64.to_float pauses.Telemetry.Gc_pause.max_ns)) ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let get path (o : Json.value) =
  let rec go o = function
    | [] -> (match o with Json.Jnumber f -> f | _ -> Float.nan)
    | k :: rest -> (match Json.member k o with Some v -> go v rest | None -> Float.nan)
  in
  go o path

let med f runs = Gate.median (List.map f runs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* 1 - processed / (generated + 1); the +1 is the genesis mint. *)
let ops_failed_frac o =
  1.0 -. ratio (get [ "processed" ] o) (get [ "generated" ] o +. 1.0)

(* The end-to-end metrics, from the set-up and untraced runs. *)
let end_to_end ~setup ~timed =
  let processed o = get [ "processed" ] o in
  [ { name = "sim_tx_per_s"; unit_ = "tx/s";
      value = med (fun o -> ratio (processed o) (get [ "wall_s" ] o)) timed };
    { name = "wall_s"; unit_ = "s"; value = med (get [ "wall_s" ]) timed };
    { name = "setup_s"; unit_ = "s"; value = med (get [ "wall_s" ]) setup };
    { name = "rss_peak_mb"; unit_ = "MB";
      value = med (fun o -> get [ "rss_kb" ] o /. 1024.0) timed };
    { name = "alloc_words_per_tx"; unit_ = "words/tx";
      value = med (fun o -> ratio (get [ "alloc_words" ] o) (processed o)) timed } ]

(* Cost per unit of work, as (metric, layer, the child's count field the
   layer's inclusive time is divided by, scale, unit). *)
let unit_costs =
  [ ("traffic.us_per_tx", "traffic", "generated", 1e6, "us/tx");
    ("execute.us_per_tx", "execute", "processed", 1e6, "us/tx");
    ("summary.us_per_user_entry", "summary", "summary_user_entries", 1e6, "us/entry");
    ("consensus.us_per_round", "consensus", "rounds", 1e6, "us/round");
    ("eth.ms_per_epoch", "eth", "epochs_run", 1e3, "ms/epoch");
    ("bank.ms_per_epoch", "bank", "epochs_run", 1e3, "ms/epoch");
    ("oracle.ms_per_epoch", "oracle", "epochs_run", 1e3, "ms/epoch");
    ("twin.ms_per_audit", "twin", "twin_audits", 1e3, "ms/audit");
    ("durable.us_per_record", "durable", "durable_records", 1e6, "us/record");
    ("setup.us_per_user", "setup", "users", 1e6, "us/user") ]

let counts =
  [ ("execute.txs", "processed"); ("execute.rejected", "rejected");
    ("summary.user_entries", "summary_user_entries"); ("bank.syncs", "syncs");
    ("bank.sync_retries", "sync_retries"); ("bank.rollbacks", "rollbacks");
    ("twin.audits", "twin_audits"); ("durable.records", "durable_records");
    ("faults.injected", "faults_injected") ]

(* The per-layer metrics, from paired untraced and traced runs (and the
   recovery runs of a durable workload). Each is the median over the
   traced runs. *)
let per_layer ~timed ~traced ~recover =
  let wall = get [ "wall_s" ] in
  let share o l field = ratio (get [ "layers"; l; field ] o) (get [ "samples" ] o) in
  let secs o l field = share o l field *. wall o in
  let m name unit_ f = { name; unit_; value = med f traced } in
  List.concat_map
    (fun l ->
      [ m (l ^ ".self_s") "s" (fun o -> secs o l "self");
        m (l ^ ".incl_s") "s" (fun o -> secs o l "incl");
        m (l ^ ".alloc_mw") "Mwords" (fun o ->
            get [ "layers"; l; "alloc_words" ] o /. 1e6) ])
    (Sampler.layer_names Sampler.layer_map)
  @ List.map
      (fun (name, l, field, scale, unit_) ->
        m name unit_ (fun o -> scale *. ratio (secs o l "incl") (get [ field ] o)))
      unit_costs
  @ List.map (fun (name, field) -> m name "count" (get [ field ])) counts
  @ [ m "ops_failed_frac" "fraction" ops_failed_frac;
      { name = "durable.recover_s"; unit_ = "s";
        value = (if recover = [] then 0.0 else med wall recover) };
      m "gc.pause_s" "s" (fun o -> get [ "gc_pause_ns" ] o /. 1e9);
      m "gc.pause_max_ms" "ms" (fun o -> get [ "gc_pause_max_ns" ] o /. 1e6);
      m "gc.pauses" "count" (get [ "gc_pauses" ]);
      m "gc.promoted_mw" "Mwords" (fun o -> get [ "promoted_words" ] o /. 1e6);
      m "gc.major_collections" "count" (get [ "major_collections" ]);
      m "trace.samples" "count" (get [ "samples" ]);
      { name = "trace.overhead"; unit_ = "fraction";
        value = ratio (med wall traced) (med wall timed) -. 1.0 };
      m "trace.system_frac" "fraction" (fun o -> share o Sampler.system "self") ]

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  name : string;
  seed : string;
  attempted : int;
  errors : string list;  (* one per failed child or failed check *)
  fingerprint : string;
  ops_failed_frac : float;
  metrics : metric list;
}

let metrics_json (ms : metric list) =
  Json.obj
    (List.map
       (fun (m : metric) ->
         ( m.name,
           Json.obj [ ("value", Json.float m.value); ("unit", Json.string m.unit_) ] ))
       ms)

(* The one-line summary printed after each workload: exactly these keys. *)
let result_line (o : outcome) =
  Json.obj
    [ ("correct", if o.errors = [] then "true" else "false");
      ("attempted", string_of_int o.attempted);
      ("failed", string_of_int (List.length o.errors));
      ("metrics", metrics_json o.metrics) ]

let outcome_json (o : outcome) =
  Json.obj
    [ ("name", Json.string o.name); ("seed", Json.string o.seed);
      ("correct", if o.errors = [] then "true" else "false");
      ("attempted", string_of_int o.attempted);
      ("errors", Json.array (List.map Json.string o.errors));
      ("fingerprint", Json.string o.fingerprint);
      ("ops_failed_frac", Json.float o.ops_failed_frac);
      ("metrics", metrics_json o.metrics) ]

let results_json ~trace outcomes =
  Json.obj
    [ ("schema", Json.string "ammboost-perf/1");
      ("trace", if trace then "true" else "false");
      ("workloads", Json.array (List.map outcome_json outcomes)) ]

