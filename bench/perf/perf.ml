(* The ammBoost performance benchmark.

     perf.exe run [--seed S] [--seconds N] [--trace [0|1]] [--out FILE]
                  [--workload W]... [W]...
     perf.exe compare A.json... -- B.json...

   `run` measures each workload (all four by default) for N seconds
   (default 20): every System.run happens in a fresh child process of
   this executable, one at a time, single domain. Untraced, it prints the
   end-to-end metrics; with --trace it pairs each untraced run with one
   under the sampling profiler and prints the per-layer metrics, and
   writes <workload>.folded next to the results file. Each workload ends
   with one JSON line {correct, attempted, failed, metrics}; the whole
   run lands in the results file (default _build/perf/results.json).
   Durable directories and runtime-events rings live in a temporary
   directory under _build/perf that is removed at exit.

   `compare` reads two sets of results files and the bounds in
   BENCHMARK.json and gives a verdict per (workload, metric); it exits 1
   on a regression, a fingerprint mismatch or more failed operations. *)

open Perf_bench
module Json = Telemetry.Json

let work_dir = Filename.concat "_build" "perf"
let fail_usage msg = prerr_endline ("perf.exe: " ^ msg); exit 2

let str o k = match Json.member k o with Some (Json.Jstring s) -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Child side                                                          *)
(* ------------------------------------------------------------------ *)

let child = function
  | [ mode; name; seed; dir; folded ] ->
    let mode =
      match Measure.mode_of_string mode with Some m -> m | None -> fail_usage "bad mode"
    in
    let w =
      match Workloads.find name with Some w -> w | None -> fail_usage "bad workload"
    in
    let seed = if seed = "-" then None else Some seed in
    let folded = if folded = "-" then None else Some folded in
    let fields =
      Measure.run_once ~mode ~w ~cfg:(Workloads.config ?seed w) ~dir ?folded ()
    in
    print_endline (Json.to_string (Json.Jobject fields))
  | _ -> fail_usage "child MODE WORKLOAD SEED DIR FOLDED"

(* ------------------------------------------------------------------ *)
(* Parent side                                                         *)
(* ------------------------------------------------------------------ *)

(* Run one child to completion and parse the last line it printed. *)
let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: "child" :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
    match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
    | last :: _ -> Json.parse last
    | [] -> Error "child printed nothing")
  | Unix.WEXITED n -> Error (Printf.sprintf "child exited with %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    Error (Printf.sprintf "child killed by signal %d" n)

let now = Unix.gettimeofday

let measure ~tmp ~seconds ~trace ?seed (w : Workloads.t) =
  let attempted = ref 0 and errors = ref [] and fingerprint = ref None in
  let fail e = errors := e :: !errors in
  let dir sub = Filename.concat tmp (w.Workloads.name ^ "-" ^ sub) in
  let run ?folded mode sub =
    incr attempted;
    let args =
      [ Measure.mode_name mode; w.Workloads.name; Option.value ~default:"-" seed;
        dir sub; Option.value ~default:"-" folded ]
    in
    match spawn args with
    | Error e ->
      fail (Measure.mode_name mode ^ ": " ^ e);
      None
    | Ok o ->
      Option.iter (fun e -> fail (Measure.mode_name mode ^ ": " ^ e)) (str o "error");
      (if mode <> Measure.Setup then
         match (str o "fingerprint", !fingerprint) with
         | Some fp, None -> fingerprint := Some fp
         | Some fp, Some fp0 when fp <> fp0 ->
           fail (Measure.mode_name mode ^ " run changed the fingerprint: " ^ fp)
         | _ -> ());
      Some o
  in
  (* Set-up cost: at least three fresh set-ups, more while they are
     cheap, and the median of them. *)
  let setup =
    if trace then []
    else
      let t0 = now () in
      let rec go acc n =
        if n >= 3 && (n >= 25 || now () -. t0 > seconds /. 10.0) then acc
        else go (Option.to_list (run Measure.Setup "setup") @ acc) (n + 1)
      in
      go [] 0
  in
  (* The measurement window: whole runs while the next one still fits,
     and at least three. *)
  let deadline = now () +. seconds in
  let rec loop ~timed ~traced ~recover n =
    let t0 = now () in
    let timed = Option.to_list (run Measure.Timed "timed") @ timed in
    let traced, recover =
      if not trace then (traced, recover)
      else
        let folded =
          if n = 0 then Some (Filename.concat work_dir (w.Workloads.name ^ ".folded"))
          else None
        in
        let traced = Option.to_list (run ?folded Measure.Traced "traced") @ traced in
        ( traced,
          if w.Workloads.durable then
            Option.to_list (run Measure.Recover "timed") @ recover
          else recover )
    in
    let rep = now () -. t0 in
    if n + 1 >= 3 && now () +. rep > deadline then (timed, traced, recover)
    else loop ~timed ~traced ~recover (n + 1)
  in
  let timed, traced, recover = loop ~timed:[] ~traced:[] ~recover:[] 0 in
  let fingerprint = Option.value ~default:"" !fingerprint in
  if seed = None && fingerprint <> w.Workloads.expected then
    fail ("fingerprint differs from the recorded one: " ^ fingerprint);
  let ops_failed_frac =
    match timed with
    | o :: _ when !errors = [] -> Measure.ops_failed_frac o
    | _ -> 1.0
  in
  { Measure.name = w.Workloads.name;
    seed = (Workloads.config ?seed w).Ammboost.Config.seed;
    attempted = !attempted; errors = List.rev !errors; fingerprint; ops_failed_frac;
    metrics =
      (if trace then Measure.per_layer ~timed ~traced ~recover
       else Measure.end_to_end ~setup ~timed) }

let print_outcome ~trace (o : Measure.outcome) =
  Printf.printf "== %s (seed %s, %s, %d runs) ==\n" o.name o.seed
    (if trace then "traced" else "untraced") o.attempted;
  List.iter
    (fun (m : Measure.metric) ->
      Printf.printf "  %-28s %14.6f %s\n" m.name m.value m.unit_)
    o.metrics;
  Printf.printf "  fingerprint %s\n" o.fingerprint;
  List.iter (fun e -> Printf.printf "  FAILED %s\n" e) o.errors;
  print_endline (Measure.result_line o)

let run_cmd args =
  let seed = ref None and seconds = ref 20.0 and trace = ref false in
  let out = ref (Filename.concat work_dir "results.json") and names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--seed" :: s :: rest -> seed := Some s; parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some x when x > 0.0 -> seconds := x
      | _ -> fail_usage "--seconds takes a positive number");
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--out" :: f :: rest -> out := f; parse rest
    | "--workload" :: w :: rest -> names := !names @ [ w ]; parse rest
    | w :: rest when w <> "" && w.[0] <> '-' -> names := !names @ [ w ]; parse rest
    | a :: _ -> fail_usage ("unknown argument " ^ a)
  in
  parse args;
  let workloads =
    if !names = [] then Workloads.all
    else
      List.map
        (fun n ->
          match Workloads.find n with
          | Some w -> w
          | None -> fail_usage ("unknown workload " ^ n))
        !names
  in
  let tmp = Filename.concat work_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  Measure.clear_dir tmp;
  (* Children's runtime-events rings land in the temporary directory. *)
  Unix.putenv "OCAML_RUNTIME_EVENTS_DIR" tmp;
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Measure.rm_rf tmp)
      (fun () ->
        List.map
          (fun w ->
            let o = measure ~tmp ~seconds:!seconds ~trace:!trace ?seed:!seed w in
            print_outcome ~trace:!trace o;
            o)
          workloads)
  in
  Out_channel.with_open_text !out (fun oc ->
      output_string oc (Measure.results_json ~trace:!trace outcomes);
      output_char oc '\n');
  if List.exists (fun (o : Measure.outcome) -> o.errors <> []) outcomes then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let read_json path =
  match Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok v -> v
  | Error e -> fail_usage (path ^ ": " ^ e)
  | exception Sys_error e -> fail_usage e

let list_of = function Some (Json.Jarray l) -> l | _ -> []

(* (name, better, bound) of every end-to-end metric in BENCHMARK.json. *)
let bounds () =
  list_of (Json.member "end_to_end" (read_json "BENCHMARK.json"))
  |> List.filter_map (fun m ->
         match (str m "name", str m "better", Json.member "bound" m) with
         | Some n, Some b, Some (Json.Jnumber bound) ->
           Some (n, (if b = "higher" then Gate.Higher else Gate.Lower), bound)
         | _ -> None)

let compare_cmd args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | f :: rest -> split (f :: acc) rest
    | [] -> fail_usage "compare A.json... -- B.json..."
  in
  let a_files, b_files = split [] args in
  if a_files = [] || b_files = [] then fail_usage "compare needs files on both sides";
  let entries files =
    List.map (fun f -> list_of (Json.member "workloads" (read_json f))) files
  in
  let a = entries a_files and b = entries b_files in
  let find name runs =
    List.filter_map (List.find_opt (fun o -> str o "name" = Some name)) runs
  in
  let names =
    List.sort_uniq compare (List.filter_map (fun o -> str o "name") (List.concat a))
  in
  let bounds = bounds () in
  let regressions = ref 0 in
  let flag fmt = Printf.ksprintf (fun s -> incr regressions; print_endline s) fmt in
  Printf.printf "%-16s %-20s %32s %32s %8s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "B vs A" "verdict";
  List.iter
    (fun name ->
      let ra = find name a and rb = find name b in
      List.iter
        (fun (metric, better, bound) ->
          let values rs =
            List.map (Measure.get [ "metrics"; metric; "value" ]) rs
            |> List.filter (fun v -> not (Float.is_nan v))
          in
          match (values ra, values rb) with
          | [], _ | _, [] -> ()
          | va, vb ->
            let sa = Gate.side va and sb = Gate.side vb in
            let v = Gate.verdict ~better ~bound sa sb in
            let show s =
              Printf.sprintf "%.6g [%.6g, %.6g]" s.Gate.med s.Gate.q1 s.Gate.q3
            in
            Printf.printf "%-16s %-20s %32s %32s %+7.2f%%  %s (bound %.0f%%)\n" name
              metric (show sa) (show sb)
              (100.0 *. Measure.ratio (sb.Gate.med -. sa.Gate.med) sa.Gate.med)
              (Gate.verdict_name v) (100.0 *. bound);
            if v = Gate.Worse then incr regressions)
        bounds;
      let all = ra @ rb in
      if rb = [] then flag "%-16s has no B runs" name;
      (match
         List.sort_uniq compare
           (List.map (fun o -> (str o "seed", str o "fingerprint")) all)
       with
      | [ _ ] -> ()
      | _ -> flag "%-16s fingerprints or seeds differ between runs" name);
      if List.exists (fun o -> Json.member "correct" o <> Some (Json.Jbool true)) all then
        flag "%-16s a run failed its output check" name;
      let failed rs = Gate.median (List.map (Measure.get [ "ops_failed_frac" ]) rs) in
      if rb <> [] && failed rb > failed ra then
        flag "%-16s ops_failed_frac rose from %g to %g" name (failed ra) (failed rb))
    names;
  if !regressions > 0 then begin
    Printf.printf "%d regression(s)\n" !regressions;
    exit 1
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: args -> child args
  | "run" :: args -> run_cmd args
  | "compare" :: args -> compare_cmd args
  | _ ->
    fail_usage
      "usage: perf.exe run [OPTIONS] [WORKLOAD]... | compare A.json... -- B.json..."
