(* Gates over the bench's measurement artifacts, each against a
   checked-in baseline: the micro-benchmark ns/run (BENCH_results.json),
   the scale sweep (SWEEP_baseline.json), and the twin-overhead cell
   (twin.json, against the sweep baseline's cell of the same users).
   Each returns Growth_guard's verdict; a missing key or a value of the
   wrong type is an [Error]. The bounds are constants, not options: a
   bound is changed here, with its reason, or not at all. *)

module Json = Telemetry.Json

(* A micro row fails past 3x its committed ns/run: CI runners are noisy. *)
let micro_factor = 3.0

(* Sweep wall clock is noisy on shared runners, so it fails only past 3x.
   Peak RSS follows allocation, not machine speed (under 4 % spread
   across seeds), so it fails past 1.5x. The 100k cell's worst GC pause
   fails past 3x; smaller cells' pauses are too short to gate. *)
let sweep_wall_factor = 3.0
let sweep_rss_factor = 1.5
let sweep_gc_pause_factor = 3.0
let sweep_gc_pause_users = 100_000.0

(* The sweep columns the simulation fixes: equal, or the run changed. *)
let sweep_exact =
  [ "generated"; "processed"; "epochs_applied"; "storage_words"; "summary_users";
    "summary_users_max" ]

(* The fault-free twin-on wall may exceed the baseline cell's wall by 10 %:
   the comparison also credits the hot-path work that pays for the twin. *)
let twin_tolerance = 1.10

exception Malformed of string

(* Member [key] of object [v], as [cast] reads it. *)
let get cast what key v =
  match Option.bind (Json.member key v) cast with
  | Some x -> x
  | None -> raise (Malformed (Printf.sprintf "%S is missing or not %s" key what))

let field = get Option.some "a value"
let number = get (function Json.Jnumber f -> Some f | _ -> None) "a number"
let items = get (function Json.Jarray l -> Some l | _ -> None) "an array"

(* An object of numbers, sorted by name. *)
let numbers key v =
  get (function Json.Jobject l -> Some l | _ -> None) "an object" key v
  |> List.map (fun (name, _) -> (name, number name (field key v)))
  |> List.sort compare

(* A gate's verdict as it is collected: each violation, each ungated
   note, and how many pairs were compared. *)
type acc = {
  mutable violations : string list;  (* newest first *)
  mutable notes : string list;
  mutable checked : int;
}

let start () = { violations = []; notes = []; checked = 0 }
let bad acc fmt = Printf.ksprintf (fun s -> acc.violations <- s :: acc.violations) fmt
let note acc fmt = Printf.ksprintf (fun s -> acc.notes <- s :: acc.notes) fmt
let compared acc = acc.checked <- acc.checked + 1

let verdict acc =
  { Growth_guard.violations = List.rev acc.violations; checked = acc.checked;
    notes = List.rev acc.notes }

(* Perf-guard: every committed micro row present in the fresh run and at
   most [micro_factor] times its committed ns/run, and no fresh row
   without a committed value (a baseline rewritten with an empty micro_ns
   would otherwise pass every row). *)
let micro ~baseline ~fresh =
  let committed = numbers "micro_ns" baseline and fresh = numbers "micro_ns" fresh in
  let acc = start () in
  if fresh = [] then bad acc "no micro results measured";
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name committed) then bad acc "%s: no committed value" name)
    fresh;
  List.iter
    (fun (name, base_ns) ->
      match List.assoc_opt name fresh with
      | None -> bad acc "%s: missing from fresh run" name
      | Some ns ->
        compared acc;
        if ns > micro_factor *. base_ns then
          bad acc "%s: %.1f ns vs baseline %.1f ns (%.1fx)" name ns base_ns (ns /. base_ns)
        else note acc "ok %s: %.1f ns (%.2fx of baseline)" name ns (ns /. base_ns))
    committed;
  verdict acc

let sweep_schema = "ammboost-sweep/2"

(* The scale sweep: same schema and epochs; every baseline cell (by
   users) present, its deterministic columns equal, its summaries
   activity-sized, and its wall, RSS and (at 100k users) worst GC pause
   within their factors. *)
let sweep ~baseline ~fresh =
  let acc = start () in
  List.iter
    (fun (side, doc) ->
      let schema = field "schema" doc in
      if schema <> Json.Jstring sweep_schema then
        bad acc "%s schema %s, want %s" side (Json.to_string schema) sweep_schema)
    [ ("baseline", baseline); ("fresh", fresh) ];
  if field "epochs" baseline <> field "epochs" fresh then bad acc "epoch count drifted";
  (* The last fresh cell of a user count wins, as in a JSON map. *)
  let fresh_cells = List.rev_map (fun c -> (number "users" c, c)) (items "cells" fresh) in
  List.iter
    (fun bcell ->
      let users = number "users" bcell in
      match List.assoc_opt users fresh_cells with
      | None -> bad acc "users=%.0f: missing from fresh sweep" users
      | Some fcell ->
        compared acc;
        List.iter
          (fun key ->
            if field key fcell <> field key bcell then
              bad acc "users=%.0f %s: %s != baseline %s" users key
                (Json.to_string (field key fcell)) (Json.to_string (field key bcell)))
          sweep_exact;
        (* Delta summaries: total user entries track activity, not
           population x epochs (the pre-delta value). *)
        let summary_users = number "summary_users" fcell in
        if summary_users >= number "epochs_applied" fcell *. users then
          bad acc "users=%.0f: summary_users %.0f is population-sized, delta emission regressed"
            users summary_users;
        let gated =
          [ ("wall_s", sweep_wall_factor); ("rss_peak_kb", sweep_rss_factor) ]
          @
          if users = sweep_gc_pause_users then [ ("gc_pause_max_ms", sweep_gc_pause_factor) ]
          else []
        in
        List.iter
          (fun (key, factor) ->
            let f = number key fcell and b = number key bcell in
            if f > factor *. b then
              bad acc "users=%.0f %s: %.2f exceeds %.1fx baseline %.2f" users key f factor b
            else note acc "ok users=%.0f %s: %.2f (%.2fx of baseline)" users key f (f /. b))
          gated)
    (items "cells" baseline);
  verdict acc

(* The twin-overhead cell: fault-free, the sweep baseline's epochs, and
   its twin-on wall within [twin_tolerance] of the baseline cell with the
   same users. The self-relative on/off ratio is noted, not gated: one
   run's wall on a shared runner is too noisy for a tight ratio. *)
let twin ~baseline ~fresh =
  let acc = start () in
  let schema = field "schema" fresh in
  if schema <> Json.Jstring "ammboost-twin/1" then
    bad acc "schema %s, want ammboost-twin/1" (Json.to_string schema);
  if number "divergences" fresh <> 0.0 || field "consistent" fresh <> Json.Jbool true then
    bad acc "overhead cell is fault-free but diverged";
  if field "epochs" baseline <> field "epochs" fresh then bad acc "epoch count drifted";
  let users = number "users" fresh and wall_on = number "wall_on_s" fresh in
  note acc "twin on: %.2fs, twin off: %.2fs (self-relative %+.1f%%)" wall_on
    (number "wall_off_s" fresh) (number "overhead_pct" fresh);
  (match List.find_opt (fun c -> number "users" c = users) (items "cells" baseline) with
  | None -> bad acc "users=%.0f: no baseline cell" users
  | Some cell ->
    compared acc;
    let wall = number "wall_s" cell in
    if wall_on > twin_tolerance *. wall then
      bad acc "twin-on wall %.2fs exceeds %.2fx the checked-in %.0f-user baseline %.2fs"
        wall_on twin_tolerance users wall
    else
      note acc "ok: twin-on wall %.2fs = %.2fx of the checked-in baseline %.2fs (limit %.2fx)"
        wall_on (wall_on /. wall) wall twin_tolerance);
  verdict acc

(* [gate] over two JSON texts; a parse or shape error names what failed. *)
let of_json gate ~baseline ~fresh =
  match (Json.parse baseline, Json.parse fresh) with
  | Error e, _ -> Error ("baseline: " ^ e)
  | _, Error e -> Error ("fresh: " ^ e)
  | Ok baseline, Ok fresh -> (
    try Ok (gate ~baseline ~fresh) with Malformed e -> Error e)
