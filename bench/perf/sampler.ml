(* A sampling profiler that attributes wall time and allocation to the
   simulator's layers from outside: nothing under lib/ is instrumented.

   SIGPROF fires on CPU time (ITIMER_PROF); OCaml runs the handler at
   the next safepoint of the running code, so the captured call stack is
   the code that was executing. The handler stores only the raw stack
   and the minor-heap allocation counter; names are resolved after the
   run. The kernel timer tick caps the rate (~250 samples/s at HZ=250)
   whatever interval is asked for. *)

type sample = { stack : Printexc.raw_backtrace; minor_words : float }

let samples : sample list ref = ref []
let interval_s = 0.001

let handler _ =
  samples :=
    { stack = Printexc.get_callstack 128; minor_words = Gc.minor_words () }
    :: !samples

let set_timer dt =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = dt; it_value = dt })

let start () =
  samples := [];
  Sys.set_signal Sys.sigprof (Sys.Signal_handle handler);
  set_timer interval_s

(* Samples oldest first. A SIGPROF already pending when the timer stops
   is ignored rather than left to its default action, which would kill
   the process. *)
let stop () =
  set_timer 0.0;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  let s = List.rev !samples in
  samples := [];
  s

(* ------------------------------------------------------------------ *)
(* Layers                                                              *)
(* ------------------------------------------------------------------ *)

(* A layer is a set of frame-name prefixes; the first matching prefix
   wins, so the summary-building entry points of the processor are
   listed before the processor's catch-all. Shared helpers (Amm_math,
   hashes, Rng, Merkle, Flatstore, Chain.Encoding, Telemetry, Stdlib)
   match nothing: their samples go to the layer that called them. *)
let layer_map =
  let summary_fns =
    [ "build_payload"; "begin_epoch"; "finish_payload"; "user_entry";
      "position_entry_of"; "entry_changed" ]
  in
  [ ("Ammboost__Traffic.", "traffic"); ("Chain__Tx.", "traffic");
    ("Chain__Mempool.", "mempool") ]
  @ List.map (fun f -> ("Sidechain__Processor." ^ f, "summary")) summary_fns
  @ [ ("Sidechain__Codec.", "summary");
      ("Sidechain__Processor.", "execute"); ("Sidechain__Deposits.", "execute");
      ("Uniswap__", "execute");
      ("Consensus__", "consensus"); ("Sidechain__Committee.", "consensus");
      ("Sidechain__Blocks.", "blocks");
      ("Amm_crypto__Bls.", "sign"); ("Amm_crypto__Field.", "sign");
      ("Amm_crypto__Group.", "sign");
      ("Mainchain__", "eth");
      ("Tokenbank__", "bank");
      ("Twin.", "twin");
      ("Durable__", "durable");
      ("Observe__", "observe");
      ("Monitor.", "monitor");
      ("Faults__Fault_plan.", "faults");
      ("Faults__Replay_oracle.", "oracle");
      ("Ammboost__Party.", "setup"); ("Ammboost__System.create", "setup") ]

(* Samples with no layer frame on the stack: System.run's own glue. *)
let system = "system"

(* Layer names in map order, then [system]. *)
let layer_names map =
  List.fold_left
    (fun acc (_, l) -> if List.mem l acc then acc else acc @ [ l ])
    [] map
  @ [ system ]

let layer_of map frame =
  List.find_map
    (fun (p, l) -> if String.starts_with ~prefix:p frame then Some l else None)
    map

(* Frame names, innermost first, without the handler's own frame. *)
let frames stack =
  match Printexc.backtrace_slots stack with
  | None -> []
  | Some slots ->
    Array.to_list slots
    |> List.filter_map Printexc.Slot.name
    |> List.filter (fun f -> not (String.starts_with ~prefix:"Perf_bench__Sampler." f))

type layer_stats = {
  self : int;          (* samples whose innermost layer frame is this layer *)
  incl : int;          (* samples with this layer anywhere on the stack *)
  alloc_words : float; (* minor words allocated since the previous sample *)
}

type profile = {
  total : int;
  layers : (string * layer_stats) list;  (* every layer of the map *)
  folded : (string * int) list;
      (* "outermost;...;innermost" stacks with their sample counts *)
}

let attribute ?(map = layer_map) ~start_words samples =
  let names = layer_names map in
  let index = Hashtbl.create 32 in
  List.iteri (fun i l -> Hashtbl.replace index l i) names;
  let n = List.length names in
  let self = Array.make n 0 and incl = Array.make n 0 in
  let alloc = Array.make n 0.0 in
  let folded = Hashtbl.create 1024 in
  let last_words = ref start_words in
  List.iter
    (fun s ->
      let fs = frames s.stack in
      let on_stack =
        match List.filter_map (layer_of map) fs with [] -> [ system ] | ls -> ls
      in
      let i = Hashtbl.find index (List.hd on_stack) in
      self.(i) <- self.(i) + 1;
      alloc.(i) <- alloc.(i) +. (s.minor_words -. !last_words);
      last_words := s.minor_words;
      List.iter
        (fun l ->
          let j = Hashtbl.find index l in
          incl.(j) <- incl.(j) + 1)
        (List.sort_uniq compare on_stack);
      let key = String.concat ";" (List.rev fs) in
      Hashtbl.replace folded key
        (1 + Option.value ~default:0 (Hashtbl.find_opt folded key)))
    samples;
  { total = List.length samples;
    layers =
      List.mapi
        (fun i l -> (l, { self = self.(i); incl = incl.(i); alloc_words = alloc.(i) }))
        names;
    folded = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) folded []) }

(* Flamegraph input: one "frame;frame;... count" line per distinct stack. *)
let write_folded path profile =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun (stack, n) -> Printf.fprintf oc "%s %d\n" stack n) profile.folded)
