(* Glue: one sink bundles the per-run metrics registry and span tracer,
   plus writers for their on-disk forms. A run owns its sink: System.run
   creates one and returns it in [result.telemetry], so no two runs ever
   share state and snapshots stay deterministic. Callers that aggregate
   runs absorb each run's sink with [merge_into], in submission order. *)

type sink = {
  metrics : Metrics.t;
  trace : Trace.t;
}

let sink ?(trace = false) () =
  { metrics = Metrics.create (); trace = Trace.create ~enabled:trace () }

(* Fold one sink into another (counters add, gauges last-write, histogram
   buckets add, trace events append). The parallel experiment runner
   absorbs its runs' sinks in submission order, which keeps aggregated
   snapshots identical at any job count. *)
let merge_into ~into src =
  Metrics.merge_into ~into:into.metrics src.metrics;
  Trace.merge_into ~into:into.trace src.trace

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_metrics s ~path = write_file path (Metrics.to_json_string s.metrics)
let write_prometheus s ~path = write_file path (Metrics.to_prometheus s.metrics)
let write_trace s ~path = write_file path (Trace.to_chrome_json s.trace)
