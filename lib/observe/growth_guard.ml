(* Growth-guard: compares a freshly sampled growth ledger against a
   checked-in baseline. A regression is any sampled epoch where a byte,
   gas or storage-word series exceeds its baseline value beyond the
   tolerance; shrinking is always fine (that is the point of the paper).
   Missing epochs or keys on either side are reported too — a lost
   series is a lost guard. *)

type verdict = {
  violations : string list; (* empty = pass *)
  checked : int; (* (epoch, key) pairs compared *)
  notes : string list; (* ungated readings, printed before the violations *)
}

let ok v = v.violations = []

(* [tolerance] is relative: fresh > baseline * (1 + tolerance) fails.
   Values at or below [abs_floor] are compared absolutely (tiny series
   like storage words would otherwise fail on a one-word change). *)
let compare_ledgers ?(tolerance = 0.01) ?(abs_floor = 64.0) ~baseline ~fresh () =
  let violations = ref [] in
  let checked = ref 0 in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let fresh_rows = Growth_ledger.rows fresh in
  List.iter
    (fun (b : Growth_ledger.row) ->
      match
        List.find_opt
          (fun (f : Growth_ledger.row) -> f.Growth_ledger.ge_epoch = b.ge_epoch)
          fresh_rows
      with
      | None -> note "epoch %d: present in baseline, missing from fresh run" b.ge_epoch
      | Some f ->
        List.iter
          (fun (key, bv) ->
            match Growth_ledger.field f key with
            | None -> note "epoch %d %s: missing from fresh run" b.ge_epoch key
            | Some fv ->
              incr checked;
              let limit =
                if bv <= abs_floor then bv +. abs_floor
                else bv *. (1.0 +. tolerance)
              in
              if fv > limit then
                note "epoch %d %s: %.0f exceeds baseline %.0f (tolerance %.1f%%)"
                  b.ge_epoch key fv bv (100.0 *. tolerance))
          b.Growth_ledger.ge_fields)
    (Growth_ledger.rows baseline);
  if fresh_rows = [] then note "fresh run sampled no epochs";
  { violations = List.rev !violations; checked = !checked; notes = [] }

let compare_json ?tolerance ?abs_floor ~baseline ~fresh () =
  match (Growth_ledger.of_json baseline, Growth_ledger.of_json fresh) with
  | Error e, _ -> Error ("baseline: " ^ e)
  | _, Error e -> Error ("fresh: " ^ e)
  | Ok b, Ok f -> Ok (compare_ledgers ?tolerance ?abs_floor ~baseline:b ~fresh:f ())
