(* The crash-consistent persistence subsystem: checksums, the wire
   cursor, record/snapshot codecs, WAL segments and their repair, the
   recovery scan's fallback, and session-level resume over real
   System.run executions. *)

module U256 = Amm_math.U256
module Address = Chain.Address
open Durable

let with_dir f = Fsio.with_temp_dir "ammboost-test-durable" f

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc_vectors () =
  (* The IEEE 802.3 check value. *)
  Alcotest.(check int) "123456789" 0xCBF43926
    (Crc32.digest (Bytes.of_string "123456789"));
  Alcotest.(check int) "empty" 0 (Crc32.digest Bytes.empty);
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int) "sub range" 0xCBF43926 (Crc32.digest_sub b ~pos:2 ~len:9)

let test_crc_incremental () =
  let b = Bytes.of_string "state growth control" in
  let whole = Crc32.digest b in
  let split = Crc32.update (Crc32.update 0 b ~pos:0 ~len:7) b ~pos:7 ~len:13 in
  Alcotest.(check int) "update composes" whole split;
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Crc32.digest_sub") (fun () ->
      ignore (Crc32.digest_sub b ~pos:15 ~len:9))

(* ------------------------------------------------------------------ *)
(* Wire cursor                                                         *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let buf = Buffer.create 64 in
  Wire.w_u8 buf 0xA5;
  Wire.w_u32 buf 123_456;
  Wire.w_i64 buf (-42);
  Wire.w_fixed buf (Bytes.of_string "fixed");
  Wire.w_var buf (Bytes.of_string "variable-length");
  let b = Buffer.to_bytes buf in
  match
    Wire.read b (fun r ->
        let u8 = Wire.r_u8 r "u8" in
        let u32 = Wire.r_u32 r "u32" in
        let i64 = Wire.r_i64 r "i64" in
        let fx = Wire.r_fixed r 5 "fixed" in
        let vr = Wire.r_var r "var" in
        Wire.expect_end r "frame";
        (u8, u32, i64, fx, vr))
  with
  | Ok (u8, u32, i64, fx, vr) ->
    Alcotest.(check int) "u8" 0xA5 u8;
    Alcotest.(check int) "u32" 123_456 u32;
    Alcotest.(check int) "i64" (-42) i64;
    Alcotest.(check string) "fixed" "fixed" (Bytes.to_string fx);
    Alcotest.(check string) "var" "variable-length" (Bytes.to_string vr)
  | Error e -> Alcotest.fail e

let test_wire_malformed () =
  (* A var length pointing past the end must come back as Error, and so
     must trailing garbage. *)
  let buf = Buffer.create 8 in
  Wire.w_u32 buf 1_000_000;
  (match Wire.read (Buffer.to_bytes buf) (fun r -> Wire.r_var r "v") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized var accepted");
  let buf = Buffer.create 8 in
  Wire.w_u8 buf 1;
  Wire.w_u8 buf 2;
  match
    Wire.read (Buffer.to_bytes buf) (fun r ->
        let v = Wire.r_u8 r "v" in
        Wire.expect_end r "frame";
        v)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

let sample_records =
  [ Record.Op
      (Record.Deposit
         { user = Address.of_label "durable-alice"; for_epoch = 3;
           amount0 = U256.of_int 1_000; amount1 = U256.of_int 2_000 });
    Record.Op (Record.Halt { epoch = 7 });
    Record.Op (Record.Exit { claimant = Address.of_label "durable-bob" });
    Record.Truncate { keep = 12 } ]

let test_record_roundtrip () =
  List.iter
    (fun r ->
      match Record.of_bytes (Record.to_bytes r) with
      | Ok r' ->
        Alcotest.(check bool)
          (Record.describe r ^ " round-trips") true (Record.equal r r');
        Alcotest.(check bool) "re-encoding byte-identical" true
          (Bytes.equal (Record.to_bytes r) (Record.to_bytes r'))
      | Error e -> Alcotest.fail (Record.describe r ^ ": " ^ e))
    sample_records

let test_record_rejects_garbage () =
  List.iter
    (fun b ->
      match Record.of_bytes b with
      | Error _ -> ()
      | Ok r -> Alcotest.fail ("garbage decoded as " ^ Record.describe r))
    [ Bytes.empty; Bytes.of_string "\xff"; Bytes.make 40 '\x00';
      (* a valid record with its tail cut off *)
      (let b = Record.to_bytes (List.hd sample_records) in
       Bytes.sub b 0 (Bytes.length b - 3)) ]

(* ------------------------------------------------------------------ *)
(* Snapshot files                                                      *)
(* ------------------------------------------------------------------ *)

let sample_snapshot =
  { Snapshot.meta = { Snapshot.epoch = 4; records_before = 77 };
    sections =
      [ ("alpha", Bytes.of_string "first section");
        ("beta", Bytes.make 100 '\x2a') ] }

let test_snapshot_roundtrip () =
  with_dir @@ fun dir ->
  let path = Snapshot.write ~dir sample_snapshot in
  (match Snapshot.load path with
  | Ok s ->
    Alcotest.(check int) "epoch" 4 s.Snapshot.meta.Snapshot.epoch;
    Alcotest.(check int) "anchor" 77 s.Snapshot.meta.Snapshot.records_before;
    (match Snapshot.section s "beta" with
    | Some b -> Alcotest.(check int) "section payload" 100 (Bytes.length b)
    | None -> Alcotest.fail "section lost");
    Alcotest.(check bool) "re-encoding byte-identical" true
      (Bytes.equal (Snapshot.encode s) (Snapshot.encode sample_snapshot))
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list (pair int string)))
    "listed" [ (4, path) ] (Snapshot.list ~dir)

let test_snapshot_detects_every_torn_mode () =
  List.iter
    (fun mode ->
      with_dir @@ fun dir ->
      let path = Snapshot.write ~dir sample_snapshot in
      Torn.apply path mode;
      match Snapshot.load path with
      | Error _ -> ()
      | Ok _ ->
        Alcotest.fail (Torn.describe mode ^ " survived snapshot validation"))
    [ Faults.Fault_plan.Truncated_tail; Faults.Fault_plan.Bit_flip;
      Faults.Fault_plan.Stale_marker ]

(* ------------------------------------------------------------------ *)
(* WAL segments                                                        *)
(* ------------------------------------------------------------------ *)

let write_segment ~dir ~epoch ~start_index records =
  let w = Wal.open_append ~dir ~epoch ~start_index in
  List.iter (Wal.append w) records;
  Wal.close w;
  Wal.segment_path ~dir ~epoch

let test_wal_roundtrip () =
  with_dir @@ fun dir ->
  let path = write_segment ~dir ~epoch:0 ~start_index:0 sample_records in
  match Wal.read_segment path with
  | Ok rr ->
    Alcotest.(check int) "start index" 0 rr.Wal.rr_start_index;
    Alcotest.(check int) "record count" (List.length sample_records)
      (List.length rr.Wal.rr_records);
    Alcotest.(check bool) "clean" true (rr.Wal.rr_torn = None);
    List.iter2
      (fun a b ->
        Alcotest.(check bool) "record survives" true (Record.equal a b))
      sample_records rr.Wal.rr_records
  | Error e -> Alcotest.fail e

let test_wal_append_resumes_existing_segment () =
  (* Reopening a segment must append after the existing frames, not
     rewrite them. *)
  with_dir @@ fun dir ->
  let first, rest = (List.hd sample_records, List.tl sample_records) in
  let _ = write_segment ~dir ~epoch:2 ~start_index:9 [ first ] in
  let path = write_segment ~dir ~epoch:2 ~start_index:9 rest in
  match Wal.read_segment path with
  | Ok rr ->
    Alcotest.(check int) "start preserved" 9 rr.Wal.rr_start_index;
    Alcotest.(check int) "all records" (List.length sample_records)
      (List.length rr.Wal.rr_records)
  | Error e -> Alcotest.fail e

let test_wal_torn_tail_repair () =
  with_dir @@ fun dir ->
  let path = write_segment ~dir ~epoch:0 ~start_index:0 sample_records in
  Torn.apply path Faults.Fault_plan.Truncated_tail;
  (match Wal.read_segment path with
  | Ok rr ->
    Alcotest.(check bool) "torn reported" true (rr.Wal.rr_torn <> None);
    Alcotest.(check int) "last record lost"
      (List.length sample_records - 1)
      (List.length rr.Wal.rr_records);
    Wal.repair path rr
  | Error e -> Alcotest.fail e);
  match Wal.read_segment path with
  | Ok rr ->
    Alcotest.(check bool) "clean after repair" true (rr.Wal.rr_torn = None);
    Alcotest.(check int) "prefix kept"
      (List.length sample_records - 1)
      (List.length rr.Wal.rr_records)
  | Error e -> Alcotest.fail ("after repair: " ^ e)

let test_wal_bit_flip_stops_at_flip () =
  with_dir @@ fun dir ->
  let path = write_segment ~dir ~epoch:0 ~start_index:0 sample_records in
  Torn.apply path Faults.Fault_plan.Bit_flip;
  match Wal.read_segment path with
  | Ok rr ->
    Alcotest.(check bool) "flip detected" true (rr.Wal.rr_torn <> None);
    Alcotest.(check bool) "only a prefix survives" true
      (List.length rr.Wal.rr_records < List.length sample_records)
  | Error _ ->
    (* The flip landed in the header: equally a detection. *)
    ()

(* ------------------------------------------------------------------ *)
(* Recovery scan                                                       *)
(* ------------------------------------------------------------------ *)

let test_recovery_fresh_dir_is_clean () =
  with_dir @@ fun dir ->
  let r = Recovery.scan ~dir in
  Alcotest.(check bool) "clean" true (Recovery.clean r);
  Alcotest.(check (list (pair string string))) "no notes" [] (Recovery.notes r)

let test_recovery_rejects_sectionless_snapshot () =
  (* A structurally valid file whose state sections don't decode through
     the typed codecs must be rejected, leaving a genesis start. *)
  with_dir @@ fun dir ->
  let _ =
    Snapshot.write ~dir
      { Snapshot.meta = { Snapshot.epoch = 2; records_before = 1 };
        sections = [] }
  in
  let r = Recovery.scan ~dir in
  Alcotest.(check bool) "not chosen" true (r.Recovery.chosen = None);
  Alcotest.(check int) "rejected" 1 (List.length r.Recovery.rejected)

let test_recovery_drops_segment_past_gap () =
  with_dir @@ fun dir ->
  let _ = write_segment ~dir ~epoch:0 ~start_index:0 [ List.hd sample_records ] in
  (* start_index 5 leaves records 1..4 nowhere on disk. *)
  let orphan = write_segment ~dir ~epoch:2 ~start_index:5 (List.tl sample_records) in
  let r = Recovery.scan ~dir in
  Alcotest.(check int) "only the anchored prefix" 1 (Array.length r.Recovery.records);
  Alcotest.(check int) "orphan dropped" 1 (List.length r.Recovery.dropped);
  Alcotest.(check bool) "orphan deleted from disk" false (Sys.file_exists orphan)

(* ------------------------------------------------------------------ *)
(* Sessions over real runs                                             *)
(* ------------------------------------------------------------------ *)

let session_cfg =
  { Ammboost.Config.default with
    Ammboost.Config.epochs = 3;
    daily_volume = 20_000;
    users = 8;
    miners = 20;
    committee_size = 7;
    max_faulty = 2;
    seed = "durable-session-tests" }

let durable_run ?armed_after ~dir cfg =
  let s = Session.open_ ?armed_after ~dir ~snapshot_every:2 () in
  let r = Ammboost.System.run ~durable:s cfg in
  (r, s)

let stat stats name = Option.value ~default:0 (List.assoc_opt name stats)

let test_session_rerun_verifies_everything () =
  with_dir @@ fun dir ->
  let r1, _ = durable_run ~dir session_cfg in
  let appended = stat r1.Ammboost.System.durability "durability.records_appended" in
  Alcotest.(check bool) "first run appends" true (appended > 0);
  (* Identical re-execution over the same directory: every record
     verifies against the WAL, nothing new is logged, every snapshot
     byte-matches. *)
  let r2, s2 = durable_run ~dir session_cfg in
  Alcotest.(check bool) "resumed" true (Session.resumed s2);
  let d = r2.Ammboost.System.durability in
  Alcotest.(check int) "nothing appended" 0 (stat d "durability.records_appended");
  Alcotest.(check bool) "snapshots verified" true
    (stat d "durability.snapshots_verified" > 0);
  Alcotest.(check int) "no corruption seen" 0
    (stat d "durability.snapshots_rejected" + stat d "durability.wal_repaired"
    + stat d "durability.wal_dropped");
  Alcotest.(check int) "same records overall"
    (stat r1.Ammboost.System.durability "durability.records_appended")
    (stat d "durability.records_replayed" + stat d "durability.records_skipped")

let test_session_divergence_aborts () =
  (* A different run over the same directory contradicts the recovered
     WAL byte-for-byte and must abort, not silently re-log. *)
  with_dir @@ fun dir ->
  let _ = durable_run ~dir session_cfg in
  let diverging =
    { session_cfg with Ammboost.Config.seed = "a-different-history" }
  in
  match durable_run ~dir diverging with
  | exception Session.Divergence _ -> ()
  | _ -> Alcotest.fail "divergent re-execution accepted"

let test_session_crash_resume_completes () =
  (* A scripted hard death mid-run, then a resume with the crash point
     disarmed: the resumed run must finish and match an uninterrupted
     run's results. *)
  with_dir @@ fun dir ->
  let cfg =
    { session_cfg with
      Ammboost.Config.faults =
        { Faults.Fault_plan.none with
          Faults.Fault_plan.durability =
            { Faults.Fault_plan.crash_rate = 0.0;
              torn_write_rate = 1.0;
              crash_script = [ (1, 10) ] } } }
  in
  (match durable_run ~dir cfg with
  | exception Session.Crashed { epoch; round } ->
    Alcotest.(check (pair int int)) "died at the scripted point" (1, 10)
      (epoch, round)
  | _ -> Alcotest.fail "scripted crash did not fire");
  let r, _ = durable_run ~armed_after:(1, 10) ~dir cfg in
  with_dir @@ fun clean_dir ->
  let reference, _ = durable_run ~dir:clean_dir session_cfg in
  Alcotest.(check int) "processed as if never killed"
    reference.Ammboost.System.processed r.Ammboost.System.processed;
  Alcotest.(check int) "synced as if never killed"
    reference.Ammboost.System.sync_count r.Ammboost.System.sync_count;
  Alcotest.(check string) "same final mode"
    reference.Ammboost.System.final_mode r.Ammboost.System.final_mode

let test_session_falls_back_past_corrupt_snapshot () =
  (* Corrupt the newest snapshot of a completed run: the rescan must
     fall back to the previous valid one, and a resume must heal the
     corrupt file and end in the same state. *)
  with_dir @@ fun dir ->
  (* Enough epochs for two snapshots to survive the retention window. *)
  let cfg = { session_cfg with Ammboost.Config.epochs = 5 } in
  let _ = durable_run ~dir cfg in
  (match List.rev (Snapshot.list ~dir) with
  | (newest, path) :: (older, _) :: _ ->
    Torn.apply path Faults.Fault_plan.Bit_flip;
    let r = Recovery.scan ~dir in
    (match r.Recovery.chosen with
    | Some (epoch, _) ->
      Alcotest.(check int) "fell back to the previous snapshot" older epoch;
      Alcotest.(check bool) "older than the corrupt one" true (epoch < newest)
    | None -> Alcotest.fail "no snapshot accepted");
    Alcotest.(check int) "corrupt newest rejected" 1
      (List.length r.Recovery.rejected)
  | _ -> Alcotest.fail "run left fewer than two snapshots");
  let r, _ = durable_run ~dir cfg in
  let d = r.Ammboost.System.durability in
  Alcotest.(check int) "rejected on resume too" 1
    (stat d "durability.snapshots_rejected");
  Alcotest.(check bool) "healed" true (stat d "durability.snapshots_healed" >= 1)

let () =
  Alcotest.run "durable"
    [ ( "crc32",
        [ Alcotest.test_case "vectors" `Quick test_crc_vectors;
          Alcotest.test_case "incremental" `Quick test_crc_incremental ] );
      ( "wire",
        [ Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "malformed" `Quick test_wire_malformed ] );
      ( "record",
        [ Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "garbage" `Quick test_record_rejects_garbage ] );
      ( "snapshot",
        [ Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "torn modes detected" `Quick
            test_snapshot_detects_every_torn_mode ] );
      ( "wal",
        [ Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "reopen appends" `Quick
            test_wal_append_resumes_existing_segment;
          Alcotest.test_case "torn tail repair" `Quick test_wal_torn_tail_repair;
          Alcotest.test_case "bit flip" `Quick test_wal_bit_flip_stops_at_flip ] );
      ( "recovery",
        [ Alcotest.test_case "fresh dir" `Quick test_recovery_fresh_dir_is_clean;
          Alcotest.test_case "sectionless rejected" `Quick
            test_recovery_rejects_sectionless_snapshot;
          Alcotest.test_case "gap drops segment" `Quick
            test_recovery_drops_segment_past_gap ] );
      ( "session",
        [ Alcotest.test_case "rerun verifies" `Slow
            test_session_rerun_verifies_everything;
          Alcotest.test_case "divergence aborts" `Slow
            test_session_divergence_aborts;
          Alcotest.test_case "crash resume" `Slow
            test_session_crash_resume_completes;
          Alcotest.test_case "snapshot fallback" `Slow
            test_session_falls_back_past_corrupt_snapshot ] ) ]
