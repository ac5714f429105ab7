(* The flat-store layer underneath the million-user engine: the Bytes
   arena (Slab), key interning (Registry), and TokenBank's journalled
   position table (Pos_store). These are the pieces the O(dirty)
   checkpoint bound rests on, so the codec round-trips and the undo
   journal get exercised directly here. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id
module Slab = Flatstore.Slab
module Pos_store = Tokenbank.Pos_store

let u = U256.of_string
let check_u256 = Alcotest.testable U256.pp U256.equal

let pos_id label = Position_id.of_hash (Amm_crypto.Sha256.digest_string label)

(* ------------------------------------------------------------------ *)
(* Slab                                                                *)
(* ------------------------------------------------------------------ *)

let test_slab_slot_roundtrip () =
  let s = Slab.create ~slots:4 () in
  let r = Slab.alloc s in
  Slab.set_u256 s ~row:r ~slot:0 (u "123456789123456789123456789");
  Slab.set_int s ~row:r ~slot:1 (-42);
  Slab.set_int2 s ~row:r ~slot:2 (-887220) 887220;
  Slab.set_bytes s ~row:r ~slot:3 (Address.to_bytes (Address.of_label "carol"));
  Alcotest.check check_u256 "u256" (u "123456789123456789123456789")
    (Slab.get_u256 s ~row:r ~slot:0);
  Alcotest.(check int) "int" (-42) (Slab.get_int s ~row:r ~slot:1);
  Alcotest.(check (pair int int)) "int2" (-887220, 887220) (Slab.get_int2 s ~row:r ~slot:2);
  Alcotest.(check bytes) "bytes" (Address.to_bytes (Address.of_label "carol"))
    (Slab.get_bytes s ~row:r ~slot:3 ~len:20)

let test_slab_dirty_tracking () =
  let s = Slab.create ~slots:2 () in
  let a = Slab.alloc s in
  let b = Slab.alloc s in
  let c = Slab.alloc s in
  Alcotest.(check (list int)) "allocs are dirty" [ a; b; c ] (Slab.dirty_rows s);
  Slab.clear_dirty s;
  Alcotest.(check int) "clean" 0 (Slab.dirty_count s);
  Slab.set_int s ~row:b ~slot:0 7;
  Slab.set_int s ~row:b ~slot:1 8;
  (* two writes, one row: dirty set dedups *)
  Alcotest.(check (list int)) "only touched row" [ b ] (Slab.dirty_rows s);
  Slab.set_u256 s ~row:a ~slot:0 U256.one;
  Alcotest.(check (list int)) "ascending order" [ a; b ] (Slab.dirty_rows s)

let test_slab_rows_independent () =
  let s = Slab.create ~slots:1 () in
  let a = Slab.alloc s in
  let b = Slab.alloc s in
  Slab.set_u256 s ~row:a ~slot:0 (u "1000000000000000000");
  Slab.set_u256 s ~row:b ~slot:0 (u "2000000000000000000");
  Alcotest.check check_u256 "row a" (u "1000000000000000000") (Slab.get_u256 s ~row:a ~slot:0);
  Alcotest.check check_u256 "row b" (u "2000000000000000000") (Slab.get_u256 s ~row:b ~slot:0);
  let saved = Slab.copy_row s a in
  Slab.set_u256 s ~row:a ~slot:0 U256.zero;
  Slab.blit_row s a saved;
  Alcotest.check check_u256 "blit restores" (u "1000000000000000000")
    (Slab.get_u256 s ~row:a ~slot:0)

let test_slab_codec_roundtrip () =
  let s = Slab.create ~slots:3 () in
  for i = 0 to 9 do
    let r = Slab.alloc s in
    Slab.set_int s ~row:r ~slot:0 i;
    Slab.set_u256 s ~row:r ~slot:1 (U256.of_int (i * 1_000_003));
    Slab.set_bytes s ~row:r ~slot:2 (Bytes.make (i mod 32) 'x')
  done;
  let enc = Slab.to_bytes s in
  let s' = Slab.of_bytes_exn enc in
  Alcotest.(check int) "slots" (Slab.slots s) (Slab.slots s');
  Alcotest.(check int) "rows" (Slab.rows s) (Slab.rows s');
  Alcotest.(check int) "decoded slab is clean" 0 (Slab.dirty_count s');
  Alcotest.(check bytes) "re-encode byte-identical" enc (Slab.to_bytes s');
  (match Slab.of_bytes (Bytes.sub enc 0 (Bytes.length enc - 1)) with
  | Error (Slab.Length_mismatch _) -> ()
  | Error e -> Alcotest.fail ("unexpected error: " ^ Slab.error_to_string e)
  | Ok _ -> Alcotest.fail "truncated buffer accepted")

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

module Areg = Flatstore.Registry.Make (struct
  type t = Address.t

  let equal = Address.equal
  let hash a = Hashtbl.hash (Address.to_bytes a)
end)

let test_registry_intern () =
  let r = Areg.create () in
  let users = List.init 50 (fun i -> Address.of_label (Printf.sprintf "user-%d" i)) in
  let idx = List.map (Areg.intern r) users in
  Alcotest.(check (list int)) "dense first-seen indices" (List.init 50 Fun.id) idx;
  Alcotest.(check (list int)) "intern is idempotent" idx (List.map (Areg.intern r) users);
  Alcotest.(check int) "count unchanged" 50 (Areg.count r);
  Alcotest.(check (option int)) "find known" (Some 7)
    (Areg.find r (Address.of_label "user-7"));
  Alcotest.(check (option int)) "find unknown" None
    (Areg.find r (Address.of_label "stranger"));
  Alcotest.(check bool) "key inverts intern" true
    (Address.equal (Areg.key r 7) (Address.of_label "user-7"));
  let seen = Areg.fold r ~init:[] ~f:(fun acc i k -> (i, k) :: acc) in
  Alcotest.(check int) "fold visits all" 50 (List.length seen);
  match Areg.key r 50 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range index resolved"

(* ------------------------------------------------------------------ *)
(* Pos_store                                                           *)
(* ------------------------------------------------------------------ *)

let entry ?(liquidity = u "5000000000000000000") ?(deleted = false) label =
  { Tokenbank.Sync_payload.pos_id = pos_id label;
    owner = Address.of_label ("owner-" ^ label);
    lower_tick = -60; upper_tick = 60; liquidity;
    amount0 = u "1000000000000000000"; amount1 = u "2000000000000000000";
    fees0 = U256.one; fees1 = U256.two; deleted }

let check_entry = Alcotest.testable
    (fun fmt (e : Tokenbank.Sync_payload.position_entry) ->
      Format.fprintf fmt "%s liq=%a" (Position_id.to_hex e.pos_id) U256.pp e.liquidity)
    (fun a b ->
      Position_id.equal a.Tokenbank.Sync_payload.pos_id b.Tokenbank.Sync_payload.pos_id
      && Address.equal a.owner b.owner
      && a.lower_tick = b.lower_tick && a.upper_tick = b.upper_tick
      && U256.equal a.liquidity b.liquidity
      && U256.equal a.amount0 b.amount0 && U256.equal a.amount1 b.amount1
      && U256.equal a.fees0 b.fees0 && U256.equal a.fees1 b.fees1
      && a.deleted = b.deleted)

let test_pos_store_basics () =
  let t = Pos_store.create () in
  let a = entry "a" and b = entry "b" in
  Pos_store.set t a;
  Pos_store.set t b;
  Alcotest.(check int) "two live" 2 (Pos_store.length t);
  Alcotest.(check (option check_entry)) "find a" (Some a) (Pos_store.find t a.pos_id);
  let a' = entry ~liquidity:(u "7000000000000000000") "a" in
  Pos_store.set t a';
  Alcotest.(check int) "overwrite keeps count" 2 (Pos_store.length t);
  Alcotest.(check (option check_entry)) "overwrite visible" (Some a')
    (Pos_store.find t a.pos_id);
  Pos_store.remove t b.pos_id;
  Alcotest.(check int) "one live after remove" 1 (Pos_store.length t);
  Alcotest.(check (option check_entry)) "removed absent" None (Pos_store.find t b.pos_id);
  let order = Pos_store.fold t ~init:[] ~f:(fun acc e -> e.pos_id :: acc) in
  Alcotest.(check int) "iter skips deleted" 1 (List.length order)

let test_pos_store_undo () =
  let t = Pos_store.create () in
  Pos_store.set t (entry "a");
  Pos_store.set t (entry "b");
  let before = Pos_store.to_bytes t in
  let mark = Pos_store.mark t in
  (* mutate, insert, delete — then rewind all three *)
  Pos_store.set t (entry ~liquidity:(u "9000000000000000000") "a");
  Pos_store.set t (entry "c");
  Pos_store.remove t (pos_id "b");
  Alcotest.(check int) "mutated state live" 2 (Pos_store.length t);
  Pos_store.undo_to t mark;
  Alcotest.(check bytes) "undo restores exact bytes" before (Pos_store.to_bytes t);
  Alcotest.(check (option check_entry)) "fresh insert gone" None
    (Pos_store.find t (pos_id "c"));
  (* rewinding to the same mark twice is a no-op *)
  Pos_store.undo_to t mark;
  Alcotest.(check bytes) "idempotent" before (Pos_store.to_bytes t);
  match Pos_store.undo_to t (Pos_store.mark t + 1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "future mark accepted"

let test_pos_store_journal_bound () =
  let t = Pos_store.create () in
  for i = 0 to 99 do
    Pos_store.set t (entry (Printf.sprintf "p%d" i))
  done;
  let j0 = Pos_store.journal_bytes t in
  let mark = Pos_store.mark t in
  Pos_store.set t (entry ~liquidity:(u "1") "p3");
  let delta = Pos_store.journal_bytes t - j0 in
  Alcotest.(check bool) "journal grows" true (delta > 0);
  (* one mutated row journals one row image, not the 100-entry table *)
  Alcotest.(check bool)
    (Printf.sprintf "single op journals <= 1 row (%d <= %d)" delta (Pos_store.row_bytes t))
    true
    (delta <= Pos_store.row_bytes t);
  Pos_store.release_below t mark;
  Pos_store.set t (entry ~liquidity:(u "2") "p3");
  Alcotest.(check bool) "journal stays monotone after release" true
    (Pos_store.journal_bytes t >= j0 + delta)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

module Journal = Flatstore.Journal

let test_journal_first_write () =
  let j = Journal.create () in
  let c = Journal.cell 0 in
  let write v = Journal.set j ~bytes:8 c v in
  write 1;
  Alcotest.(check bool) "unmarked journal is silent" false (Journal.recording j);
  Alcotest.(check int) "nothing recorded before a mark" 0 (Journal.length j);
  let m1 = Journal.mark j in
  write 2;
  write 3;
  Alcotest.(check int) "one entry per cell per generation" 1 (Journal.length j);
  let m2 = Journal.mark j in
  write 4;
  Alcotest.(check int) "a new mark records again" 2 (Journal.length j);
  Journal.undo_to j m2;
  Alcotest.(check int) "undo restores the value at the mark" 3 c.value;
  write 5;
  Alcotest.(check int) "undo opens a generation: the rewrite records" 2 (Journal.length j);
  Journal.release_below j m2;
  Alcotest.(check int) "release drops older entries" 1 (Journal.length j);
  Alcotest.(check int) "bytes count every record, undone ones too" 24 (Journal.bytes j);
  Alcotest.check_raises "released mark" (Invalid_argument "Journal.undo_to: released mark")
    (fun () -> Journal.undo_to j m1);
  Alcotest.check_raises "future mark" (Invalid_argument "Journal.undo_to: future mark")
    (fun () -> Journal.undo_to j (Journal.mark j + 1));
  Journal.undo_to j m2;
  Alcotest.(check int) "the same mark restores twice" 3 c.value

(* Pos_store against a persistent map: random writes, deletes, marks,
   undos and releases, with the live marks tracked like TokenBank's
   checkpoints (undo invalidates newer marks, release older ones). *)
type pos_op = Set of int * int | Remove of int | Mark | Undo of int | Release of int

let gen_pos_op =
  QCheck2.Gen.(
    frequency
      [ (5, map2 (fun i l -> Set (i, l)) (int_range 0 7) (int_range 1 1000));
        (2, map (fun i -> Remove i) (int_range 0 7));
        (2, return Mark);
        (1, map (fun k -> Undo k) nat);
        (1, map (fun k -> Release k) nat) ])

let pos_store_matches_model ops =
  let t = Pos_store.create () in
  let module M = Map.Make (Int) in
  let agree model =
    Pos_store.length t = M.cardinal model
    && List.for_all
         (fun i ->
           match (Pos_store.find t (pos_id (string_of_int i)), M.find_opt i model) with
           | None, None -> true
           | Some e, Some l -> U256.equal e.liquidity (U256.of_int l)
           | _ -> false)
         (List.init 8 Fun.id)
  in
  let rec go model live = function
    | [] -> true
    | op :: rest ->
      let model, live =
        match (op, live) with
        | Set (i, l), _ ->
          Pos_store.set t (entry ~liquidity:(U256.of_int l) (string_of_int i));
          (M.add i l model, live)
        | Remove i, _ ->
          Pos_store.remove t (pos_id (string_of_int i));
          (M.remove i model, live)
        | Mark, _ -> (model, live @ [ (Pos_store.mark t, model) ])
        | (Undo _ | Release _), [] -> (model, live)
        | Undo k, _ ->
          let k = k mod List.length live in
          let mark, saved = List.nth live k in
          Pos_store.undo_to t mark;
          (saved, List.filteri (fun j _ -> j <= k) live)
        | Release k, _ ->
          let k = k mod List.length live in
          Pos_store.release_below t (fst (List.nth live k));
          (model, List.filteri (fun j _ -> j >= k) live)
      in
      agree model && go model live rest
  in
  go M.empty [] ops

let pos_store_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"journaled Pos_store = persistent-map model"
         QCheck2.Gen.(list_size (int_range 1 60) gen_pos_op)
         pos_store_matches_model) ]

let test_pos_store_codec_roundtrip () =
  let t = Pos_store.create () in
  for i = 0 to 19 do
    Pos_store.set t (entry (Printf.sprintf "q%d" i))
  done;
  Pos_store.remove t (pos_id "q7");
  Pos_store.remove t (pos_id "q13");
  let enc = Pos_store.to_bytes t in
  let t' = Pos_store.of_bytes_exn enc in
  Alcotest.(check int) "live count survives" (Pos_store.length t) (Pos_store.length t');
  Alcotest.(check bytes) "re-encode byte-identical" enc (Pos_store.to_bytes t');
  Alcotest.(check (option check_entry)) "deleted stays deleted" None
    (Pos_store.find t' (pos_id "q7"));
  (* insertion order (= row order) is part of the codec contract *)
  let ids t = Pos_store.fold t ~init:[] ~f:(fun acc e -> e.pos_id :: acc) in
  Alcotest.(check bool) "iteration order preserved" true
    (List.for_all2 Position_id.equal (ids t) (ids t'))

let () =
  Alcotest.run "state"
    [ ( "slab",
        [ Alcotest.test_case "slot roundtrip" `Quick test_slab_slot_roundtrip;
          Alcotest.test_case "dirty tracking" `Quick test_slab_dirty_tracking;
          Alcotest.test_case "rows independent" `Quick test_slab_rows_independent;
          Alcotest.test_case "codec roundtrip" `Quick test_slab_codec_roundtrip ] );
      ( "registry",
        [ Alcotest.test_case "intern/find/key" `Quick test_registry_intern ] );
      ( "pos_store",
        [ Alcotest.test_case "set/find/remove" `Quick test_pos_store_basics;
          Alcotest.test_case "undo journal" `Quick test_pos_store_undo;
          Alcotest.test_case "O(dirty) journal bound" `Quick test_pos_store_journal_bound;
          Alcotest.test_case "codec roundtrip" `Quick test_pos_store_codec_roundtrip ]
        @ pos_store_props );
      ( "journal",
        [ Alcotest.test_case "first write, marks, undo, release" `Quick
            test_journal_first_write ] ) ]
