(* The packed snapshot (flat route words + next-hop arena in
   GC-invisible Bigarrays) pinned against the naive boxed fixpoint
   evaluator of [Routing_oracle] over random worlds, plus the raw-byte
   codec: round-trip identity, and
   typed rejection of corrupted, truncated, and mislabeled entries in
   the lib/store miss style. *)

open Netcore
module Net = Topogen.Net
module Gen = Topogen.Gen
module Bgp = Routing.Bgp
module S = Bgp.Snapshot

let freeze_world (w : Gen.world) =
  Bgp.freeze
    (Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
       ~selective:w.Gen.selective)

(* Random worlds: the r_and_e preset (the smallest parameterized
   scenario) across random seeds and scales. Worlds are deterministic
   in (scale, seed), so shrinking stays meaningful. *)
let arb_world =
  QCheck.make
    ~print:(fun (scale, seed) -> Printf.sprintf "scale=%.2f seed=%d" scale seed)
    QCheck.Gen.(pair (map (fun n -> 0.3 +. (0.1 *. float_of_int n)) (int_bound 7))
                  (int_bound 10_000))

let prop_packed_equals_boxed =
  QCheck.Test.make ~name:"packed snapshot = boxed evaluator on random worlds"
    ~count:10 arb_world (fun (scale, seed) ->
      let w = Gen.generate (Topogen.Scenario.r_and_e ~scale ~seed ()) in
      let bgp = Bgp.of_snapshot (freeze_world w) in
      (* Every (ASN, prefix) cell of the packed matrix decodes to the
         oracle's route, the packed parent-slot walk reproduces its
         parent chain, and LPM resolution agrees on hits, misses and
         boundaries. *)
      match
        Routing_oracle.check (Routing_oracle.of_world w) bgp
          ~asns:(w.Gen.host_asn :: Asn.Set.elements (Net.asns w.Gen.net))
      with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_reportf "scale=%.2f seed=%d: %s" scale seed m)

(* ------------------------------------------------------------------ *)
(* Serialization. *)

let tiny_snapshot = lazy (freeze_world (Gen.generate Topogen.Scenario.tiny))

let err_label = function
  | Ok _ -> "ok"
  | Error e -> Store.Frame.error_label e

let test_roundtrip () =
  let snap = Lazy.force tiny_snapshot in
  let b = S.to_bytes snap in
  match S.of_bytes b with
  | Error e -> Alcotest.failf "round-trip rejected: %s" (Store.Frame.error_label e)
  | Ok snap' ->
    Alcotest.(check int) "prefix_count" (S.prefix_count snap) (S.prefix_count snap');
    Alcotest.(check int) "asn_count" (S.asn_count snap) (S.asn_count snap');
    Alcotest.(check int) "arena_length" (S.arena_length snap) (S.arena_length snap');
    let bgp = Bgp.of_snapshot snap and bgp' = Bgp.of_snapshot snap' in
    Alcotest.(check bool) "prefixes" true (Bgp.prefixes bgp' = Bgp.prefixes bgp);
    (* Every packed word survives: decode both sides cell by cell. *)
    let np = S.prefix_count snap and na = S.asn_count snap in
    for pslot = 0 to np - 1 do
      for aslot = 0 to na - 1 do
        if S.word snap' ~pslot ~aslot <> S.word snap ~pslot ~aslot then
          Alcotest.failf "word (%d, %d) drifted through the codec" pslot aslot
      done
    done;
    (* The decoded snapshot answers queries like the original. *)
    List.iter
      (fun p ->
        List.iter
          (fun asn ->
            Alcotest.(check bool)
              (Printf.sprintf "route AS%d %s" asn (Prefix.to_string p))
              true
              (Routing_oracle.proj (Bgp.route bgp' asn p) = Routing_oracle.proj (Bgp.route bgp asn p)))
          [ 64500; 64501; 65000 ])
      (Bgp.prefixes bgp);
    (* Re-encoding is byte-identical: the codec is canonical. *)
    Alcotest.(check bool) "re-encode is byte-identical" true
      (Bytes.equal (S.to_bytes snap') b)

let expect_error name b expected =
  let got = err_label (S.of_bytes b) in
  Alcotest.(check string) name expected got

let test_corrupted_byte_rejected () =
  let snap = Lazy.force tiny_snapshot in
  let b = S.to_bytes snap in
  (* Flip one payload byte at several depths: the packed words, the
     arena, and the marshaled metadata tail. Every flip must fail the
     digest, never decode to a different snapshot. *)
  List.iter
    (fun frac ->
      let b' = Bytes.copy b in
      let pos = 32 + (frac * (Bytes.length b - 33) / 100) in
      Bytes.set b' pos (Char.chr (Char.code (Bytes.get b' pos) lxor 0x40));
      expect_error (Printf.sprintf "flip at %d%%" frac) b' "corrupt")
    [ 0; 25; 50; 75; 100 ]

let test_truncation_rejected () =
  let snap = Lazy.force tiny_snapshot in
  let b = S.to_bytes snap in
  expect_error "empty" Bytes.empty "truncated";
  expect_error "header only" (Bytes.sub b 0 32) "truncated";
  expect_error "half payload" (Bytes.sub b 0 (Bytes.length b / 2)) "truncated";
  expect_error "one byte short" (Bytes.sub b 0 (Bytes.length b - 1)) "truncated"

let test_bad_magic_and_version () =
  let snap = Lazy.force tiny_snapshot in
  let b = S.to_bytes snap in
  let wrong_magic = Bytes.copy b in
  Bytes.set wrong_magic 0 'X';
  expect_error "wrong magic" wrong_magic "bad-magic";
  let wrong_version = Bytes.copy b in
  Bytes.set_int32_be wrong_version 4 99l;
  expect_error "future version" wrong_version "bad-version-99"

(* Well-framed payloads (valid digest) whose counts overflowed the
   unguarded [np * n] and [8 * (nw + na)] checks: the first asked
   Bigarray for a negative dimension, the second for 16 EiB. *)
let test_crafted_counts_rejected () =
  let crafted np n nw =
    let b = Bytes.make (32 + 32) '\000' in
    List.iteri (fun i v -> Bytes.set_int64_be b (32 + (8 * i)) (Int64.of_int v)) [ np; n; nw; 0 ];
    Store.Frame.seal ~magic:"BDSN" ~version:S.codec_version b;
    b
  in
  expect_error "negative dimension" (crafted (1 lsl 31) (1 lsl 31) min_int) "corrupt";
  expect_error "16 EiB words" (crafted (1 lsl 31) (1 lsl 30) (1 lsl 61)) "corrupt"

let suite =
  [ Qc.to_alcotest prop_packed_equals_boxed;
    Alcotest.test_case "to_bytes/of_bytes round-trip" `Quick test_roundtrip;
    Alcotest.test_case "corrupted byte rejected" `Quick test_corrupted_byte_rejected;
    Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
    Alcotest.test_case "bad magic / bad version rejected" `Quick
      test_bad_magic_and_version;
    Alcotest.test_case "crafted counts rejected" `Quick test_crafted_counts_rejected ]
