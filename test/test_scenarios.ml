(* Scenario preset invariants: every preset generates a consistent world
   with the advertised shape, and scaling shrinks neighbor counts. *)

module Gen = Topogen.Gen
module Net = Topogen.Net
open Netcore

let presets =
  [ ("r_and_e", Topogen.Scenario.r_and_e ~scale:0.2 (), 1);
    ("large_access", Topogen.Scenario.large_access ~scale:0.1 (), 19);
    ("tier1", Topogen.Scenario.tier1 ~scale:0.1 (), 4);
    ("small_access", Topogen.Scenario.small_access ~scale:0.2 (), 2) ]

let test_presets_generate () =
  List.iter
    (fun (name, params, n_vps) ->
      let w = Gen.generate params in
      Alcotest.(check int) (name ^ " vps") n_vps (List.length w.vps);
      Alcotest.(check bool) (name ^ " routers") true (Net.router_count w.net > 50);
      Alcotest.(check bool) (name ^ " interdomain links") true
        (List.length (Net.interdomain_links w.net) > 20);
      (* Every VP router belongs to the hosting AS. *)
      List.iter
        (fun (vp : Gen.vp) ->
          Alcotest.(check int) (name ^ " vp owner") w.host_asn
            (Net.router w.net vp.vp_rid).Net.owner)
        w.vps)
    presets

let test_tier1_has_no_providers () =
  let w = Gen.generate (Topogen.Scenario.tier1 ~scale:0.1 ()) in
  let truth = Gen.host_neighbor_truth w in
  Alcotest.(check int) "no providers" 0
    (Asn.Map.fold (fun _ v n -> if v = `Provider then n + 1 else n) truth 0)

let test_scale_shrinks () =
  let big = Gen.generate (Topogen.Scenario.r_and_e ~scale:0.6 ()) in
  let small = Gen.generate (Topogen.Scenario.r_and_e ~scale:0.2 ()) in
  Alcotest.(check bool) "fewer routers at smaller scale" true
    (Net.router_count small.net < Net.router_count big.net)

let test_by_name () =
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (Topogen.Scenario.by_name name <> None))
    [ "r_and_e"; "large_access"; "tier1"; "small_access" ];
  Alcotest.(check bool) "unknown" true (Topogen.Scenario.by_name "nope" = None)

let test_big_peer_links_scale_with_preset () =
  let w = Gen.generate (Topogen.Scenario.large_access ~scale:0.1 ()) in
  Alcotest.(check int) "45 big-peer links" 45
    (List.length (Net.interdomain_links_between w.net w.host_asn w.big_peer))

let suite =
  [ Alcotest.test_case "presets generate" `Quick test_presets_generate;
    Alcotest.test_case "tier1 has no providers" `Quick test_tier1_has_no_providers;
    Alcotest.test_case "scale shrinks" `Quick test_scale_shrinks;
    Alcotest.test_case "by_name" `Quick test_by_name;
    Alcotest.test_case "big peer link count" `Quick test_big_peer_links_scale_with_preset ]
