"""Shape tests for every experiment (DESIGN.md §4).

A position paper publishes no numbers, so "reproduction" means the
qualitative claims hold: who wins, in which direction, with which scaling.
Each claim is asserted in one test, at a small size and at the size of
the experiment's table (its sweep over loss, load, hops, depth or
plant).
"""

import math

import pytest

from repro.core.qos import BEST_EFFORT, RELIABLE


class TestE1TwoSystem:
    def test_reliable_cube_delivers_everything_under_loss(self):
        from repro.experiments.e1_two_system import run_transfer
        row = run_transfer(0.15, RELIABLE, messages=60)
        assert row["delivery_ratio"] == 1.0
        assert row["retransmissions"] > 0
        # the E1 table's loss sweep
        for loss in (0.0, 0.02, 0.05, 0.1, 0.2):
            row = run_transfer(loss, RELIABLE, messages=150)
            assert row["delivery_ratio"] == 1.0, row

    def test_best_effort_cube_loses_roughly_the_loss_rate(self):
        from repro.experiments.e1_two_system import run_transfer
        row = run_transfer(0.2, BEST_EFFORT, messages=150)
        assert 0.45 < row["delivery_ratio"] < 0.95
        assert row["retransmissions"] == 0
        assert run_transfer(0.1, BEST_EFFORT,
                            messages=150)["delivery_ratio"] < 1.0

    def test_port_ids_local_no_well_known(self):
        from repro.experiments.e1_two_system import run_port_id_locality
        result = run_port_id_locality()
        assert result["client_ports_distinct"]
        assert result["no_well_known_port"]


class TestE2Relay:
    def test_rtt_grows_with_hops_and_relays_hold_no_flow_state(self):
        from repro.experiments.e2_relay import run_relay
        short = run_relay(1, messages=20)
        long = run_relay(3, messages=20)
        assert short["delivered"] == long["delivered"] == 20
        assert long["rtt_p50_ms"] > short["rtt_p50_ms"]
        assert long["relay_flow_state"] == 0
        assert long["endpoint_flow_state"] >= 1
        assert long["relayed_min"] > 0
        # the E2 table: 1-8 relays, 50 messages each
        rows = [run_relay(routers) for routers in (1, 2, 4, 8)]
        assert all(row["delivered"] == 50 for row in rows)
        rtts = [row["rtt_p50_ms"] for row in rows]
        assert rtts == sorted(rtts)
        assert all(row["relay_flow_state"] == 0 for row in rows)


class TestE3ScopedRecovery:
    def test_scoped_beats_e2e_under_wireless_loss(self):
        from repro.experiments.e3_scoped_recovery import run_transfer
        e2e = run_transfer("e2e", 0.15, total_bytes=60_000)
        scoped = run_transfer("scoped", 0.15, total_bytes=60_000)
        assert scoped["goodput_mbps"] > e2e["goodput_mbps"]
        # the wide-scope layer never had to recover in the scoped config
        assert scoped["top_layer_retx"] == 0
        assert e2e["top_layer_retx"] > 0
        assert scoped["wireless_layer_retx"] > 0

    def test_without_loss_the_extra_layer_only_costs_overhead(self):
        from repro.experiments.e3_scoped_recovery import run_transfer
        e2e = run_transfer("e2e", 0.0, total_bytes=60_000)
        scoped = run_transfer("scoped", 0.0, total_bytes=60_000)
        assert scoped["goodput_mbps"] == pytest.approx(e2e["goodput_mbps"],
                                                       rel=0.2)

    def test_scoped_gain_grows_with_loss(self):
        """The E3 table: 120 kB transfers over a loss sweep."""
        from repro.experiments.e3_scoped_recovery import run_transfer
        losses = (0.0, 0.05, 0.1, 0.2, 0.3)
        goodput = {}
        for loss in losses:
            for config in ("e2e", "scoped"):
                row = run_transfer(config, loss, total_bytes=120_000)
                goodput[config, loss] = row["goodput_mbps"]
                if config == "scoped":
                    assert row["top_layer_retx"] == 0, row
        for loss in losses[1:]:
            assert goodput["scoped", loss] > goodput["e2e", loss], loss
        assert (goodput["scoped", 0.3] / goodput["e2e", 0.3]
                > goodput["scoped", 0.05] / goodput["e2e", 0.05])


class TestE4Multihoming:
    def test_rina_survives_and_outage_tracks_keepalive_policy(self):
        from repro.experiments.e4_multihoming import run_rina
        fast = run_rina(keepalive_interval=0.1)
        slow = run_rina(keepalive_interval=0.4)
        assert fast["survived"] and slow["survived"]
        assert fast["outage_s"] < slow["outage_s"]
        assert fast["outage_s"] < 1.0
        # the E4 table's keepalives: the outage is monotone in the policy
        # and bounded by its detection budget
        rows = [run_rina(keepalive_interval=k) for k in (0.1, 0.2, 0.5)]
        assert all(row["survived"] for row in rows)
        outages = [row["outage_s"] for row in rows]
        assert outages == sorted(outages)
        for row in rows:
            assert row["outage_s"] < row["detection_budget_s"] + 1.0, row

    def test_tcp_never_recovers(self):
        from repro.experiments.e4_multihoming import run_tcp
        row = run_tcp()
        assert not row["survived"]
        assert math.isinf(row["outage_s"])

    def test_sctp_recovers_after_heartbeat_detection(self):
        from repro.experiments.e4_multihoming import run_sctp
        row = run_sctp()
        assert row["survived"]
        assert row["failover_after_s"] is None or row["failover_after_s"] > 0


class TestE5Mobility:
    def test_intra_region_updates_stay_local_and_flow_survives(self):
        from repro.experiments.e5_mobility import run_rina
        rows = run_rina()
        intra = [r for r in rows if r["move"] == "intra-region"][0]
        inter = [r for r in rows if r["move"] == "inter-region"][0]
        assert intra["flow_survived"] and inter["flow_survived"]
        # Fig 5's claim: a local move is invisible above
        assert intra["updates_region1"] > 0
        assert intra["updates_metro"] == 0
        assert inter["updates_metro"] > 0

    def test_mobileip_pays_triangle_stretch(self):
        from repro.experiments.e5_mobility import run_mobileip
        rows = run_mobileip()
        assert all(r["flow_survived"] for r in rows)
        assert all(r["stretch"] > 1.0 for r in rows)
        assert all(r["registration_msgs"] >= 1 for r in rows)


class TestE6Scalability:
    def test_recursive_state_and_update_scope_smaller(self):
        from repro.experiments.e6_scalability import run_config
        flat = run_config("flat", regions=3, hosts_per_region=3)
        recursive = run_config("recursive", regions=3, hosts_per_region=3)
        assert recursive["total_state"] < flat["total_state"]
        assert recursive["max_table"] < flat["max_table"]
        assert recursive["flap_update_scope"] < flat["flap_update_scope"]
        # flat floods the whole network on a flap
        assert flat["flap_update_scope"] == flat["systems"]

    def test_recursive_stack_still_delivers_end_to_end(self):
        from repro.experiments.e6_scalability import verify_end_to_end
        result = verify_end_to_end(regions=3, hosts_per_region=3)
        assert result["delivered"] == 10

    def test_flat_state_grows_faster_than_recursive(self):
        """The E6 table over three plant sizes, RIP baseline included."""
        from repro.experiments.e6_scalability import run_config
        sizes = ((3, 4), (4, 8), (5, 12))
        flat = [run_config("flat", *size) for size in sizes]
        recursive = [run_config("recursive", *size) for size in sizes]
        for rip in (run_config("ip+rip", *size) for size in sizes):
            assert rip["flap_update_scope"] == rip["systems"]
            assert rip["updates_per_s"] > 0
        for f, r in zip(flat, recursive):
            assert r["total_state"] < f["total_state"]
            assert r["flap_update_scope"] < f["flap_update_scope"]
            assert f["flap_update_scope"] == f["systems"]
        # flat total state grows ~quadratically; recursive stays near-linear
        assert (flat[-1]["total_state"] / flat[0]["total_state"]
                > recursive[-1]["total_state"] / recursive[0]["total_state"])

    def test_recursive_table_bounded_by_region_at_scale(self):
        """The scale tier: a flat member holds the whole graph, a
        recursive member's table is bounded by its region."""
        from repro.experiments.e6_scalability import SCALE_SIZES, run_scale
        flat = run_scale("flat", *SCALE_SIZES["small"])
        assert flat["mean_table"] == flat["systems"] - 1
        recursive = [run_scale("recursive", *SCALE_SIZES[tier])
                     for tier in ("small", "medium")]
        for row in recursive:
            assert row["max_table"] < row["systems"] / 3, row
        for row in [flat, *recursive]:
            assert row["events"] > 0 and row["total_state"] > 0


class TestE7Security:
    def test_outsider_blocked_with_auth(self):
        from repro.experiments.e7_security import run_rina_outsider
        # a short probe run, then the E7 table's 50 probes per policy
        for auth, probes in (("challenge", 20), ("challenge", 50),
                             ("psk", 50)):
            row = run_rina_outsider(auth, probes=probes)
            assert not row["attacker_enrolled"]
            assert row["enroll_denials"] >= 1
            assert row["pdus_blocked_at_gate"] == row["pdus_injected"]
            assert row["members_discovered"] == 0
            assert not row["service_reached"]

    def test_public_dif_is_the_degenerate_open_case(self):
        from repro.experiments.e7_security import run_rina_outsider
        for probes in (5, 50):
            row = run_rina_outsider("none", probes=probes)
            assert row["attacker_enrolled"]
            assert row["service_reached"]

    def test_insider_blocked_by_access_policy(self):
        from repro.experiments.e7_security import run_rina_insider_acl
        row = run_rina_insider_acl()
        assert not row["rogue_flow_granted"]
        assert row["rogue_failure"] == "access-denied"
        assert row["allowed_flow_granted"]

    def test_ip_world_fully_discoverable(self):
        from repro.experiments.e7_security import run_ip_scan
        row = run_ip_scan()
        assert row["members_discovered"] >= 3
        assert row["service_reached"]


class TestE8Utilization:
    def test_priority_scheduling_sustains_higher_load(self):
        from repro.experiments.e8_utilization import run_point
        fifo = run_point("fifo", 1.1, duration=3.0)
        priority = run_point("priority", 1.1, duration=3.0)
        assert not fifo["sla_met"]
        assert priority["sla_met"]
        assert priority["p99_ms"] < fifo["p99_ms"]

    def test_all_schedulers_fine_at_low_load(self):
        from repro.experiments.e8_utilization import run_point
        for scheduler in ("fifo", "priority", "drr"):
            row = run_point(scheduler, 0.5, duration=2.0)
            assert row["sla_met"], row

    def test_utilization_before_violation(self):
        """The E8 load sweep, 5 s per point; its 1.1x column is the A3
        scheduler ablation."""
        from repro.experiments.e8_utilization import run_point
        loads = (0.4, 0.6, 0.8, 0.9, 1.0, 1.1)
        rows = {(scheduler, load): run_point(scheduler, load, duration=5.0)
                for scheduler in ("fifo", "priority", "drr")
                for load in loads}
        # the highest offered load meeting the delay SLA, per scheduler
        best = {scheduler: max((load for load in loads
                                if rows[scheduler, load]["sla_met"]),
                               default=0.0)
                for scheduler in ("fifo", "priority")}
        # cube-aware scheduling sustains strictly higher load than FIFO,
        # whose ceiling sits in the regime the paper cites
        assert best["priority"] > best["fifo"]
        assert best["fifo"] <= 0.9
        assert best["priority"] >= 1.0
        fifo, priority, drr = (rows[scheduler, 1.1]
                               for scheduler in ("fifo", "priority", "drr"))
        assert priority["p99_ms"] < fifo["p99_ms"]
        assert drr["p99_ms"] < fifo["p99_ms"]
        assert priority["delivery_ratio"] >= 0.99


class TestE9PrivateAddresses:
    def test_nat_world_breaks_where_dif_world_does_not(self):
        from repro.experiments.e9_private_addresses import (run_ip_nat,
                                                            run_rina)
        # a small plant, then the E9 table's three sites of 40 flows/host
        for nat_args, rina_args in (((2, 2, 20, 24), (2, 2, 10)),
                                    ((3, 2, 40, 64), (3, 2, 40))):
            nat = run_ip_nat(*nat_args)
            rina = run_rina(*rina_args)
            # NAT: state grows, pool exhausts, inbound is dead
            assert nat["border_state_total"] > 0
            assert nat["pool_exhausted_drops"] > 0
            assert nat["outbound_established"] < nat["outbound_attempted"]
            assert nat["inbound_succeeded"] == 0 and nat["inbound_blocked"]
            # DIF: identical private addresses everywhere, everything works
            assert rina["site_addresses_identical"]
            assert rina["outbound_established"] == rina["outbound_attempted"]
            assert rina["inbound_succeeded"] == rina["inbound_attempts"]
            assert rina["border_state_total"] == 0


class TestA1Addressing:
    def test_topological_aggregates_best(self):
        from repro.experiments.a1_addressing import run_policy
        for side in (4, 6):
            flat = run_policy("flat", side=side)
            topological = run_policy("topological", side=side)
            mismatched = run_policy("mismatched", side=side)
            assert topological["aggregated_mean"] < flat["aggregated_mean"]
            assert (topological["aggregated_mean"]
                    < mismatched["aggregated_mean"])
            for row in (flat, topological, mismatched):
                assert row["lookups_consistent"]


class TestA2EfcpPolicies:
    def test_selective_beats_gobackn_on_retransmissions(self):
        from repro.experiments.a2_efcp_policies import run_policy
        selective = run_policy("selective", 0.1, total_bytes=60_000)
        gobackn = run_policy("gobackn", 0.1, total_bytes=60_000)
        assert selective["delivery_ratio"] == 1.0
        assert gobackn["delivery_ratio"] == 1.0
        assert selective["goodput_mbps"] >= gobackn["goodput_mbps"] * 0.8
        # the A2 table: 80 kB over a loss sweep
        rows = {(retx, loss): run_policy(retx, loss, total_bytes=80_000)
                for loss in (0.0, 0.05, 0.1, 0.2)
                for retx in ("selective", "gobackn")}
        assert all(row["delivery_ratio"] == 1.0 for row in rows.values())
        # at the heavy-loss end, go-back-N pays more retransmissions and
        # (or) finishes slower than selective repeat
        selective, gobackn = rows["selective", 0.2], rows["gobackn", 0.2]
        assert (gobackn["retransmissions"] + gobackn["timeouts"]
                >= selective["timeouts"])
        assert selective["goodput_mbps"] >= gobackn["goodput_mbps"] * 0.7

    def test_no_retx_loses_data(self):
        from repro.experiments.a2_efcp_policies import run_policy
        row = run_policy("none", 0.15, total_bytes=60_000)
        assert row["delivery_ratio"] < 1.0
        assert row["retransmissions"] == 0
        for loss in (0.05, 0.1, 0.2):
            row = run_policy("none", loss, total_bytes=80_000)
            assert row["delivery_ratio"] < 1.0, row

    def test_credit_and_aimd_deliver_everything(self):
        """A2b: pure credit vs AIMD window adaptation at 2 % loss."""
        from repro.experiments.a2_efcp_policies import run_policy
        for congestion in ("none", "aimd"):
            row = run_policy("selective", 0.02, total_bytes=200_000,
                             congestion=congestion)
            assert row["delivery_ratio"] == 1.0, row


class TestE3Bursty:
    def test_scoped_wins_under_bursty_fades(self):
        """Over a seed panel, at the experiment's two sizes: the mean
        scoped goodput beats the mean end-to-end goodput, and the scoped
        configuration never retransmits at the top layer.  One seed says
        little about a bursty channel: at seed 2 the end-to-end run meets
        no fade and beats scoped on its own."""
        from repro.experiments.e3_scoped_recovery import run_bursty
        seeds = (1, 2, 3)
        for total_bytes in (60_000, 100_000):
            goodput = {}
            for config in ("e2e", "scoped"):
                rows = [run_bursty(config, total_bytes=total_bytes,
                                   seed=seed) for seed in seeds]
                goodput[config] = sum(row["goodput_mbps"]
                                      for row in rows) / len(seeds)
                if config == "scoped":
                    assert [row["top_layer_retx"] for row in rows] == \
                        [0] * len(seeds)
            assert goodput["scoped"] > goodput["e2e"], (total_bytes, goodput)


class TestA4HandoverStrategy:
    def test_break_before_make_survives_but_pays(self):
        from repro.experiments.e5_mobility import run_rina
        mbb = [r for r in run_rina(make_before_break=True)
               if r["move"] == "inter-region"][0]
        bbm = [r for r in run_rina(make_before_break=False)
               if r["move"] == "inter-region"][0]
        assert mbb["flow_survived"] and bbm["flow_survived"]
        # make-before-break is the policy Fig 5's "dynamic multihoming"
        # buys: without it the outage is more than twice as long
        assert bbm["outage_s"] > mbb["outage_s"] * 2


class TestMembershipBound:
    def test_full_dif_denies_enrollment(self):
        """§6.5: 'management policies that constrain the membership size'."""
        from repro.core import (Dif, DifPolicies, add_shims, make_systems,
                                run_until, shim_between)
        from repro.sim.network import Network
        network = Network(seed=3)
        for name in ("a", "b", "c"):
            network.add_node(name)
        network.connect("a", "b")
        network.connect("a", "c")
        systems = make_systems(network)
        add_shims(systems, network)
        dif = Dif("small", DifPolicies(max_members=2))
        a_ipcp = systems["a"].create_ipcp(dif)
        a_ipcp.bootstrap()
        for peer in ("b", "c"):
            systems["a"].publish_ipcp("small", shim_between(network, "a", peer))
            systems[peer].create_ipcp(dif)
        outcomes = []
        systems["b"].enroll("small", a_ipcp.name,
                            shim_between(network, "a", "b"),
                            done=lambda ok, r: outcomes.append((ok, r)))
        run_until(network, lambda: outcomes, timeout=20)
        assert outcomes[0][0]
        systems["c"].enroll("small", a_ipcp.name,
                            shim_between(network, "a", "c"),
                            done=lambda ok, r: outcomes.append((ok, r)))
        run_until(network, lambda: len(outcomes) == 2, timeout=20)
        assert not outcomes[1][0]
        assert dif.member_count() == 2


class TestA5Depth:
    def test_each_layer_costs_but_modestly(self):
        from repro.experiments.a5_depth import run_depth
        shallow = run_depth(1, total_bytes=60_000)
        deep = run_depth(3, total_bytes=60_000)
        assert shallow["completed"] and deep["completed"]
        assert deep["goodput_mbps"] < shallow["goodput_mbps"]
        assert (deep["wire_bytes_per_payload_byte"]
                > shallow["wire_bytes_per_payload_byte"])
        assert deep["goodput_mbps"] > 0.7 * shallow["goodput_mbps"]
        # the A5 table, depth 1-4 at 100 kB: goodput falls, wire
        # overhead and RTT rise, and 4 layers keep > 75 % of the goodput
        rows = [run_depth(depth) for depth in (1, 2, 3, 4)]
        assert all(row["completed"] for row in rows)
        goodputs = [row["goodput_mbps"] for row in rows]
        overheads = [row["wire_bytes_per_payload_byte"] for row in rows]
        rtts = [row["rtt_p50_ms"] for row in rows]
        assert goodputs == sorted(goodputs, reverse=True)
        assert overheads == sorted(overheads)
        assert rtts == sorted(rtts)
        assert goodputs[-1] > 0.75 * goodputs[0]


class TestE6IpBaseline:
    def test_rip_world_matches_flat_dif_costs(self):
        from repro.experiments.e6_scalability import run_config, run_ip_rip
        rip = run_ip_rip(3, 3)
        flat = run_config("flat", regions=3, hosts_per_region=3)
        # same plant: the real-protocol IP world carries flat-sized state,
        # its flap footprint reaches every system, and it pays periodic
        # update chatter on top
        assert rip["total_state"] == flat["total_state"]
        assert rip["flap_update_scope"] == rip["systems"]
        assert rip["updates_per_s"] > 0
