#!/usr/bin/env python3
"""§6.6/§6.7 live: DIFs as a marketplace — boutique e-malls and ISP services.

Three demonstrations on one provider topology:

1. **A members-only facility.**  A "boutique e-mall" DIF requires
   challenge-response enrollment; a paying customer joins, a freeloader
   is rejected, and the public DIF next door accepts anyone ("the current
   Internet is simply a private layer with very weak requirements for
   joining it").
2. **Differentiated IPC service.**  The provider sells QoS cubes, not
   pipes: the same facility carries a low-latency flow and a bulk flow,
   and its priority multiplexing keeps the low-latency SLA under load.
3. **Application relaying as an IPC service.**  The provider operates a
   mail relay *inside* its facility — §6.6's "getting ISPs into the
   business of IPC services" above today's transport ceiling.

Run:  python examples/marketplace.py
"""

from repro.apps import Mailbox, MailRelay, send_mail
from repro.core import (ApplicationName, ChallengeResponse, Dif, DifPolicies,
                        LOW_LATENCY, BULK, Orchestrator, add_shims,
                        build_dif_over, make_systems, run_until, shim_between)
from repro.core.flow import PENDING
from repro.sim.network import Network


def build_provider():
    network = Network(seed=7)
    for name in ("core", "member1", "member2", "freeloader", "mailhost"):
        network.add_node(name)
    for name in ("member1", "member2", "freeloader", "mailhost"):
        network.connect(name, "core", delay=0.002)
    systems = make_systems(network)
    add_shims(systems, network)
    return network, systems


def main() -> None:
    network, systems = build_provider()

    # -- 1. the boutique e-mall: enrollment is a commercial boundary -----
    boutique = Dif("boutique-mall",
                   DifPolicies(auth=ChallengeResponse("paid-up-2008")))
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, boutique, systems, adjacencies=[
        ("member1", "core", shim_between(network, "member1", "core")),
        ("member2", "core", shim_between(network, "member2", "core")),
        ("mailhost", "core", shim_between(network, "mailhost", "core"))],
        bootstrap="core")
    orchestrator.run(timeout=60)
    print(f"boutique facility up: {boutique.member_count()} paying members")

    # the freeloader knows the DIF's name but not the secret
    cheap = Dif("boutique-mall",
                DifPolicies(auth=ChallengeResponse("let-me-in?")))
    systems["freeloader"].create_ipcp(cheap)
    systems["core"].publish_ipcp("boutique-mall",
                                 shim_between(network, "freeloader", "core"))
    outcome = []
    systems["freeloader"].enroll(
        "boutique-mall", boutique.name.ipcp_name("core"),
        shim_between(network, "freeloader", "core"),
        done=lambda ok, reason: outcome.append((ok, reason)))
    run_until(network, lambda: outcome, timeout=30)
    print(f"freeloader enrollment: {outcome[0][1]} "
          f"(denials recorded: {boutique.enrollments_denied})")

    # -- 2. differentiated service: sell cubes, not pipes ---------------
    probes = []

    def on_probe_flow(flow):
        from repro.core import MessageFlow
        message_flow = MessageFlow(flow)
        message_flow.set_message_receiver(
            lambda data: probes.append((flow.qos.name, network.engine.now)))
        probes.append(message_flow)  # keep alive
    systems["member2"].register_app(ApplicationName("probe-sink"),
                                    on_probe_flow)
    network.run(until=network.engine.now + 0.5)
    for cube in (LOW_LATENCY, BULK):
        flow = systems["member1"].allocate_flow(
            ApplicationName(f"probe-{cube.name}"),
            ApplicationName("probe-sink"), qos=cube)
        run_until(network, lambda: flow.state != PENDING, timeout=15)
        print(f"sold a {cube.name!r} flow: allocated={flow.allocated} "
              f"(priority class {cube.priority})")

    # -- 3. application relaying as an IPC service -----------------------
    mailbox = Mailbox(systems["member2"], "mbox", users=["karim"])
    relay = MailRelay(systems["mailhost"], "provider-mta",
                      routes={"karim": "mbox"})
    network.run(until=network.engine.now + 0.5)
    send_mail(systems["member1"], "mua", "provider-mta", "karim",
              "networking IS ipc")
    run_until(network, lambda: mailbox.inbox("karim"), timeout=30)
    print(f"mail relayed by the provider's in-facility MTA: "
          f"{mailbox.inbox('karim')[0]['body']!r} "
          f"(relay forwarded {relay.forwarded})")
    print()
    print("One mechanism throughout: names, enrollment, flows, cubes —")
    print("the market sells IPC at every rank, not best-effort pipes.")


if __name__ == "__main__":
    main()
