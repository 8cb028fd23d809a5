"""Tests for the baseline middleboxes: NAT and Mobile-IP."""

from repro.baselines import HomeAgent, MobileNode, NatBox, ip
from repro.baselines.sockets import Host
from repro.sim.network import Network


def nat_site(port_pool=8, seed=1):
    """host(192.168.0.2) - gw[NAT] - server(100.64.0.2)."""
    network = Network(seed=seed)
    for name in ("h", "gw", "srv"):
        network.add_node(name)
    network.connect("h", "gw")
    network.connect("gw", "srv")
    h = Host(network.node("h"))
    gw = Host(network.node("gw"), forwarding=True)
    srv = Host(network.node("srv"))
    h.ip.add_interface("if0", ip("192.168.0.2"), 30)
    gw.ip.add_interface("if0", ip("192.168.0.1"), 30)
    gw.ip.add_interface("if1", ip("100.64.0.1"), 30)
    srv.ip.add_interface("if0", ip("100.64.0.2"), 30)
    h.ip.add_route(ip("192.168.0.0"), 30, None, "if0")
    h.ip.add_route(0, 0, ip("192.168.0.1"), "if0")
    gw.ip.add_route(ip("192.168.0.0"), 30, None, "if0")
    gw.ip.add_route(ip("100.64.0.0"), 30, None, "if1")
    srv.ip.add_route(ip("100.64.0.0"), 30, None, "if0")
    nat = NatBox(gw.ip, ip("192.168.0.0"), 16, ip("100.64.0.1"),
                 port_pool=port_pool)
    return network, h, gw, srv, nat


class TestNat:
    def test_outbound_flow_translated_and_works(self):
        network, h, _gw, srv, nat = nat_site()
        accepted = []
        srv.tcp.listen(80, accepted.append)
        conn = h.tcp.connect(ip("192.168.0.2"), ip("100.64.0.2"), 80)
        network.run(until=2.0)
        assert conn.established
        # server saw the NAT's public address, not the private one
        assert accepted[0].remote_ip == ip("100.64.0.1")
        assert nat.active_mappings() == 1
        assert nat.translations_out > 0 and nat.translations_in > 0

    def test_pool_exhaustion_refuses_new_flows(self):
        network, h, _gw, srv, nat = nat_site(port_pool=2)
        srv.tcp.listen(80, lambda c: None)
        conns = [h.tcp.connect(ip("192.168.0.2"), ip("100.64.0.2"), 80)
                 for _ in range(4)]
        network.run(until=30.0)
        assert sum(1 for c in conns if c.established) == 2
        assert nat.drops_pool_exhausted > 0

    def test_unsolicited_inbound_dropped(self):
        network, h, _gw, srv, nat = nat_site()
        h.tcp.listen(8080, lambda c: None)
        conn = srv.tcp.connect(ip("100.64.0.2"), ip("100.64.0.1"), 8080)
        network.run(until=30.0)
        assert not conn.established
        assert nat.drops_no_mapping > 0

    def test_release_frees_mapping(self):
        network, h, _gw, srv, nat = nat_site()
        srv.tcp.listen(80, lambda c: None)
        conn = h.tcp.connect(ip("192.168.0.2"), ip("100.64.0.2"), 80)
        network.run(until=2.0)
        nat.release(ip("192.168.0.2"), conn.local_port, 6)
        assert nat.active_mappings() == 0


def mobileip_world(seed=1):
    """corr - core - home_rtr(HA) - m ; core - foreign_rtr - m (two radios)."""
    from repro.baselines.sockets import IpFabric
    network = Network(seed=seed)
    for name in ("corr", "core", "home", "foreign", "m"):
        network.add_node(name)
    network.connect("m", "home", name="radio:home")
    network.connect("m", "foreign", name="radio:foreign")
    network.connect("home", "core")
    network.connect("foreign", "core")
    network.connect("corr", "core")
    fabric = IpFabric(network, routers=["home", "foreign", "core"])
    return network, fabric


class TestMobileIp:
    def test_registration_and_tunneling(self):
        network, fabric = mobileip_world()
        m, corr, home = (fabric.host(n) for n in ("m", "corr", "home"))
        home_address = m.addr("if0")
        # the HA's own address is its stable core-facing interface (the
        # radio subnet dies with the mobile's departure)
        agent_ip = home.addr("if1")
        agent = HomeAgent(home.ip, home.udp, agent_ip)
        mobile = MobileNode(network.engine, m.ip, m.udp, home_address,
                            agent_ip)
        got = []
        m.udp.bind(7, lambda payload, size, src, sport: got.append(payload))
        network.links["radio:home"].fail()
        # rehome the mobile's routing to the foreign attachment
        stack = m.ip
        stack.clear_routes()
        for ifname, ip_if in stack.interfaces.items():
            if ip_if.up:
                prefix, plen = ip_if.network
                stack.add_route(prefix, plen, None, ifname)
        new_if = stack.interfaces["if1"]
        peer = (new_if.address & ~3) + (1 if (new_if.address & 3) == 2 else 2)
        stack.add_route(0, 0, peer, "if1")
        mobile.move_to(m.addr("if1"))
        network.run(until=3.0)
        assert mobile.registered
        assert agent.binding_for(home_address) == m.addr("if1")
        # correspondent sends to the HOME address; HA tunnels to care-of
        corr.udp.sendto(corr.addr(), 999, home_address, 7, b"to-mobile", 9)
        network.run(until=5.0)
        assert got == [b"to-mobile"]
        assert agent.packets_tunneled >= 1
        assert mobile.tunnel_deliveries >= 1

    def test_registration_rtt_recorded(self):
        network, fabric = mobileip_world()
        m, home = fabric.host("m"), fabric.host("home")
        HomeAgent(home.ip, home.udp, home.addr("if1"))
        mobile = MobileNode(network.engine, m.ip, m.udp, m.addr("if0"),
                            home.addr("if1"))
        mobile.move_to(m.addr("if1"))
        network.run(until=3.0)
        assert len(mobile.registration_rtts) == 1
        assert mobile.registration_rtts[0] > 0

    def test_deregistration_returns_home(self):
        network, fabric = mobileip_world()
        m, home = fabric.host("m"), fabric.host("home")
        agent = HomeAgent(home.ip, home.udp, home.addr("if1"))
        mobile = MobileNode(network.engine, m.ip, m.udp, m.addr("if0"),
                            home.addr("if1"))
        mobile.move_to(m.addr("if1"))
        network.run(until=3.0)
        assert agent.binding_for(m.addr("if0")) is not None
        mobile.return_home()
        network.run(until=5.0)
        assert agent.binding_for(m.addr("if0")) is None

    def test_unreachable_home_agent_stops_retrying(self):
        network, fabric = mobileip_world()
        m, home = fabric.host("m"), fabric.host("home")
        mobile = MobileNode(network.engine, m.ip, m.udp, m.addr("if0"),
                            home.addr("if1"), registration_timeout=0.2,
                            max_retries=3)
        network.links["radio:home"].fail()
        network.links["radio:foreign"].fail()   # fully cut off
        mobile.move_to(m.addr("if1"))
        network.run(until=10.0)
        assert not mobile.registered
        assert mobile.registrations_sent == 4  # 1 + 3 retries
