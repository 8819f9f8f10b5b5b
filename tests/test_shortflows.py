"""Short-flow workload and the §5.1 no-impact expectation."""

import pytest

from repro.apps.shortflows import ShortFlowGenerator, run_short_flow_study
from repro.core.tdtcp import TDTCPConnection
from repro.metrics.cdf import quantile
from repro.net.packet import TDNNotification
from repro.obs.telemetry import ObsConfig, Telemetry
from repro.rdcn.topology import build_two_rack_testbed
from repro.sim.rng import SeededRandom
from repro.sim.simulator import Simulator
from repro.tcp.connection import CLOSED, FIN_SENT, TCPConnection
from repro.tcp.sockets import create_connection_pair
from repro.units import msec, usec

from tests.helpers import small_rdcn, two_hosts


class TestGenerator:
    def test_flows_launch_and_complete(self):
        sim, a, b, _ab, _ba = two_hosts()
        gen = ShortFlowGenerator(
            sim, a, b, SeededRandom(3),
            flow_size_bytes=15_000, mean_interarrival_ns=usec(300),
        )
        gen.start()
        sim.run(until=msec(10))
        gen.stop()
        assert len(gen.stats.records) > 10
        assert gen.stats.completion_rate() > 0.9

    def test_fct_positive_and_reasonable(self):
        sim, a, b, _ab, _ba = two_hosts()
        gen = ShortFlowGenerator(
            sim, a, b, SeededRandom(3),
            flow_size_bytes=15_000, mean_interarrival_ns=usec(500),
        )
        gen.start()
        sim.run(until=msec(10))
        fcts = gen.stats.fct_values_us()
        assert fcts
        # 15 KB over a 10 Gbps / 40 us-RTT path: tens to hundreds of us.
        assert min(fcts) > 10
        assert quantile(fcts, 0.5) < 2_000

    def test_stop_halts_launches(self):
        sim, a, b, _ab, _ba = two_hosts()
        gen = ShortFlowGenerator(sim, a, b, SeededRandom(3))
        gen.start()
        sim.run(until=msec(2))
        gen.stop()
        count = len(gen.stats.records)
        sim.run(until=msec(6))
        assert len(gen.stats.records) == count

    def test_connections_cleaned_up(self):
        sim, a, b, _ab, _ba = two_hosts()
        gen = ShortFlowGenerator(
            sim, a, b, SeededRandom(3), mean_interarrival_ns=usec(200),
        )
        gen.start()
        sim.run(until=msec(20))
        gen.stop()
        sim.run(until=msec(25))
        # Far fewer registered connections than launched flows.
        assert len(a._connections) < len(gen.stats.records) / 2


class TestRelease:
    """Finished TDTCP flows are released: demux slot, timers and TDN
    fan-out all let go of the connection."""

    def churn(self, monkeypatch):
        sim = Simulator()
        telemetry = Telemetry(ObsConfig()).attach(sim)
        switches = []
        telemetry.subscribe(
            "tdtcp:tdn_switch", lambda _ts, _name, fields: switches.append(fields["conn"])
        )
        sim, a, b, _ab, _ba = two_hosts(sim=sim)
        gen = ShortFlowGenerator(
            sim, a, b, SeededRandom(3), connection_cls=TDTCPConnection,
            flow_size_bytes=15_000, mean_interarrival_ns=usec(300), tdn_count=2,
        )
        released = []
        cleanup = gen._cleanup

        def recording_cleanup(client, server):
            cleanup(client, server)
            released.extend((client, server))

        monkeypatch.setattr(gen, "_cleanup", recording_cleanup)
        gen.start()
        sim.run(until=msec(6))
        gen.stop()
        return sim, a, b, released, switches

    def test_released_connections_leave_the_host(self, monkeypatch):
        _sim, a, b, released, _switches = self.churn(monkeypatch)
        assert len(released) > 10
        for host in (a, b):
            live = [conn._on_tdn_notification for conn in host._connections.values()]
            assert host._tdn_listeners == live
        for conn in released:
            assert conn.flow_key not in conn.host._connections
            assert not conn._pace_timer.armed

    def test_notification_after_release_is_ignored(self, monkeypatch):
        sim, a, _b, released, switches = self.churn(monkeypatch)
        client = next(conn for conn in released if conn.host is a)
        seen = client.notifications_seen
        switched = client.tdn_state.switches
        a.deliver(TDNNotification("tor", a.address, tdn_id=1 - client.current_tdn))
        sim.run(until=sim.now + usec(100))
        assert client.notifications_seen == seen
        assert client.tdn_state.switches == switched
        assert client.name not in switches
        # The same notification did reach the live flows.
        live = list(a._connections.values())
        assert live and all(conn.notifications_seen == 1 for conn in live)

    def fin_pair(self, target_state):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = create_connection_pair(
            sim, a, b, connection_cls=TDTCPConnection, tdn_count=2
        )
        client.on_established = lambda: (client.write(15_000), client.close())
        while client.state != target_state and sim.now < msec(5):
            sim.run(until=sim.now + usec(1))
        assert client.state == target_state
        return client

    @pytest.mark.parametrize("state", [FIN_SENT, CLOSED])
    def test_finished_connection_does_not_pace_after_switch(self, state):
        client = self.fin_pair(state)
        switched = client.tdn_state.switches
        client.set_current_tdn(1 - client.current_tdn)
        assert client.tdn_state.switches == switched + 1
        assert not client._pace_timer.armed


class TestShortFlowsOnRDCN:
    def test_paper_claim_tdtcp_does_not_hurt_short_flows(self):
        """§5.1: TDTCP should not impact short-flow completion times.
        Compare median FCT of 10-segment RPCs under plain TCP vs TDTCP
        on the same RDCN."""
        results = {}
        for name, cls, kwargs in (
            ("tcp", TCPConnection, {}),
            ("tdtcp", TDTCPConnection, {"tdn_count": 2}),
        ):
            testbed = build_two_rack_testbed(small_rdcn(n_hosts=2))
            stats = run_short_flow_study(
                testbed, cls,
                duration_ns=testbed.config.week_ns * 20,
                flow_size_bytes=15_000,
                mean_interarrival_ns=usec(400),
                **kwargs,
            )
            assert stats.completion_rate() > 0.9
            results[name] = quantile(stats.fct_values_us(), 0.5)
        # Within a modest band of each other (no harm, no magic).
        ratio = results["tdtcp"] / results["tcp"]
        assert 0.5 < ratio < 2.0, results
