"""Tests for the runtime upstream dispatcher."""

from collections import Counter

import pytest

from repro import metrics as metrics_mod
from repro.core.controller import PolicyConfig
from repro.core.tuples import DataTuple
from repro.runtime import messages
from repro.runtime.dispatcher import (UpstreamDispatcher, instance_id,
                                      split_instance)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestInstanceIds:
    def test_roundtrip(self):
        assert split_instance(instance_id("det", "B")) == ("det", "B")

    def test_malformed_rejected(self):
        from repro.core.exceptions import RoutingError
        with pytest.raises(RoutingError):
            split_instance("nounit")
        with pytest.raises(RoutingError):
            split_instance("@B")


def make_dispatcher(policy="RR", sent=None, fail_targets=(), clock=None):
    sent = sent if sent is not None else []
    fail_targets = set(fail_targets)

    def send(worker_id, message):
        if worker_id in fail_targets:
            raise ConnectionError("link down")
        sent.append((worker_id, message))

    dispatcher = UpstreamDispatcher(
        "src", send=send,
        config=PolicyConfig(policy=policy, seed=1, control_interval=0.5),
        clock=clock or FakeClock())
    return dispatcher, sent


class TestDispatch:
    def test_routes_to_downstream_instance(self):
        dispatcher, sent = make_dispatcher()
        dispatcher.set_downstreams(["det@B"])
        result = dispatcher.dispatch(DataTuple(values={"x": 1}, seq=0))
        assert result == "det@B"
        worker_id, message = sent[0]
        assert worker_id == "B"
        assert message.kind == messages.DATA
        assert message.payload["unit"] == "det"
        assert message.payload["edge"] == "src"

    def test_round_robin_across_instances(self):
        dispatcher, sent = make_dispatcher()
        dispatcher.set_downstreams(["det@B", "det@C"])
        for seq in range(4):
            dispatcher.dispatch(DataTuple(values={"x": 1}, seq=seq))
        workers = Counter(worker for worker, _ in sent)
        assert workers == {"B": 2, "C": 2}

    def test_no_downstreams_returns_none(self):
        dispatcher, _sent = make_dispatcher()
        assert dispatcher.dispatch(DataTuple(values={}, seq=0)) is None

    def test_broken_link_falls_back(self):
        dispatcher, sent = make_dispatcher(fail_targets={"B"})
        dispatcher.set_downstreams(["det@B", "det@C"])
        for seq in range(6):
            dispatcher.dispatch(DataTuple(values={}, seq=seq))
        assert all(worker == "C" for worker, _ in sent)
        # The dead instance stays a member (probing may resurrect it)
        # but is excluded from live routing.
        assert dispatcher.downstream_instances() == ["det@B", "det@C"]
        assert dispatcher.live_instances() == ["det@C"]
        assert dispatcher.stats()["det@B"].alive is False

    def test_marked_dead_resurrected_by_ack(self):
        fail_targets = {"B"}
        dispatcher, sent = make_dispatcher(fail_targets=fail_targets)
        dispatcher.set_downstreams(["det@B", "det@C"])
        dispatcher.dispatch(DataTuple(values={}, seq=0))
        assert dispatcher.live_instances() == ["det@C"]
        # The link heals and a probe's ACK arrives: B is live again.
        fail_targets.clear()
        dispatcher._tracker.record_send(99, "det@B", 0.0)
        dispatcher.on_ack(seq=99, processing_delay=0.01)
        assert dispatcher.live_instances() == ["det@B", "det@C"]

    def test_all_links_broken_returns_none(self):
        dispatcher, sent = make_dispatcher(fail_targets={"B", "C"})
        dispatcher.set_downstreams(["det@B", "det@C"])
        assert dispatcher.dispatch(DataTuple(values={}, seq=0)) is None
        assert sent == []


class TestAcks:
    def test_ack_updates_latency_stats(self):
        clock = FakeClock()
        dispatcher, _sent = make_dispatcher(policy="LRS", clock=clock)
        dispatcher.set_downstreams(["det@B"])
        dispatcher.dispatch(DataTuple(values={}, seq=0))
        clock.advance(0.3)
        dispatcher.on_ack(seq=0, processing_delay=0.1)
        stats = dispatcher.stats()["det@B"]
        assert stats.latency == pytest.approx(0.3)
        assert stats.processing_delay == pytest.approx(0.1)
        assert dispatcher.ack_count == 1

    def test_unknown_ack_ignored(self):
        dispatcher, _sent = make_dispatcher()
        dispatcher.set_downstreams(["det@B"])
        dispatcher.on_ack(seq=123, processing_delay=0.1)
        assert dispatcher.ack_count == 0


class TestControl:
    def test_policy_updates_on_interval(self):
        clock = FakeClock()
        dispatcher, _sent = make_dispatcher(policy="LRS", clock=clock)
        dispatcher.set_downstreams(["det@fast", "det@slow"])
        # Feed asymmetric latencies.
        for seq in range(20):
            target = dispatcher.dispatch(DataTuple(values={}, seq=seq))
            clock.advance(0.01 if target == "det@fast" else 0.2)
            dispatcher.on_ack(seq=seq, processing_delay=0.01)
        clock.advance(1.0)
        decision = dispatcher.force_update()
        # With Worker Selection the slow instance may be excluded entirely.
        assert decision.weights["det@fast"] > decision.weights.get(
            "det@slow", 0.0)
        assert "det@fast" in decision.selected

    def test_only_the_tick_runs_a_round(self):
        clock = FakeClock()
        dispatcher, _sent = make_dispatcher(policy="LRS", clock=clock)
        dispatcher.set_downstreams(["det@B"])
        clock.advance(5.0)  # ten intervals overdue
        dispatcher.dispatch(DataTuple(values={}, seq=0))
        assert len(dispatcher.controller.decisions) == 0
        assert dispatcher.tick(clock.now) == pytest.approx(clock.now + 0.5)
        assert len(dispatcher.controller.decisions) == 1
        assert dispatcher.tick(clock.now + 0.4) == pytest.approx(
            clock.now + 0.5)  # not due yet: no second round
        assert len(dispatcher.controller.decisions) == 1

    def test_membership_reconciliation(self):
        dispatcher, _sent = make_dispatcher()
        dispatcher.set_downstreams(["det@B", "det@C"])
        dispatcher.set_downstreams(["det@C", "det@D"])
        assert dispatcher.downstream_instances() == ["det@C", "det@D"]

    def test_add_remove_individual(self):
        dispatcher, _sent = make_dispatcher()
        dispatcher.add_downstream("det@B")
        dispatcher.add_downstream("det@B")  # idempotent
        assert dispatcher.downstream_instances() == ["det@B"]
        dispatcher.remove_downstream("det@B")
        assert dispatcher.downstream_instances() == []


class TestMetricHandles:
    def test_steady_state_rounds_look_up_no_metric_by_name(self,
                                                            monkeypatch):
        # Sends, ACKs and RTT samples count through per-downstream
        # handles: a name lookup (kwargs, label sort, registry read)
        # happens once per downstream, never per message.
        calls = []
        for name in ("counter", "histogram", "gauge"):
            lookup = getattr(metrics_mod.MetricsRegistry, name)

            def counted(registry, *args, _lookup=lookup, _name=name,
                        **labels):
                calls.append(_name)
                return _lookup(registry, *args, **labels)

            monkeypatch.setattr(metrics_mod.MetricsRegistry, name, counted)
        registry = metrics_mod.MetricsRegistry()
        clock = FakeClock()
        dispatcher = UpstreamDispatcher(
            "src", send=lambda _worker, _message: None,
            config=PolicyConfig(), clock=clock, edge="src>det",
            registry=registry)
        downstreams = ["det@B", "det@C"]
        dispatcher.set_downstreams(downstreams)
        chosen = set()
        for seq in range(100):
            chosen.add(dispatcher.dispatch(DataTuple(values={}, seq=seq)))
            clock.advance(0.001)
            dispatcher.on_ack(seq=seq, processing_delay=0.0005)
            if chosen == set(downstreams):
                break
        assert chosen == set(downstreams)
        assert calls  # the first tuple per downstream made the handles
        del calls[:]
        for seq in range(seq + 1, seq + 1001):
            assert dispatcher.dispatch(DataTuple(values={}, seq=seq)) \
                in downstreams
            clock.advance(0.001)
            dispatcher.on_ack(seq=seq, processing_delay=0.0005)
        assert calls == []
        sent = registry.values_by_label(metrics_mod.SENT_TOTAL, "downstream")
        assert sum(sent.values()) == seq + 1
        assert registry.values_by_label(metrics_mod.ACKED_TOTAL,
                                        "downstream") == sent
        rtt = [h for h in registry.histograms()
               if h.name == metrics_mod.ACK_RTT_SECONDS]
        assert sorted(h.labels["downstream"] for h in rtt) == downstreams
        assert sum(h.count for h in rtt) == seq + 1
