"""Tests for the shared LRS control plane (LrsController / PolicyConfig)."""

import heapq

import pytest

from repro import metrics as metrics_mod
from repro.core.controller import AckResult, LrsController, PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, EVICT_SHED, DeliveryConfig
from repro.core.exceptions import PolicyError
from repro.core.keyed import KeyRangeTable
from repro.core.policies import POLICY_NAMES
from repro.trace import ACK_RTT, RETRY, Tracer


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now


class TestPolicyConfig:
    def test_probed_policies_get_probe_kwargs(self):
        config = PolicyConfig(policy="LRS", probe_every=7, probe_tuples=2,
                              probe_spacing=4)
        assert config.policy_kwargs() == {"probe_every": 7,
                                          "probe_tuples": 2,
                                          "probe_spacing": 4}

    def test_plain_policies_get_no_kwargs(self):
        assert PolicyConfig(policy="RR").policy_kwargs() == {}

    def test_estimator_kwargs(self):
        assert PolicyConfig(estimator_window=7).estimator_kwargs() == \
            {"window": 7}
        assert PolicyConfig(estimator="ewma").estimator_kwargs() == {}

    def test_make_policy_builds_every_known_policy(self):
        for name in POLICY_NAMES:
            policy = PolicyConfig(policy=name, seed=3).make_policy()
            policy.on_downstream_added("a")
            assert policy.route() == "a"

    def test_make_tracker_uses_given_registry(self):
        registry = metrics_mod.MetricsRegistry()
        tracker = PolicyConfig().make_tracker(registry)
        tracker.record_send(1, "a", 0.0)
        assert registry.value(metrics_mod.SENT_TOTAL, downstream="a") == 1


class TestPolicyConfigValidation:
    """Each rule on a control-plane value is checked once, where the
    value is built, so no substrate runs with one it would reject."""

    @pytest.mark.parametrize("field, value", [
        ("control_interval", 0.0), ("control_interval", -1.0),
        ("ack_timeout", 0.0), ("ack_timeout", -1.0),
        ("dead_after", 0)])
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(PolicyError):
            PolicyConfig(**{field: value})

    def test_controller_never_sees_a_negative_ack_timeout(self):
        # -1 s would expire every in-flight tuple at the next round
        with pytest.raises(PolicyError):
            LrsController(PolicyConfig(ack_timeout=-1))

    def test_smallest_valid_values_accepted(self):
        config = PolicyConfig(control_interval=1e-3, ack_timeout=1e-3,
                              dead_after=1)
        assert LrsController(config).config is config


class TestMembership:
    def _controller(self):
        return LrsController(PolicyConfig(policy="RR", seed=0),
                             clock=FakeClock(),
                             registry=metrics_mod.MetricsRegistry())

    def test_set_downstreams_reconciles(self):
        controller = self._controller()
        controller.add_downstream("a")
        controller.add_downstream("b")
        controller.set_downstreams(["b", "c"])
        assert controller.downstream_ids() == ["b", "c"]

    def test_add_is_idempotent_and_keeps_dead_mark(self):
        controller = self._controller()
        controller.add_downstream("a")
        controller.mark_dead("a")
        controller.add_downstream("a")
        assert not controller.is_alive("a")
        assert controller.dead_downstreams() == ["a"]

    def test_revive_resurrects_a_sole_dead_member(self):
        # An edge whose ONLY downstream is dead (the failover shape: a
        # worker edge pointing at the master-hosted sink) still sends
        # to it, so the member's first ACK brings it back.
        controller = self._controller()
        controller.add_downstream("a")
        controller.mark_dead("a")
        assert controller.unsatisfiable()
        assert controller.dead_downstreams() == ["a"]
        assert controller.dispatch(2) == "a"
        assert controller.on_ack(2) is not None
        assert controller.is_alive("a")
        assert not controller.unsatisfiable()

    def test_revive_unwedges_retained_at_least_once_frames(self):
        clock = FakeClock()
        egress = _FailingEgress(clock, failing={"a"})
        delivery = DeliveryConfig(mode=AT_LEAST_ONCE,
                                  redelivery_timeout=0.5)
        controller = LrsController(
            PolicyConfig(policy="RR", seed=0, delivery=delivery),
            clock=clock, egress=egress,
            registry=metrics_mod.MetricsRegistry())
        controller.add_downstream("a")
        # The sole member dies; the tuple is retained unassigned.
        assert controller.dispatch(1, context=b"frame") is None
        assert not controller.is_alive("a")
        assert controller.replay_depth() == 1
        # While it stays down, the all-dead edge's sweep retries its
        # dead member and keeps the frame.
        clock.now = 2.0
        controller.update(clock.now)
        assert egress.attempts == [("a", 1), ("a", 1)]
        assert egress.sent == []
        assert controller.replay_depth() == 1
        # The member comes back (successor master): the first sweep
        # after recovery places the retained frame, and its ACK revives
        # the member.
        egress.failing.clear()
        clock.now = 3.0
        controller.update(clock.now)
        assert egress.sent == [("a", 1)]
        assert controller.on_ack(1) is not None
        assert controller.is_alive("a")
        assert controller.replay_depth() == 0


class _FailingEgress:
    """Egress that fails for a chosen set of downstreams."""

    def __init__(self, clock, failing):
        self.clock = clock
        self.failing = set(failing)
        self.attempts = []
        self.sent = []

    def send(self, downstream_id, seq, context, attempt):
        self.attempts.append((downstream_id, seq))
        if downstream_id in self.failing:
            return None
        self.sent.append((downstream_id, seq))
        return self.clock()


class TestDispatch:
    def test_dispatch_records_send_and_ack_round_trip(self):
        clock = FakeClock()
        controller = LrsController(PolicyConfig(policy="RR", seed=0),
                                   clock=clock,
                                   registry=metrics_mod.MetricsRegistry())
        controller.add_downstream("a")
        chosen = controller.dispatch(1)
        assert chosen == "a"
        clock.now = 0.25
        result = controller.on_ack(1)
        assert result == AckResult(downstream_id="a", sample=0.25)
        assert controller.ack_count == 1
        assert controller.stats()["a"].latency == pytest.approx(0.25)

    def test_failed_send_marks_dead_and_reroutes(self):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        egress = _FailingEgress(clock, failing={"a"})
        controller = LrsController(PolicyConfig(policy="RR", seed=0),
                                   clock=clock, egress=egress,
                                   registry=registry)
        controller.add_downstream("a")
        controller.add_downstream("b")
        chosen = {controller.dispatch(seq) for seq in range(4)}
        assert chosen == {"b"}
        assert controller.dead_downstreams() == ["a"]
        assert registry.value(metrics_mod.REROUTED_TOTAL,
                              downstream="b") >= 1

    def test_every_send_failing_loses_the_tuple(self):
        clock = FakeClock()
        egress = _FailingEgress(clock, failing={"a", "b"})
        controller = LrsController(PolicyConfig(policy="RR", seed=0),
                                   clock=clock, egress=egress,
                                   registry=metrics_mod.MetricsRegistry())
        controller.add_downstream("a")
        controller.add_downstream("b")
        assert controller.dispatch(1) is None
        assert controller.dispatched == 0
        assert controller.dead_downstreams() == ["a", "b"]

    def test_dispatch_without_members_returns_none(self):
        controller = LrsController(PolicyConfig(policy="RR", seed=0),
                                   clock=FakeClock(),
                                   registry=metrics_mod.MetricsRegistry())
        assert controller.dispatch(1) is None


class TestDeadEdgeLiveness:
    """One way into and out of dead for every policy: an all-dead edge
    keeps cycling over its dead members, even after an update round,
    and one ACK to such a send makes the member alive again."""

    @pytest.mark.parametrize("members", [["a"], ["a", "b"]],
                             ids=["one_member", "two_members"])
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_all_dead_edge_still_dispatches_and_an_ack_revives(
            self, policy, members):
        clock = FakeClock()
        controller = LrsController(PolicyConfig(policy=policy, seed=0),
                                   clock=clock,
                                   registry=metrics_mod.MetricsRegistry())
        for member in members:
            controller.add_downstream(member)
        for member in members:
            controller.mark_dead(member)
        clock.now = 5.0
        controller.update(clock.now)
        chosen = controller.dispatch(1)
        assert chosen in members
        assert not controller.is_alive(chosen)
        clock.now = 5.25
        assert controller.on_ack(1) == AckResult(downstream_id=chosen,
                                                 sample=0.25)
        assert controller.is_alive(chosen)


def _at_least_once_controller(clock, egress, registry, trace=None):
    controller = LrsController(
        PolicyConfig(policy="RR", seed=0, delivery=DeliveryConfig(
            mode=AT_LEAST_ONCE, redelivery_timeout=0.5)),
        clock=clock, egress=egress, registry=registry, name="s>d",
        trace=trace)
    controller.add_downstream("a")
    controller.add_downstream("b")
    return controller


def _dispatch(controller, seqs, context=None):
    if len(seqs) == 1:
        return controller.dispatch(seqs[0], context=context)
    return controller.dispatch_batch(seqs, context=context)


#: the two public entry points over the one placement loop / ACK fold
either_size = pytest.mark.parametrize(
    "seqs", [[5], [5, 6, 7]], ids=["dispatch", "dispatch_batch"])


class TestOnePlacementOneFold:
    """A tuple is a batch of one: ``dispatch`` and ``dispatch_batch``
    (``on_ack`` and ``on_ack_batch``) differ in nothing but n."""

    @either_size
    def test_dead_first_choice_is_rerouted_once(self, seqs):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        tracer = Tracer(sample_rate=1.0)
        egress = _FailingEgress(clock, failing={"a"})
        controller = _at_least_once_controller(clock, egress, registry,
                                               trace=tracer)
        assert _dispatch(controller, seqs, context=b"frame") == "b"
        assert egress.sent == [("b", seqs[0])]
        assert controller.dead_downstreams() == ["a"]
        assert controller.dispatched == len(seqs)
        assert registry.value(metrics_mod.REROUTED_TOTAL,
                              downstream="b") == 1
        (retry,) = [s for s in tracer.spans() if s.kind == RETRY]
        assert (retry.seq, retry.detail) == (seqs[0], "a")

    @either_size
    def test_nobody_alive_retains_the_unit_unassigned(self, seqs):
        clock = FakeClock()
        egress = _FailingEgress(clock, failing={"a", "b"})
        controller = _at_least_once_controller(
            clock, egress, metrics_mod.MetricsRegistry())
        assert _dispatch(controller, seqs, context=b"frame") is None
        assert controller.dispatched == 0
        assert controller.replay_depth() == 1  # one entry, whatever n
        assert all(controller.replay_holds(seq) for seq in seqs)
        # Unassigned means the next sweep places it as soon as anyone
        # is back, without waiting for a death signal.
        egress.failing.clear()
        clock.now = 1.0
        controller.update(clock.now)
        assert [seq for _target, seq in egress.sent] == [seqs[0]]

    @either_size
    def test_ack_is_one_sample_n_tuples_and_releases_retention(self, seqs):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        tracer = Tracer(sample_rate=1.0)
        controller = _at_least_once_controller(
            clock, _FailingEgress(clock, failing=()), registry,
            trace=tracer)
        chosen = _dispatch(controller, seqs, context=b"frame")
        assert all(controller.replay_holds(seq) for seq in seqs)
        clock.now = 0.25
        result = (controller.on_ack(seqs[0]) if len(seqs) == 1
                  else controller.on_ack_batch(seqs))
        assert result == AckResult(downstream_id=chosen, sample=0.25)
        assert controller.ack_count == len(seqs)
        assert registry.histogram(metrics_mod.ACK_RTT_SECONDS,
                                  downstream=chosen).count == 1
        (rtt,) = [s for s in tracer.spans() if s.kind == ACK_RTT]
        assert (rtt.seq, rtt.detail) == (seqs[0], chosen)
        assert controller.replay_depth() == 0
        assert not any(controller.replay_holds(seq) for seq in seqs)

    @pytest.mark.parametrize("evicts", [False, True],
                             ids=["on_ack", "release_replay"])
    def test_batch_entry_stays_until_its_last_member_goes(self, evicts):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        controller = _at_least_once_controller(
            clock, _FailingEgress(clock, failing=()), registry)
        controller.dispatch_batch([5, 6, 7], context=b"frame")

        def strike(seq):
            if evicts:
                assert controller.release_replay(seq, EVICT_SHED)
            else:
                controller.on_ack(seq)

        strike(6)
        strike(5)  # the head is a member like any other
        assert controller.replay_depth() == 1
        assert controller.replay_holds(7)
        strike(7)
        assert controller.replay_depth() == 0
        # Giving up is counted (once, when the entry goes); an ACK is not.
        assert registry.values_by_label(
            metrics_mod.REPLAY_EVICTED_TOTAL, "reason") == (
                {EVICT_SHED: 1} if evicts else {})


class _AckingEgress:
    """Egress whose ``send`` is overtaken by the ACK: the echo is folded
    (as another thread would, once a socket write drops the GIL) before
    ``send`` returns to the controller's bookkeeping."""

    def __init__(self, clock, members=None):
        self.clock = clock
        self.members = members
        self.controller = None
        self.acking = True
        self.sent = []

    def send(self, downstream_id, seq, context, attempt):
        self.sent.append((downstream_id, seq))
        if self.acking:
            if self.members and len(self.members) > 1:
                self.controller.on_ack_batch(self.members)
            else:
                self.controller.on_ack(seq)
        return self.clock()


class TestAckOvertakesSend:
    """Pending entry, retention and batch membership are registered
    BEFORE the egress runs, so an ACK folded inside ``send`` finds them;
    a failed send takes them back out, exactly."""

    def _controller(self, clock, egress, registry):
        controller = _at_least_once_controller(clock, egress, registry)
        egress.controller = controller
        return controller

    def _assert_settled(self, controller, registry, egress, clock, acked,
                        redelivered=0):
        assert controller.replay_depth() == 0
        assert controller.tracker.pending_count() == 0
        assert controller.ack_count == acked
        samples = sum(h.count for h in registry.histograms()
                      if h.name == metrics_mod.ACK_RTT_SECONDS)
        assert samples == 1
        sends = len(egress.sent)
        # Past the redelivery timeout (0.5 s) and the ACK timeout (10 s):
        # nothing is left to redeliver or to charge as lost.
        for clock.now in (1.0, 11.0):
            controller.update(clock.now)
        assert len(egress.sent) == sends
        assert sum(registry.values_by_label(
            metrics_mod.REDELIVERED_TOTAL, "downstream").values()) \
            == redelivered
        assert controller.tracker.lost_count() == 0

    @either_size
    def test_ack_folded_inside_send_leaves_no_orphan(self, seqs):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        egress = _AckingEgress(clock, members=seqs)
        controller = self._controller(clock, egress, registry)
        assert _dispatch(controller, seqs, context=b"frame") is not None
        assert not any(controller.replay_holds(seq) for seq in seqs)
        assert controller.dispatched == len(seqs)
        self._assert_settled(controller, registry, egress, clock, len(seqs))

    def test_ack_folded_inside_a_redelivery_send(self):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        egress = _AckingEgress(clock)
        egress.acking = False
        controller = self._controller(clock, egress, registry)
        first = controller.dispatch(5, context=b"frame")
        egress.acking = True
        clock.now = 1.0
        controller.update(clock.now)  # overdue: redelivered, ACKed inline
        (second,) = {target for target, _seq in egress.sent} - {first}
        assert registry.value(metrics_mod.REDELIVERED_TOTAL,
                              downstream=second, edge="s>d") == 1
        self._assert_settled(controller, registry, egress, clock, 1,
                             redelivered=1)

    def test_keyed_ack_folded_inside_send(self):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        egress = _AckingEgress(clock)
        controller = self._controller(clock, egress, registry)
        controller.set_key_table(KeyRangeTable.bootstrap(["a", "b"]))
        assert controller.dispatch(5, context=b"frame", key_hash=0) == "a"
        assert controller.replay_depth() == 0
        assert controller.export_retention() == []
        self._assert_settled(controller, registry, egress, clock, 1)

    @either_size
    def test_failed_sends_leave_no_residue(self, seqs):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        egress = _FailingEgress(clock, failing={"a", "b"})
        controller = _at_least_once_controller(clock, egress, registry)
        assert _dispatch(controller, seqs, context=b"frame") is None
        # Same books as when nothing was registered up front: no pending
        # entry, nothing counted as sent, one unassigned retention and no
        # eviction on the way there.
        assert controller.tracker.pending_count() == 0
        assert registry.values_by_label(metrics_mod.SENT_TOTAL,
                                        "downstream") == {}
        assert all(stats.sent_count == 0
                   for stats in controller.stats().values())
        assert controller.replay_depth() == 1
        assert registry.values_by_label(metrics_mod.REPLAY_EVICTED_TOTAL,
                                        "reason") == {}
        clock.now = 11.0
        controller.update(clock.now)
        assert controller.tracker.lost_count() == 0

    def test_failed_redelivery_restores_the_earlier_attempt(self):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        egress = _FailingEgress(clock, failing=())
        controller = _at_least_once_controller(clock, egress, registry)
        first = controller.dispatch(5, context=b"frame")
        egress.failing = {"a", "b"}
        clock.now = 1.0
        controller.update(clock.now)  # overdue, but nobody takes it
        assert controller.tracker.pending_downstream(5) == first
        assert controller.replay_depth() == 1
        assert registry.value(metrics_mod.SENT_TOTAL, downstream=first) == 1
        assert registry.values_by_label(metrics_mod.REDELIVERED_TOTAL,
                                        "downstream") == {}


class _HookedEgress(_FailingEgress):
    """Failing egress that also runs ``hooks[seq]`` once, when *seq* is
    sent for the second time (its redelivery), before returning."""

    def __init__(self, clock, failing=()):
        super().__init__(clock, failing)
        self.hooks = {}

    def send(self, downstream_id, seq, context, attempt):
        if [s for _target, s in self.attempts].count(seq) == 1 \
                and seq in self.hooks:
            self.hooks.pop(seq)()
        return super().send(downstream_id, seq, context, attempt)


class TestOneLoopOneRecord:
    """Every wire unit takes one placement loop, and a retained unit's
    record carries its members and its key wherever it goes: queued
    for redelivery, re-parked, evicted, checkpointed."""

    def test_member_ack_while_its_batch_waits_for_redelivery(self):
        clock = FakeClock()
        egress = _HookedEgress(clock)
        controller = _at_least_once_controller(
            clock, egress, metrics_mod.MetricsRegistry())
        controller.dispatch(1, context=b"one")
        controller.dispatch_batch([5, 6, 7], context=b"frame")
        # Both go overdue in one sweep; while the lone tuple is being
        # redelivered, the batch waits its turn — and member 6's ACK
        # lands.  It must still count once the batch is back.
        egress.hooks[1] = lambda: controller.on_ack(6)
        clock.now = 1.0
        controller.update(clock.now)
        assert [seq for _target, seq in egress.sent] == [1, 5, 1, 5]
        controller.on_ack(1)
        controller.on_ack(5)
        assert controller.replay_depth() == 1
        assert controller.replay_holds(7)
        controller.on_ack(7)
        assert controller.replay_depth() == 0
        assert controller.export_retention() == []

    def test_capacity_eviction_leaves_no_member_behind(self):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        controller = LrsController(
            PolicyConfig(policy="RR", seed=0, delivery=DeliveryConfig(
                mode=AT_LEAST_ONCE, replay_capacity=1)),
            clock=clock, egress=_FailingEgress(clock, failing=()),
            registry=registry, name="s>d")
        controller.add_downstream("a")
        controller.dispatch_batch([5, 6, 7], context=b"frame")
        controller.dispatch(9, context=b"nine")  # evicts the batch
        assert registry.values_by_label(metrics_mod.REPLAY_EVICTED_TOTAL,
                                        "reason") == {"capacity": 1}
        assert not any(controller.replay_holds(seq) for seq in (5, 6, 7))
        controller.on_ack(6)
        controller.update(clock.now)
        assert not any(controller.replay_holds(seq) for seq in (5, 6, 7))
        assert controller.export_retention() == [(9, 1, None, b"nine", ())]

    def test_shed_member_keeps_the_batch_until_its_last_member(self):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        egress = _FailingEgress(clock, failing=())
        controller = _at_least_once_controller(clock, egress, registry)
        controller.dispatch_batch([5, 6, 7], context=b"frame")
        assert controller.release_replay(6, EVICT_SHED)
        assert controller.replay_depth() == 1
        assert not controller.replay_holds(6)
        assert controller.replay_holds(5) and controller.replay_holds(7)
        clock.now = 1.0
        controller.update(clock.now)  # redelivered wholesale
        assert [seq for _target, seq in egress.sent] == [5, 5]
        assert [members for *_rest, members
                in controller.export_retention()] == [(5, 7)]
        controller.on_ack(5)
        assert controller.release_replay(7, EVICT_SHED)
        assert controller.replay_depth() == 0
        assert registry.values_by_label(metrics_mod.REPLAY_EVICTED_TOTAL,
                                        "reason") == {EVICT_SHED: 1}

    def test_parked_keyed_tuple_keeps_its_key_through_a_re_park(self):
        clock = FakeClock()
        egress = _FailingEgress(clock, failing=())
        controller = _at_least_once_controller(
            clock, egress, metrics_mod.MetricsRegistry())
        controller.add_downstream("c")
        table = KeyRangeTable.bootstrap(["a", "b", "c"])
        controller.set_key_table(table)
        ((first_range, owner),) = [(key_range, owner) for key_range, owner
                                   in table.ranges() if owner == "a"]
        controller.pause_range(first_range)
        assert controller.dispatch(0, context=b"x", key_hash=5) is None
        clock.now = 1.0
        controller.update(clock.now)  # still paused: parked again
        assert egress.attempts == []
        assert controller.replay_holds(0)
        # Unkeyed traffic keeps the policy rotating over every member.
        assert {controller.dispatch(seq, context=b"y")
                for seq in (1, 2, 3)} == {"a", "b", "c"}
        controller.move_range(first_range, "c", reason="drain")
        controller.resume_range(first_range)
        assert [target for target, seq in egress.sent if seq == 0] == ["c"]
        assert egress.attempts.count(("c", 0)) == 1

    def test_failed_send_to_key_owner_parks_without_fallback(self):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        egress = _FailingEgress(clock, failing={"a"})
        controller = _at_least_once_controller(clock, egress, registry)
        controller.set_key_table(KeyRangeTable.bootstrap(["a", "b"]))
        assert controller.dispatch(0, context=b"x", key_hash=5) is None
        assert egress.attempts == [("a", 0)]
        assert controller.dead_downstreams() == ["a"]
        assert controller.replay_holds(0)
        assert controller.dispatched == 0
        assert registry.values_by_label(metrics_mod.REROUTED_TOTAL,
                                        "downstream") == {}


class TestUpdateCadence:
    def test_maybe_update_respects_interval(self):
        clock = FakeClock()
        controller = LrsController(
            PolicyConfig(policy="RR", seed=0, control_interval=1.0),
            clock=clock, registry=metrics_mod.MetricsRegistry())
        controller.add_downstream("a")
        controller.maybe_update(0.5)
        assert len(controller.decisions) == 0
        controller.maybe_update(1.0)
        assert len(controller.decisions) == 1
        controller.maybe_update(1.5)
        assert len(controller.decisions) == 1
        controller.update(1.5)  # forced round ignores the interval
        assert len(controller.decisions) == 2

    def test_update_emits_round_counter(self):
        registry = metrics_mod.MetricsRegistry()
        controller = LrsController(PolicyConfig(policy="RR", seed=0),
                                   clock=FakeClock(), registry=registry,
                                   name="s>d")
        controller.add_downstream("a")
        controller.update(1.0)
        controller.update(2.0)
        assert registry.value(metrics_mod.POLICY_UPDATES_TOTAL,
                              edge="s>d") == 2

    def test_max_decisions_caps_history(self):
        controller = LrsController(PolicyConfig(policy="RR", seed=0),
                                   clock=FakeClock(),
                                   registry=metrics_mod.MetricsRegistry(),
                                   max_decisions=3)
        controller.add_downstream("a")
        for tick in range(10):
            controller.update(float(tick))
        assert len(controller.decisions) == 3


class TestProbeRefresh:
    """An unselected downstream keeps receiving probes, and its latency
    estimate recovers after a transient slowdown (paper Sec. V-B)."""

    def _run(self, duration, latency_for, config):
        """Mini event loop: 25 fps arrivals, ACKs echo after a per-
        downstream delay; policy rounds at every integer second."""
        clock = FakeClock()
        controller = LrsController(config, clock=clock,
                                   registry=metrics_mod.MetricsRegistry())
        for downstream_id in ("fast1", "fast2", "slow"):
            controller.add_downstream(downstream_id)
        events = []  # (time, order, kind, payload)
        order = 0
        for i in range(int(duration * 25)):
            heapq.heappush(events, (0.04 * i + 0.013, order, "tuple", i))
            order += 1
        for tick in range(1, int(duration) + 1):
            heapq.heappush(events, (float(tick), order, "update", None))
            order += 1
        sent_log = []  # (time, downstream)
        while events:
            now, _, kind, payload = heapq.heappop(events)
            clock.now = now
            if kind == "tuple":
                controller.observe_arrival(now)
                chosen = controller.dispatch(payload)
                assert chosen is not None
                sent_log.append((now, chosen))
                heapq.heappush(events, (now + latency_for(chosen, now),
                                        order, "ack", payload))
                order += 1
            elif kind == "ack":
                controller.on_ack(payload)
            else:
                controller.update(now)
        return controller, sent_log

    def test_unselected_worker_probed_and_estimate_recovers(self):
        recover_at = 10.0

        def latency_for(downstream_id, now):
            if downstream_id == "slow" and now < recover_at:
                return 0.5  # transient slowdown
            return 0.02

        config = PolicyConfig(policy="LRS", seed=11, estimator_window=5,
                              probe_every=2, probe_tuples=6,
                              probe_spacing=1, control_interval=1.0)
        controller, sent_log = self._run(20.0, latency_for, config)

        # The two fast workers cover the 25 fps input on their own, so
        # worker selection excludes the slow one from regular routing.
        settled = [decision for when, decision in controller.decisions
                   if 4.0 <= when]
        assert settled, "no policy rounds recorded"
        assert all("slow" not in decision.selected for decision in settled)

        # ...yet round-robin probing keeps sending it tuples the whole
        # run: its sent count grows well after it left the selected set.
        late_probes = [t for t, downstream in sent_log
                       if downstream == "slow" and t >= recover_at]
        assert late_probes, "excluded downstream no longer probed"

        # The probe ACKs refresh L_slow: after the slowdown clears, the
        # estimate converges back to the true 20 ms even though the
        # worker was never re-selected.
        final = controller.stats()["slow"]
        assert final.latency == pytest.approx(0.02, abs=0.01)
