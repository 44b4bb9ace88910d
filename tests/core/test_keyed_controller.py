"""Keyed routing inside the shared LrsController: ownership, parking,
pause/resume, split/move accounting — the behavior both substrates share."""

from repro import metrics as metrics_mod
from repro.core.controller import LrsController, PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.keyed import (KEY_SPACE, KeyedConfig, KeyRange,
                              KeyRangeTable)


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now


class _RecordingEgress:
    def __init__(self, clock):
        self.clock = clock
        self.sent = []

    def send(self, downstream_id, seq, context, attempt):
        self.sent.append((downstream_id, seq))
        return self.clock()


def _keyed_controller(clock, egress, registry, at_least_once=True,
                      split_enabled=False, owners=("a", "b")):
    delivery = (DeliveryConfig(mode=AT_LEAST_ONCE, replay_capacity=64)
                if at_least_once else None)
    controller = LrsController(
        PolicyConfig(policy="RR", seed=0, delivery=delivery,
                     keyed=KeyedConfig(key_count=8,
                                       split_enabled=split_enabled,
                                       hot_ratio=1.5,
                                       min_split_interval=0.0)),
        clock=clock, egress=egress, registry=registry, name="u>v")
    for owner in owners:
        controller.add_downstream(owner)
    controller.set_key_table(KeyRangeTable.bootstrap(owners))
    return controller


HALF = KEY_SPACE // 2


class TestKeyedDispatch:
    def test_owner_overrides_policy(self):
        clock = FakeClock()
        egress = _RecordingEgress(clock)
        controller = _keyed_controller(clock, egress,
                                       metrics_mod.MetricsRegistry())
        # every hash in [0, HALF) goes to "a" regardless of RR rotation
        for seq, key_hash in enumerate([0, 1, HALF - 1]):
            assert controller.dispatch(seq, context=b"x",
                                       key_hash=key_hash) == "a"
        assert controller.dispatch(3, context=b"x", key_hash=HALF) == "b"
        assert [owner for owner, _ in egress.sent] == ["a", "a", "a", "b"]

    def test_unkeyed_tuples_keep_policy_routing(self):
        clock = FakeClock()
        controller = _keyed_controller(clock, _RecordingEgress(clock),
                                       metrics_mod.MetricsRegistry())
        chosen = {controller.dispatch(seq, context=b"x") for seq in range(4)}
        assert chosen == {"a", "b"}  # RR still rotates for keyless tuples

    def test_paused_range_parks_then_resume_redelivers(self):
        clock = FakeClock()
        egress = _RecordingEgress(clock)
        controller = _keyed_controller(clock, egress,
                                       metrics_mod.MetricsRegistry())
        a_range = KeyRange(0, HALF)
        controller.pause_range(a_range)
        assert controller.dispatch(0, context=b"x", key_hash=5) is None
        assert egress.sent == []  # parked, not sent anywhere
        controller.move_range(a_range, "b", reason="drain")
        controller.resume_range(a_range)
        # the resume sweep re-placed the parked tuple on the new owner
        assert ("b", 0) in egress.sent

    def test_best_effort_paused_range_drops(self):
        clock = FakeClock()
        egress = _RecordingEgress(clock)
        controller = _keyed_controller(clock, egress,
                                       metrics_mod.MetricsRegistry(),
                                       at_least_once=False)
        controller.pause_range(KeyRange(0, HALF))
        assert controller.dispatch(0, context=b"x", key_hash=5) is None
        controller.resume_range(KeyRange(0, HALF))
        assert egress.sent == []  # nothing retained to redeliver

    def test_dead_owner_parks_until_move(self):
        clock = FakeClock()
        egress = _RecordingEgress(clock)
        controller = _keyed_controller(clock, egress,
                                       metrics_mod.MetricsRegistry())
        controller.mark_dead("a")
        assert controller.dispatch(0, context=b"x", key_hash=5) is None
        controller.move_range(KeyRange(0, HALF), "b", reason="crash")
        controller.resume_range(KeyRange(0, HALF))
        assert ("b", 0) in egress.sent


class TestRangeLifecycle:
    def test_move_range_counts_reason(self):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        controller = _keyed_controller(clock, _RecordingEgress(clock),
                                       registry)
        controller.move_range(KeyRange(0, HALF), "b", reason="hot_split")
        assert registry.value(metrics_mod.KEY_RANGE_MOVES_TOTAL,
                              reason="hot_split", edge="u>v") == 1

    def test_split_range_halves_in_table(self):
        clock = FakeClock()
        controller = _keyed_controller(clock, _RecordingEgress(clock),
                                       metrics_mod.MetricsRegistry())
        left, right = controller.split_range(KeyRange(0, HALF))
        assert (left, right) == (KeyRange(0, HALF // 2),
                                 KeyRange(HALF // 2, HALF))
        assert controller.keyed_ranges_of("a") == (left, right)

    def test_hot_range_detected_and_counted(self):
        clock = FakeClock()
        registry = metrics_mod.MetricsRegistry()
        controller = _keyed_controller(clock, _RecordingEgress(clock),
                                       registry, split_enabled=True)
        # all traffic into a's half: far above its fair share of 2 owners
        for seq in range(60):
            clock.now = seq * 0.01
            controller.dispatch(seq, context=b"x", key_hash=seq % HALF)
        found = controller.hot_range()
        assert found is not None and found[0] == KeyRange(0, HALF)
        assert registry.value(metrics_mod.HOT_KEYS_DETECTED_TOTAL,
                              edge="u>v") == 1

    def test_no_detector_without_split_enabled(self):
        clock = FakeClock()
        controller = _keyed_controller(clock, _RecordingEgress(clock),
                                       metrics_mod.MetricsRegistry(),
                                       split_enabled=False)
        for seq in range(60):
            clock.now = seq * 0.01
            controller.dispatch(seq, context=b"x", key_hash=seq % HALF)
        assert controller.hot_range() is None
