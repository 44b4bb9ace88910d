"""Tests for the deterministic link-fault injector (ChaosFabric)."""

import time
from types import SimpleNamespace

import pytest

from repro import metrics as metrics_mod
from repro.core.exceptions import RuntimeStateError
from repro.core.faults import (CHAOS_DELAY, CHAOS_DROP, EVERY_LINK,
                               FaultEvent, FaultSchedule)
from repro.core.function_unit import (CollectingSink, IterableSource,
                                      LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.core.tuples import DataTuple
from repro.runtime.app_runner import SwingRuntime
from repro.runtime.chaos import ChaosFabric, ChurnHarness, LinkChaos
from repro.runtime.channels import ChannelClosed
from repro.runtime.fabric import InProcFabric
from repro.runtime.messages import DATA, batch_message, data_message
from repro.runtime.serialization import (BATCH_MAGIC, decode_batch,
                                         encode_batch, encode_tuple)


def make_fabric(seed=0, default=None):
    registry = metrics_mod.MetricsRegistry()
    fabric = ChaosFabric(InProcFabric(), seed=seed, default=default,
                         registry=registry)
    inbox = fabric.register("B")
    fabric.register("A")
    return fabric, inbox, registry


def send_n(fabric, count, sender="A", target="B"):
    for seq in range(count):
        fabric.send(sender, target,
                    data_message("detect", b"payload", seq, 0.0))


def drain(inbox):
    messages = []
    while len(inbox):
        messages.append(inbox.get(timeout=0.1)[1])
    return messages


class TestLinkChaos:
    @pytest.mark.parametrize("kwargs", [
        {"drop": -0.1}, {"drop": 1.5}, {"duplicate": 2.0},
        {"corrupt": -1.0}, {"delay": 1.01}, {"delay_seconds": -0.1},
    ])
    def test_bad_probabilities_rejected(self, kwargs):
        with pytest.raises(RuntimeStateError):
            LinkChaos(**kwargs)

    def test_active_flag(self):
        assert not LinkChaos().active
        assert not LinkChaos(delay_seconds=9.0).active
        assert LinkChaos(drop=0.1).active
        assert LinkChaos(duplicate=0.1).active


class TestPassThrough:
    def test_quiet_links_deliver_untouched(self):
        fabric, inbox, _registry = make_fabric()
        send_n(fabric, 5)
        received = drain(inbox)
        assert [m.payload["seq"] for m in received] == [0, 1, 2, 3, 4]
        assert fabric.injected == {}

    def test_unknown_target_still_raises(self):
        fabric, _inbox, _registry = make_fabric()
        with pytest.raises(ChannelClosed):
            fabric.send("A", "nobody",
                        data_message("detect", b"x", 0, 0.0))


class TestDrop:
    def test_drops_are_counted_not_raised(self):
        fabric, inbox, registry = make_fabric(
            seed=3, default=LinkChaos(drop=0.5))
        send_n(fabric, 100)
        received = drain(inbox)
        dropped = fabric.injected.get(("chaos_drop", "A>B"), 0)
        assert dropped > 0
        assert len(received) + dropped == 100
        assert registry.value(metrics_mod.DROPPED_TOTAL,
                              reason="chaos_drop", link="A>B") == dropped

    def test_certain_drop_loses_everything(self):
        fabric, inbox, _registry = make_fabric(default=LinkChaos(drop=1.0))
        send_n(fabric, 10)
        assert drain(inbox) == []
        assert fabric.injected[("chaos_drop", "A>B")] == 10


class TestDuplicate:
    def test_duplicates_arrive_twice(self):
        fabric, inbox, _registry = make_fabric(
            default=LinkChaos(duplicate=1.0))
        send_n(fabric, 4)
        received = drain(inbox)
        assert len(received) == 8
        assert fabric.injected[("chaos_duplicate", "A>B")] == 4


class TestCorrupt:
    def test_corrupt_delivers_mangled_or_counts_loss(self):
        fabric, inbox, _registry = make_fabric(
            seed=7, default=LinkChaos(corrupt=1.0))
        send_n(fabric, 50)
        received = drain(inbox)
        lost = fabric.injected.get(("chaos_corrupt_lost", "A>B"), 0) \
            + fabric.injected.get(("chaos_corrupt", "A>B"), 0)
        # Every send was touched: either the mangled frame decoded (and
        # was delivered) or the codec rejected it (counted loss).
        assert len(received) <= 50
        assert lost >= 50 - len(received)
        for message in received:
            assert message.kind  # decodable messages only

    def test_rejected_corruption_counts_as_drop_metric(self):
        fabric, inbox, registry = make_fabric(
            seed=11, default=LinkChaos(corrupt=1.0))
        send_n(fabric, 50)
        delivered = len(drain(inbox))
        lost = registry.value(metrics_mod.DROPPED_TOTAL,
                              reason="chaos_corrupt", link="A>B")
        assert delivered + lost == 50


class TestCorruptBatch:
    """Corruption of batched (0x80-magic) frames must never hand a
    partially-decodable batch downstream: the inner frame is validated
    at the fabric and a mangled batch is dropped under chaos_corrupt."""

    @staticmethod
    def _batch_message(count=8):
        payloads = [encode_tuple(DataTuple(values={"x": seq}, seq=seq,
                                           created_at=0.0))
                    for seq in range(count)]
        frame = encode_batch(payloads)
        assert frame[0] == BATCH_MAGIC
        return batch_message("detect", frame, list(range(count)), 0.0)

    def test_surviving_batches_always_decode_fully(self):
        fabric, inbox, registry = make_fabric(
            seed=5, default=LinkChaos(corrupt=1.0))
        for _ in range(100):
            fabric.send("A", "B", self._batch_message())
        received = drain(inbox)
        lost = registry.value(metrics_mod.DROPPED_TOTAL,
                              reason="chaos_corrupt", link="A>B")
        assert len(received) + lost == 100
        assert lost > 0  # 1-bit flips do land inside the nested frame
        for message in received:
            # Whatever made it through must decode as one whole batch —
            # never raise, never truncate.
            batch = decode_batch(message.payload["batch"],
                                 zero_copy=False)
            assert len(batch) == 8

    def test_corrupt_batch_loss_is_loud_per_reason(self):
        fabric, _inbox, registry = make_fabric(
            seed=9, default=LinkChaos(corrupt=1.0))
        for _ in range(100):
            fabric.send("A", "B", self._batch_message())
        counted = registry.value(metrics_mod.DROPPED_TOTAL,
                                 reason="chaos_corrupt", link="A>B")
        injected = fabric.injected.get(("chaos_corrupt", "A>B"), 0)
        # Injection bookkeeping covers both outcomes (delivered-mangled
        # and dropped); the dropped share is exactly the counter.
        assert injected >= counted > 0

    def test_worker_counts_poison_batch_that_slips_through(self):
        # Belt and suspenders: if a corrupted batch ever reaches a
        # worker (e.g. corruption introduced beyond the fabric), the
        # decode failure is a counted drop, not a silent return.
        registry = metrics_mod.MetricsRegistry()
        graph = (GraphBuilder("poison-app")
                 .source("src", lambda: IterableSource([]))
                 .unit("detect", lambda: LambdaUnit(lambda value: value))
                 .sink("snk", CollectingSink)
                 .chain("src", "detect", "snk")
                 .build())
        runtime = SwingRuntime(graph, worker_ids=["B"], source_rate=1.0,
                               registry=registry)
        runtime.start()
        try:
            poison = self._batch_message()
            poison.payload["batch"] = poison.payload["batch"][:-3]
            runtime.fabric.send("A", "B", poison)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if registry.value(metrics_mod.DROPPED_TOTAL,
                                  reason="corrupt_batch",
                                  link="?>B"):
                    break
                time.sleep(0.02)
            assert registry.value(metrics_mod.DROPPED_TOTAL,
                                  reason="corrupt_batch",
                                  link="?>B") == 1
        finally:
            runtime.stop()


class TestDelay:
    def test_delayed_frames_arrive_after_the_hold(self):
        fabric, inbox, _registry = make_fabric(
            default=LinkChaos(delay=1.0, delay_seconds=0.05))
        send_n(fabric, 3)
        assert len(inbox) == 0  # held, not delivered inline
        deadline = time.monotonic() + 2.0
        while len(inbox) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(drain(inbox)) == 3
        assert fabric.injected[("chaos_delay", "A>B")] == 3

    def test_delayed_frame_to_a_vanished_target_is_counted(self):
        fabric, _inbox, registry = make_fabric()
        fabric.set_link("A", "B", LinkChaos(delay=1.0, delay_seconds=0.05))
        send_n(fabric, 1)
        fabric.unregister("B")  # gone while the frame is held
        deadline = time.monotonic() + 2.0
        while (("chaos_delay_lost", "A>B") not in fabric.injected
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert registry.values_by_label(metrics_mod.DROPPED_TOTAL,
                                        "reason") == {"chaos_delay_lost": 1}
        assert registry.value(metrics_mod.DROPPED_TOTAL,
                              reason="chaos_delay_lost", link="A>B") == 1


class TestPartition:
    def test_partition_raises_and_counts(self):
        fabric, inbox, registry = make_fabric()
        fabric.partition("A", "B")
        with pytest.raises(ChannelClosed):
            fabric.send("A", "B", data_message("detect", b"x", 0, 0.0))
        with pytest.raises(ChannelClosed):  # symmetric by default
            fabric.send("B", "A", data_message("detect", b"x", 0, 0.0))
        assert registry.value(metrics_mod.DROPPED_TOTAL,
                              reason="chaos_partition", link="A>B") == 1
        assert fabric.partitioned_links() == [("A", "B"), ("B", "A")]

    def test_heal_restores_delivery(self):
        fabric, inbox, _registry = make_fabric()
        fabric.partition("A", "B")
        fabric.heal("A", "B")
        send_n(fabric, 2)
        assert len(drain(inbox)) == 2
        assert fabric.partitioned_links() == []

    def test_asymmetric_partition(self):
        fabric, inbox, _registry = make_fabric()
        fabric.partition("A", "B", symmetric=False)
        fabric.send("B", "A", data_message("detect", b"x", 0, 0.0))
        with pytest.raises(ChannelClosed):
            fabric.send("A", "B", data_message("detect", b"x", 0, 0.0))


class TestDeterminism:
    def story(self, seed):
        fabric, inbox, _registry = make_fabric(
            seed=seed, default=LinkChaos(drop=0.3, duplicate=0.2,
                                         corrupt=0.1))
        send_n(fabric, 200)
        received = [m.payload.get("seq") for m in drain(inbox)
                    if m.kind == DATA]
        return received, dict(fabric.injected)

    def test_same_seed_same_fault_story(self):
        assert self.story(42) == self.story(42)

    def test_different_seed_different_story(self):
        assert self.story(42) != self.story(43)

    def test_per_link_isolation(self):
        # Traffic on an unrelated link must not perturb A>B's story.
        solo, _ = self.story(42)
        fabric, inbox, _registry = make_fabric(
            seed=42, default=LinkChaos(drop=0.3, duplicate=0.2,
                                       corrupt=0.1))
        noisy = fabric.register("C")
        for seq in range(200):
            fabric.send("A", "C", data_message("other", b"n", seq, 0.0))
            fabric.send("A", "B", data_message("detect", b"payload",
                                               seq, 0.0))
        interleaved = [m.payload.get("seq") for m in drain(inbox)
                       if m.kind == DATA]
        assert interleaved == solo


class TestPerLinkOverride:
    def test_set_link_beats_default(self):
        fabric, inbox, _registry = make_fabric(default=LinkChaos(drop=1.0))
        fabric.set_link("A", "B", LinkChaos())  # this link is clean
        send_n(fabric, 5)
        assert len(drain(inbox)) == 5
        assert fabric.injected == {}


class TestHarnessWindows:
    """ChurnHarness imposes a schedule's chaos windows on the fabric and
    lifts them when they close — and refuses, loudly and before the run,
    a window it could not impose."""

    @staticmethod
    def window(action, target="A>B", value=1.0):
        return FaultSchedule(events=(
            FaultEvent(0.0, action, target, duration=0.05, value=value),))

    def test_window_is_imposed_then_lifted(self):
        fabric, inbox, _registry = make_fabric()
        runtime = SimpleNamespace(fabric=fabric)
        schedule = self.window(CHAOS_DROP)
        ChurnHarness(runtime, schedule).run(deadline=0.01)  # start only
        send_n(fabric, 5)
        assert drain(inbox) == []
        harness = ChurnHarness(runtime, schedule)
        harness.run()
        send_n(fabric, 5)
        assert len(drain(inbox)) == 5
        assert [event.action for event, _ in harness.applied] == [
            CHAOS_DROP, CHAOS_DROP]  # imposed, lifted

    def test_delay_is_compressed_with_the_timeline(self):
        fabric, inbox, _registry = make_fabric()
        harness = ChurnHarness(SimpleNamespace(fabric=fabric),
                               self.window(CHAOS_DELAY, value=0.5),
                               time_scale=0.1)
        harness.run(deadline=0.001)
        send_n(fabric, 1)
        assert len(inbox) == 0  # held for 0.5 s x 0.1
        deadline = time.monotonic() + 2.0
        while len(inbox) == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(drain(inbox)) == 1
        fabric.close()

    def test_window_needs_a_chaos_fabric(self):
        with pytest.raises(RuntimeStateError, match="ChaosFabric"):
            ChurnHarness(SimpleNamespace(fabric=InProcFabric()),
                         self.window(CHAOS_DROP))

    def test_window_needs_an_explicit_link(self):
        fabric, _inbox, _registry = make_fabric()
        with pytest.raises(RuntimeStateError, match="sender>target"):
            ChurnHarness(SimpleNamespace(fabric=fabric),
                         self.window(CHAOS_DROP, target=EVERY_LINK))
