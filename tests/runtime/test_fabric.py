"""Tests for message fabrics."""

import sys
import threading
import time

import pytest

from repro import metrics as metrics_mod
from repro.core.exceptions import RuntimeStateError
from repro.core.function_unit import (CollectingSink, FunctionUnit,
                                      IterableSource)
from repro.core.graph import GraphBuilder
from repro.core.overload import BLOCK, DROP_NEWEST, DROP_OLDEST, OverloadConfig
from repro.core.tuples import DataTuple
from repro.runtime import messages
from repro.runtime.channels import ChannelClosed
from repro.runtime.fabric import InProcFabric, Mailbox, TcpFabric
from repro.runtime.serialization import encode_tuple
from repro.runtime.worker import WorkerRuntime


def data(seq):
    return messages.data_message("u", b"x", seq, 0.0)


def bounded_mailbox(capacity=2, policy=DROP_OLDEST):
    registry = metrics_mod.MetricsRegistry()
    overload = OverloadConfig(queue_capacity=capacity, drop_policy=policy)
    return Mailbox("W", overload=overload, registry=registry), registry


class TestBoundedMailbox:
    def test_unbounded_by_default(self):
        mailbox = Mailbox("W", registry=metrics_mod.MetricsRegistry())
        for seq in range(100):
            assert mailbox.put("A", data(seq))
        assert len(mailbox) == 100
        assert mailbox.shed_count == 0

    def test_drop_oldest_evicts_head(self):
        mailbox, registry = bounded_mailbox(capacity=2, policy=DROP_OLDEST)
        for seq in range(5):
            assert mailbox.put("A", data(seq)) or seq >= 2
        assert len(mailbox) == 2
        survivors = [mailbox.get(timeout=0.1)[1].payload["seq"]
                     for _ in range(2)]
        assert survivors == [3, 4]
        assert mailbox.shed_count == 3
        assert registry.value(metrics_mod.SHED_TOTAL, reason="queue_full",
                              queue="mailbox:W") == 3

    def test_drop_newest_rejects_arrival(self):
        mailbox, _registry = bounded_mailbox(capacity=2, policy=DROP_NEWEST)
        assert mailbox.put("A", data(0))
        assert mailbox.put("A", data(1))
        assert not mailbox.put("A", data(2))
        survivors = [mailbox.get(timeout=0.1)[1].payload["seq"]
                     for _ in range(2)]
        assert survivors == [0, 1]
        assert mailbox.shed_count == 1

    def test_control_messages_never_shed(self):
        mailbox, _registry = bounded_mailbox(capacity=1, policy=DROP_NEWEST)
        assert mailbox.put("A", data(0))
        # Control traffic is admitted over capacity, unconditionally.
        assert mailbox.put("A", messages.start_message())
        assert mailbox.put("A", messages.stop_message())
        assert len(mailbox) == 3
        assert mailbox.shed_count == 0

    def test_drop_oldest_spares_control_messages(self):
        mailbox, _registry = bounded_mailbox(capacity=2, policy=DROP_OLDEST)
        assert mailbox.put("A", messages.start_message())
        assert mailbox.put("A", data(0))
        assert mailbox.put("A", data(1))  # START takes no slot: no eviction
        assert mailbox.shed_count == 0
        assert mailbox.put("A", data(2))  # evicts DATA 0, never START
        queued = [(message.kind, message.payload.get("seq"))
                  for _sender, message in mailbox.items()]
        assert queued == [(messages.START, None), (messages.DATA, 1),
                          (messages.DATA, 2)]
        kinds = [mailbox.get(timeout=0.1)[1].kind for _ in range(2)]
        assert kinds == [messages.START, messages.DATA]

    def test_capacity_counts_tuples_not_messages(self):
        # OverloadConfig.queue_capacity is "in tuples": a BATCH weighs its
        # seqs and control messages weigh nothing.  (The single-tenant
        # branch used to count messages: 100 frames / 6,400 tuples queued,
        # nothing shed.)
        mailbox, registry = bounded_mailbox(capacity=100, policy=DROP_OLDEST)
        for index in range(100):
            seqs = list(range(index * 64, (index + 1) * 64))
            assert mailbox.put("A", messages.batch_message(
                "u", b"frame", seqs, 0.0))
        assert len(mailbox) == 2
        assert mailbox.tenant_depths == {"": 128}
        assert mailbox.shed_count == 98 * 64 == 6272
        assert registry.value(metrics_mod.SHED_TOTAL, reason="queue_full",
                              queue="mailbox:W") == 6272
        # Control traffic into the full queue: admitted, evicting nothing.
        assert mailbox.put("A", messages.start_message())
        assert mailbox.put("A", messages.ack_message(1, 0.0, 0.0))
        assert len(mailbox) == 4
        assert mailbox.shed_count == 6272
        # len / max_depth / the gauge count messages of every kind.
        assert mailbox.max_depth == 4
        assert registry.gauge_value(metrics_mod.QUEUE_DEPTH,
                                    queue="mailbox:W") == 4

    def test_block_policy_times_out_and_sheds(self):
        mailbox, registry = bounded_mailbox(capacity=1, policy=BLOCK)
        assert mailbox.put("A", data(0))
        started = time.monotonic()
        assert not mailbox.put("A", data(1), timeout=0.05)
        assert time.monotonic() - started >= 0.05
        assert registry.value(metrics_mod.SHED_TOTAL, reason="queue_full",
                              queue="mailbox:W") == 1

    def test_block_policy_unblocked_by_consumer(self):
        mailbox, _registry = bounded_mailbox(capacity=1, policy=BLOCK)
        assert mailbox.put("A", data(0))
        outcome = {}

        def producer():
            outcome["admitted"] = mailbox.put("A", data(1), timeout=2.0)

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        assert mailbox.get(timeout=1.0)[1].payload["seq"] == 0
        thread.join(timeout=2.0)
        assert outcome["admitted"]
        assert mailbox.get(timeout=1.0)[1].payload["seq"] == 1

    def test_depth_gauge_and_high_water_mark(self):
        mailbox, registry = bounded_mailbox(capacity=4)
        for seq in range(3):
            mailbox.put("A", data(seq))
        assert registry.gauge_value(metrics_mod.QUEUE_DEPTH,
                                    queue="mailbox:W") == 3
        mailbox.get(timeout=0.1)
        assert registry.gauge_value(metrics_mod.QUEUE_DEPTH,
                                    queue="mailbox:W") == 2
        assert mailbox.max_depth == 3

    def test_put_many_under_block_policy_wakes_the_consumer(self):
        # The burst is larger than the queue: the producer must announce
        # what it has queued before it waits for room, or nobody drains.
        mailbox, _registry = bounded_mailbox(capacity=2, policy=BLOCK)
        outcome = {}
        thread = threading.Thread(target=lambda: outcome.update(
            admitted=mailbox.put_many("A", [data(seq) for seq in range(6)],
                                      timeout=2.0)))
        thread.start()
        seqs = [mailbox.get(timeout=2.0)[1].payload["seq"] for _ in range(6)]
        thread.join(timeout=2.0)
        assert seqs == list(range(6))
        assert outcome["admitted"] == 6
        assert mailbox.shed_count == 0

    def test_fabric_passes_overload_to_mailboxes(self):
        registry = metrics_mod.MetricsRegistry()
        overload = OverloadConfig(queue_capacity=2, drop_policy=DROP_NEWEST)
        fabric = InProcFabric(overload=overload, registry=registry)
        fabric.register("A")
        fabric.register("B")
        for seq in range(5):
            fabric.send("A", "B", data(seq))
        assert registry.value(metrics_mod.SHED_TOTAL, reason="queue_full",
                              queue="mailbox:B") == 3


def _burst():
    """Data from two tenants with control traffic in between."""
    burst = []
    for seq in range(8):
        burst.append(messages.data_message(
            "u", b"x", seq, 0.0, tenant="t0" if seq % 4 else "t1"))
        if seq in (2, 5):
            burst.append(messages.start_message())
    burst.append(messages.batch_message("u", b"frame", [20, 21, 22], 0.0,
                                        tenant="t1"))
    return burst


def _mailbox_for(mode):
    registry = metrics_mod.MetricsRegistry()
    if mode == "unbounded":
        return Mailbox("W", registry=registry), registry
    policy = DROP_OLDEST if mode == "fair_share" else mode
    mailbox = Mailbox("W", registry=registry, overload=OverloadConfig(
        queue_capacity=4, drop_policy=policy))
    if mode == "fair_share":
        mailbox.set_tenant_budgets({"t0": 3, "t1": 1})
    return mailbox, registry


def _mailbox_state(mailbox, registry):
    queued = [(sender, message.kind,
               message.payload.get("seq", message.payload.get("seqs")))
              for sender, message in mailbox.items()]
    return {
        "queue": queued,
        "shed_count": mailbox.shed_count,
        "tenant_depths": dict(mailbox.tenant_depths),
        "max_depth": mailbox.max_depth,
        "gauge": registry.gauge_value(metrics_mod.QUEUE_DEPTH,
                                      queue="mailbox:W"),
        "shed_by_tenant": registry.values_by_label(metrics_mod.SHED_TOTAL,
                                                   "tenant"),
    }


class TestPutMany:
    @pytest.mark.parametrize(
        "mode", ["unbounded", DROP_OLDEST, DROP_NEWEST, BLOCK, "fair_share"])
    def test_put_many_equals_n_puts(self, mode):
        one_by_one, registry_a = _mailbox_for(mode)
        admitted = sum(one_by_one.put("A", message, timeout=0.01)
                       for message in _burst())
        at_once, registry_b = _mailbox_for(mode)
        assert at_once.put_many("A", _burst(), timeout=0.01) == admitted
        assert _mailbox_state(at_once, registry_b) \
            == _mailbox_state(one_by_one, registry_a)
        # Control messages are never shed, whatever the policy.
        kinds = [message.kind for _sender, message in at_once.items()]
        assert kinds.count(messages.START) == 2
        if mode != "unbounded":
            assert at_once.shed_count > 0

    def test_one_wake_up_delivers_the_whole_burst(self):
        mailbox = Mailbox("W", registry=metrics_mod.MetricsRegistry())
        assert mailbox.put_many("A", []) == 0
        assert mailbox.put_many("A", [data(seq) for seq in range(3)]) == 3
        assert [mailbox.get(timeout=0.1)[1].payload["seq"]
                for _ in range(3)] == [0, 1, 2]


class _Gated(FunctionUnit):
    """Forwards each tuple; the first waits for *release* after setting
    *entered*."""

    def __init__(self, entered, release) -> None:
        super().__init__()
        self._entered, self._release = entered, release

    def process_data(self, data) -> None:
        if not self._entered.is_set():
            self._entered.set()
            self._release.wait(5.0)
        self.send(data.derive(dict(data.values)))


class TestMailboxBursts:
    """An unbounded mailbox hands its consumer everything queued in one
    take; the taken messages are served without locking but still count
    as queued until they are handed out."""

    def test_fifo_across_takes_while_producers_keep_putting(self):
        mailbox = Mailbox("W", registry=metrics_mod.MetricsRegistry())
        senders, total = ("A", "B", "C"), 2000

        def produce(sender):
            seq = 0
            while seq < total:
                size = min(1 + seq % 7, total - seq)
                mailbox.put_many(sender, [data(s) for s in
                                          range(seq, seq + size)])
                seq += size

        producers = [threading.Thread(target=produce, args=(sender,),
                                      daemon=True) for sender in senders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-take often
        try:
            for producer in producers:
                producer.start()
            served = {sender: [] for sender in senders}
            for _ in range(len(senders) * total):
                sender, message = mailbox.get(timeout=5.0)
                served[sender].append(message.payload["seq"])
        finally:
            sys.setswitchinterval(interval)
        for producer in producers:
            producer.join(timeout=5.0)
            assert not producer.is_alive()
        assert served == {sender: list(range(total)) for sender in senders}
        assert len(mailbox) == 0

    def test_a_taken_burst_counts_until_served(self):
        registry = metrics_mod.MetricsRegistry()
        mailbox = Mailbox("W", registry=registry)
        mailbox.put_many("A", [data(seq) for seq in range(3)])
        assert mailbox.get(timeout=0.1)[1].payload["seq"] == 0
        # All three were taken at once: the queue under the mailbox is
        # empty, yet two messages are still to serve.
        assert mailbox.tenant_depths == {}
        assert len(mailbox) == 2
        assert registry.gauge_value(metrics_mod.QUEUE_DEPTH,
                                    queue="mailbox:W") == 2
        assert [m.payload["seq"] for _s, m in mailbox.items()] == [1, 2]
        mailbox.put("A", data(3))
        assert len(mailbox) == 3 and mailbox.max_depth == 3
        assert [mailbox.get(timeout=0.1)[1].payload["seq"]
                for _ in range(3)] == [1, 2, 3]
        assert len(mailbox) == 0
        assert registry.gauge_value(metrics_mod.QUEUE_DEPTH,
                                    queue="mailbox:W") == 0

    def test_leave_waits_out_a_half_served_burst(self):
        entered, release = threading.Event(), threading.Event()
        graph = (GraphBuilder("burst")
                 .source("src", lambda: IterableSource([]))
                 .unit("f", lambda: _Gated(entered, release))
                 .sink("snk", CollectingSink)
                 .chain("src", "f", "snk")
                 .build())
        fabric = InProcFabric()
        peer = fabric.register("A")
        worker = WorkerRuntime("B", fabric, graph, policy="RR")
        fabric.send("A", "B", messages.deploy_message(
            "B", ["f"], {"f>snk": ["snk@A"]}))
        for seq in range(4):
            frame = messages.data_message(
                "f", encode_tuple(DataTuple(values={"x": seq}, seq=seq)),
                seq, time.monotonic())
            frame.payload["edge"] = "src>f"
            fabric.send("A", "B", frame)
        worker.start()
        try:
            assert entered.wait(5.0)
            # The loop took all four in one go and is inside the first.
            assert worker.mailbox.tenant_depths == {}
            assert len(worker.mailbox) == 3
            assert worker.busy()
            leaver = threading.Thread(
                target=worker.leave, args=("A",),
                kwargs={"quiet": 0.02, "timeout": 5.0}, daemon=True)
            leaver.start()
            leaver.join(timeout=0.2)
            assert leaver.is_alive()
            release.set()
            leaver.join(timeout=5.0)
            assert not leaver.is_alive()
            assert worker.processed_count == 4
            received = []
            while len(peer):
                received.append(peer.get(timeout=1.0)[1])
            assert sorted(m.payload["seq"] for m in received
                          if m.kind == messages.ACK) == [0, 1, 2, 3]
        finally:
            release.set()
            worker.stop()

    def test_wake_ends_the_next_empty_wait_while_a_burst_is_pending(self):
        mailbox = Mailbox("W", registry=metrics_mod.MetricsRegistry())
        mailbox.put_many("A", [data(seq) for seq in range(3)])
        assert mailbox.get(timeout=0.1)[1].payload["seq"] == 0
        mailbox.wake()
        # The burst is served first, without waiting ...
        assert [mailbox.get(timeout=5.0)[1].payload["seq"]
                for _ in range(2)] == [1, 2]
        # ... then the wake ends the first empty wait at once ...
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            mailbox.get(timeout=5.0)
        assert time.monotonic() - started < 1.0
        # ... and only that one.
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            mailbox.get(timeout=0.05)
        assert time.monotonic() - started >= 0.04

    def test_a_bounded_mailbox_hands_over_one_message_per_take(self):
        mailbox, registry = bounded_mailbox(capacity=3, policy=DROP_OLDEST)
        for seq in range(3):
            assert mailbox.put("A", data(seq))
        assert mailbox.get(timeout=0.1)[1].payload["seq"] == 0
        # The other two are still queued under the bound: one slot is
        # free, not three.
        assert mailbox.tenant_depths == {"": 2}
        assert len(mailbox) == 2
        assert mailbox.put("A", data(3))
        assert mailbox.shed_count == 0
        assert mailbox.put("A", data(4))
        assert mailbox.shed_count == 1
        assert [mailbox.get(timeout=0.1)[1].payload["seq"]
                for _ in range(3)] == [2, 3, 4]


class TestInProcFabric:
    def test_send_and_receive(self):
        fabric = InProcFabric()
        fabric.register("A")
        mailbox_b = fabric.register("B")
        fabric.send("A", "B", messages.start_message())
        sender, message = mailbox_b.get(timeout=1.0)
        assert sender == "A"
        assert message.kind == messages.START

    def test_double_register_rejected(self):
        fabric = InProcFabric()
        fabric.register("A")
        with pytest.raises(RuntimeStateError):
            fabric.register("A")

    def test_send_to_unknown_raises(self):
        fabric = InProcFabric()
        fabric.register("A")
        with pytest.raises(ChannelClosed):
            fabric.send("A", "ghost", messages.start_message())

    def test_unregister(self):
        fabric = InProcFabric()
        fabric.register("A")
        fabric.register("B")
        fabric.unregister("B")
        with pytest.raises(ChannelClosed):
            fabric.send("A", "B", messages.start_message())

    def test_endpoint_ids(self):
        fabric = InProcFabric()
        fabric.register("B")
        fabric.register("A")
        assert fabric.endpoint_ids() == ["A", "B"]

    def test_mailbox_timeout(self):
        fabric = InProcFabric()
        mailbox = fabric.register("A")
        with pytest.raises(TimeoutError):
            mailbox.get(timeout=0.01)


class TestTcpFabric:
    def test_mesh_roundtrip(self):
        alpha = TcpFabric("alpha")
        beta = TcpFabric("beta")
        try:
            alpha.learn("beta", beta.address)
            beta.learn("alpha", alpha.address)
            mailbox_beta = beta.register("beta")
            alpha.send("alpha", "beta", messages.start_message())
            sender, message = mailbox_beta.get(timeout=3.0)
            assert sender == "alpha"
            assert message.kind == messages.START
        finally:
            alpha.close()
            beta.close()

    def test_bidirectional_after_learning(self):
        alpha = TcpFabric("alpha")
        beta = TcpFabric("beta")
        try:
            alpha.learn("beta", beta.address)
            beta.learn("alpha", alpha.address)
            mailbox_alpha = alpha.register("alpha")
            beta.send("beta", "alpha",
                      messages.join_message("beta"))
            sender, message = mailbox_alpha.get(timeout=3.0)
            assert sender == "beta"
            assert message.payload["worker_id"] == "beta"
        finally:
            alpha.close()
            beta.close()

    def test_unknown_target_raises(self):
        alpha = TcpFabric("alpha")
        try:
            from repro.core.exceptions import DiscoveryError
            with pytest.raises(DiscoveryError):
                alpha.send("alpha", "nowhere", messages.start_message())
        finally:
            alpha.close()

    def test_single_endpoint_per_fabric(self):
        alpha = TcpFabric("alpha")
        try:
            with pytest.raises(RuntimeStateError):
                alpha.register("other")
        finally:
            alpha.close()

    def test_reader_threads_pruned_after_disconnect(self):
        # Regression: one thread record per connection ever accepted used
        # to accumulate forever on a long-lived fabric.
        from repro.runtime.channels import TcpChannel
        from repro.runtime.serialization import encode_value

        def wait_until(predicate, timeout=3.0):
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                if predicate():
                    return True
                time.sleep(0.01)
            return False

        fabric = TcpFabric("hub")
        try:
            for round_no in range(5):
                channel = TcpChannel.connect(*fabric.address)
                channel.send(encode_value({"hello": "peer%d" % round_no}))
                assert wait_until(lambda: fabric.reader_count() >= 1)
                channel.close()
                assert wait_until(lambda: fabric.reader_count() == 0)
            assert len(fabric._readers) <= 1
        finally:
            fabric.close()

    def test_close_joins_accept_thread(self):
        fabric = TcpFabric("solo")
        fabric.close()
        assert not fabric._accept_thread.is_alive()
        assert fabric.reader_count() == 0

    def test_close_joins_reader_threads(self):
        from repro.runtime.channels import TcpChannel
        from repro.runtime.serialization import encode_value
        fabric = TcpFabric("hub")
        channel = TcpChannel.connect(*fabric.address)
        channel.send(encode_value({"hello": "peer"}))
        deadline = time.monotonic() + 3.0
        while fabric.reader_count() < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        readers = list(fabric._readers)
        fabric.close()
        assert all(not thread.is_alive() for thread in readers)

    def test_stale_cached_channel_redialed(self):
        # A peer restarting invalidates the cached outgoing channel; the
        # next send must re-dial instead of failing.
        alpha = TcpFabric("alpha")
        beta = TcpFabric("beta")
        try:
            alpha.learn("beta", beta.address)
            mailbox = beta.register("beta")
            alpha.send("alpha", "beta", messages.start_message())
            mailbox.get(timeout=3.0)
            # Sever the cached channel behind alpha's back.
            alpha._outgoing["beta"].close()
            alpha.send("alpha", "beta", messages.stop_message())
            _sender, message = mailbox.get(timeout=3.0)
            assert message.kind == messages.STOP
        finally:
            alpha.close()
            beta.close()

    def test_many_messages_in_order(self):
        alpha = TcpFabric("alpha")
        beta = TcpFabric("beta")
        try:
            alpha.learn("beta", beta.address)
            mailbox = beta.register("beta")
            for seq in range(20):
                alpha.send("alpha", "beta",
                           messages.data_message("u", b"x", seq, 0.0))
            seqs = [mailbox.get(timeout=3.0)[1].payload["seq"]
                    for _ in range(20)]
            assert seqs == list(range(20))
        finally:
            alpha.close()
            beta.close()

    def test_send_many_arrives_as_separate_messages_in_order(self):
        alpha = TcpFabric("alpha")
        beta = TcpFabric("beta")
        try:
            alpha.learn("beta", beta.address)
            mailbox = beta.register("beta")
            burst = [messages.data_message("u", b"x" * 7000, seq, 0.0)
                     for seq in range(40)]
            burst.append(messages.ack_message(7, 0.0, 0.001))
            alpha.send_many("alpha", "beta", burst)
            received = [mailbox.get(timeout=3.0) for _ in burst]
            assert [sender for sender, _message in received] \
                == ["alpha"] * len(burst)
            assert [message for _sender, message in received] == burst
            # A burst to oneself is delivered locally, like a send.
            own = alpha.register("alpha")
            alpha.send_many("alpha", "alpha", burst[:2])
            assert [own.get(timeout=1.0)[1] for _ in range(2)] == burst[:2]
        finally:
            alpha.close()
            beta.close()

    def test_corrupt_frame_is_counted_and_skipped(self):
        # Regression: a frame that failed Message.decode used to kill the
        # reader thread (and the connection) without a counter.
        from repro.runtime.channels import TcpChannel
        from repro.runtime.serialization import encode_value
        registry = metrics_mod.MetricsRegistry()
        fabric = TcpFabric("hub", registry=registry)
        mailbox = fabric.register("hub")
        channel = TcpChannel.connect(*fabric.address)
        try:
            channel.send(encode_value({"hello": "peer"}))
            channel.send_many([messages.start_message().encode(),
                               b"\xffnot a message",
                               encode_value({"kind": ["not", "a", "str"]}),
                               messages.stop_message().encode()])
            kinds = [mailbox.get(timeout=3.0)[1].kind for _ in range(2)]
            assert kinds == [messages.START, messages.STOP]
            assert registry.value(metrics_mod.DROPPED_TOTAL,
                                  reason="corrupt_frame",
                                  link="peer>hub") == 2
            # The reader survived: the connection still carries traffic.
            channel.send(messages.start_message().encode())
            assert mailbox.get(timeout=3.0) == \
                ("peer", messages.start_message())
            assert fabric.reader_count() == 1
        finally:
            channel.close()
            fabric.close()

    @pytest.mark.parametrize("bad_frame", [
        # a payload that is not a dict
        {"kind": "data", "payload": [1]},
        # a BATCH whose seqs the mailbox cannot weigh
        {"kind": "batch", "payload": {"unit": "f", "batch": b"x",
                                      "seqs": 5, "sent_at": 0.5}},
        # a DATA frame without the unit the worker indexes
        {"kind": "data", "payload": {"tuple": b"x", "seq": 1,
                                     "sent_at": 0.5}},
        # an unhashable tenant the mailbox would key its depths by
        {"kind": "data", "payload": {"unit": "f", "tuple": b"x", "seq": 1,
                                     "sent_at": 0.5, "tenant": ["t"]}},
    ], ids=["non_dict_payload", "batch_seqs_not_a_list",
            "data_without_unit", "unhashable_tenant"])
    def test_framed_but_malformed_envelope_is_counted_and_skipped(
            self, bad_frame):
        # Regression: such a frame decoded, reached Mailbox._admit and
        # killed the reader thread — the rest of the burst was lost and
        # nothing was counted.
        from repro.runtime.channels import TcpChannel
        from repro.runtime.serialization import encode_value
        registry = metrics_mod.MetricsRegistry()
        fabric = TcpFabric("B", registry=registry)
        mailbox = fabric.register("B")
        channel = TcpChannel.connect(*fabric.address)
        heartbeat = messages.Message(messages.HEARTBEAT, {"worker_id": "C"})
        try:
            channel.send(encode_value({"hello": "C"}))
            channel.send_many([encode_value(bad_frame), heartbeat.encode()])
            assert mailbox.get(timeout=3.0) == ("C", heartbeat)
            assert registry.value(metrics_mod.DROPPED_TOTAL,
                                  reason="corrupt_frame", link="C>B") == 1
            assert fabric.reader_count() == 1
        finally:
            channel.close()
            fabric.close()

    def test_close_does_not_wait_out_the_accept_poll(self):
        alpha = TcpFabric("alpha")
        beta = TcpFabric("beta")
        alpha.learn("beta", beta.address)
        mailbox = beta.register("beta")
        alpha.send("alpha", "beta", messages.start_message())
        mailbox.get(timeout=3.0)
        for fabric in (alpha, beta):
            started = time.monotonic()
            fabric.close()
            assert time.monotonic() - started < 0.1
            assert not fabric._accept_thread.is_alive()
            assert fabric.reader_count() == 0
