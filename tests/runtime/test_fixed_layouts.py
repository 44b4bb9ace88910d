"""The fixed per-tuple layouts are twins of the general codec.

``runtime/serialization.py`` writes and reads DATA, BATCH and ACK
envelopes (an echo of several units included), and a tuple's flat
``values`` dict, by offset.  The general
walker (``encode_value`` / ``_decode_at``) defines the format; for every
input a fixed layout must give the same bytes, the same value of the
same type, or a :class:`SerializationError` where the walker raises one.
The traffic pin at the end lists every frame the data plane sends and
asserts that each one takes its layout, so a new optional field cannot
quietly move the hot path back onto the walker.
"""

import json
import math
import os
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.controller import PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.exceptions import SerializationError
from repro.core.function_unit import LambdaUnit
from repro.core.graph import GraphBuilder
from repro.core.tuples import DataTuple
from repro.runtime import messages, serialization
from repro.runtime.fabric import InProcFabric
from repro.runtime.master import Master
from repro.runtime.serialization import (decode_batch, decode_envelope,
                                         encode_envelope, encode_tuple,
                                         encode_value)
from repro.runtime.worker import WorkerRuntime

from tests.integration import test_tcp_at_least_once as alo
from tests.integration.waiting import wait_until

CORPUS = json.load(open(os.path.join(os.path.dirname(os.path.abspath(
    __file__)), "wire_corpus.json")))
FRAMES = {name: bytes.fromhex(entry["hex"]) for name, entry in CORPUS.items()
          if name.startswith(("message/", "tuple/", "batch/"))}

INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
INTS = st.one_of(INT64, st.sampled_from([-2 ** 63, 2 ** 63 - 1, 0]),
                 st.integers())  # unbounded: out-of-range must fail alike
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan]))
TEXT = st.one_of(st.text(max_size=12), st.sampled_from(["", "é", "ключ",
                                                        "src>f", "\ud800"]))
BLOBS = st.one_of(st.binary(max_size=64),
                  st.sampled_from([b"", b"\x00" * (1 << 20)]))
SEQS = st.lists(INTS, min_size=1, max_size=64)


class _Text(str):
    """A str subclass the general encoder writes as ``str(value)``."""

    def __str__(self):
        return "other"


def _same(left, right) -> bool:
    """Equal in value and type, key order, float bits and aliasing kind
    (``bytes`` vs ``memoryview``) included."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        return struct.pack(">d", left) == struct.pack(">d", right)
    if isinstance(left, dict):
        return list(left) == list(right) and all(
            _same(left[key], right[key]) for key in left)
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            _same(a, b) for a, b in zip(left, right))
    if isinstance(left, memoryview):
        return left.tobytes() == right.tobytes()
    if type(left).__module__ == "numpy":
        return left.tobytes() == right.tobytes() and left.shape == \
            right.shape and left.dtype == right.dtype
    if isinstance(left, DataTuple):
        return all(_same(getattr(left, name), getattr(right, name))
                   for name in ("values", "seq", "created_at", "deadline",
                                "trace", "delivery_attempt", "tenant", "key"))
    return left == right


def _outcome(call, *args):
    try:
        return call(*args)
    except SerializationError:
        return SerializationError


def _walker_envelope(buf: bytes):
    """What ``_decode_at`` alone makes of an envelope frame."""
    try:
        decoded, pos = serialization._decode_at(buf, 0, 0, None)
    except serialization._TRUNCATED as error:
        raise SerializationError("truncated payload") from error
    serialization._check_end(pos, len(buf))
    if not isinstance(decoded, dict):
        raise SerializationError("malformed message frame")
    return decoded.get("kind"), decoded.get("payload", {})


def _walker_tuple(buf: bytes, zero_copy: bool):
    """What ``_decode_at`` alone makes of a single-tuple frame."""
    views = memoryview(buf) if zero_copy else None
    try:
        decoded, pos = serialization._decode_at(buf, 0, 0, views)
    except serialization._TRUNCATED as error:
        raise SerializationError("truncated payload") from error
    serialization._check_end(pos, len(buf))
    if not isinstance(decoded, dict) \
            or not {"seq", "created_at", "values"} <= set(decoded):
        raise SerializationError("payload is not an encoded tuple")
    return serialization._tuple_from_fields(decoded)


def _layout_reads(frame: bytes) -> bool:
    """Whether a fixed layout, not the walker, reads *frame*."""
    for head, _, decode in serialization._LAYOUT_DECODERS:
        if frame.startswith(head):
            try:
                return decode(frame, len(head)) is not None
            except (IndexError, struct.error, UnicodeDecodeError):
                return False
    return False


# -- the layouts ------------------------------------------------------------
def _data(draw, kind):
    payload = {"unit": draw(TEXT),
               ("tuple" if kind == "data" else "batch"): draw(BLOBS)}
    if kind == "data":
        payload["seq"] = draw(INTS)
    else:
        payload["seqs"] = draw(SEQS)
    payload["sent_at"] = draw(FLOATS)
    if draw(st.booleans()):
        payload["tenant"] = draw(TEXT)
    payload["edge"] = draw(TEXT)
    if draw(st.booleans()):
        payload["delivery_attempt"] = draw(INTS)
    return payload


def _ack(draw):
    payload = {}
    if draw(st.booleans()):
        payload["seqs"] = draw(SEQS)
    payload.update(seq=draw(INTS), sent_at=draw(FLOATS),
                   processing_delay=draw(FLOATS))
    if draw(st.booleans()):
        payload["epoch"] = draw(INTS)
    payload["edge"] = draw(TEXT)
    return payload


def _echo(draw):
    payload = {"heads": draw(SEQS), "counts": draw(SEQS),
               "delays": draw(st.lists(FLOATS, min_size=1, max_size=64)),
               "seq": draw(INTS)}
    if draw(st.booleans()):
        payload["epoch"] = draw(INTS)
    payload["edge"] = draw(TEXT)
    return payload


@st.composite
def layout_frames(draw):
    kind = draw(st.sampled_from(["data", "batch", "ack", "echo"]))
    if kind == "echo":
        return "ack", _echo(draw)
    return kind, (_ack(draw) if kind == "ack" else _data(draw, kind))


class TestEncodeTwins:
    @given(layout_frames())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_layout_bytes_equal_the_walker(self, frame):
        kind, payload = frame
        expected = _outcome(encode_value, {"kind": kind, "payload": payload})
        assert _outcome(encode_envelope, kind, payload) == expected
        if expected is not SerializationError:
            assert _layout_reads(expected)
            decoded_kind, decoded = decode_envelope(expected)
            assert decoded_kind == kind
            assert _same(decoded, payload)

    @given(st.dictionaries(TEXT, st.one_of(
        INTS, FLOATS, TEXT, BLOBS, st.none(), st.booleans(),
        BLOBS.map(memoryview), BLOBS.map(lambda blob: memoryview(blob)[::2]),
        st.lists(INT64, max_size=3))), INT64, st.floats())
    @settings(max_examples=300, deadline=None)
    def test_flat_values_equal_the_walker(self, values, seq, created_at):
        data = DataTuple(values=values, seq=seq, created_at=created_at)
        expected = _outcome(encode_value, {
            "seq": seq, "created_at": created_at, "values": values})
        assert _outcome(encode_tuple, data) == expected
        if expected is not SerializationError:
            for zero_copy in (False, True):
                assert _same(decode_batch(expected, zero_copy)[0],
                             _walker_tuple(expected, zero_copy))

    @pytest.mark.parametrize("view", [
        memoryview(np.asfortranarray(np.arange(12, dtype=np.uint8)
                                     .reshape(3, 4))),
        memoryview(np.asfortranarray(np.arange(6, dtype=np.int32)
                                     .reshape(2, 3))),
        memoryview(np.arange(6, dtype=np.int32).reshape(2, 3)),
        memoryview(np.arange(6, dtype=np.uint8).reshape(2, 3)[:, ::2]),
        memoryview(np.float64(1.5)),
    ], ids=["fortran_u8", "fortran_i32", "c_2d_i32", "strided", "zero_dim"])
    def test_a_memoryview_of_any_layout_encodes_as_the_walker(self, view):
        values = {"v": view, "x": 1}
        assert encode_tuple(DataTuple(values=values, seq=0)) == \
            encode_value({"seq": 0, "created_at": 0.0, "values": values})

    def test_key_cache_stays_bounded(self):
        for index in range(2 * serialization._KEY_CACHE_SIZE):
            encode_tuple(DataTuple(values={"k%d" % index: index}, seq=0))
        assert len(serialization._KEY_CACHE) <= serialization._KEY_CACHE_SIZE

    def test_a_long_key_is_not_cached(self):
        key = "k" * (serialization._KEY_CACHE_KEY_BYTES + 1)
        values = {key: 1}
        assert encode_tuple(DataTuple(values=values, seq=0)) == \
            encode_value({"seq": 0, "created_at": 0.0, "values": values})
        assert key not in serialization._KEY_CACHE

    def test_a_str_subclass_key_leaves_the_flat_path(self):
        values = {_Text("k"): 1, "b": True, "n": None}
        assert encode_tuple(DataTuple(values=values, seq=0)) == \
            encode_value({"seq": 0, "created_at": 0.0, "values": values})


# -- hostile frames ---------------------------------------------------------
#: corpus frames a fixed layout reads, before mutation
LAYOUT_FRAMES = sorted(name for name, frame in FRAMES.items()
                       if name.startswith("message/")
                       and _layout_reads(frame))


@st.composite
def mutated_frames(draw, names=sorted(FRAMES),
                   ops=("flip", "truncate", "splice", "insert")):
    frame = bytearray(FRAMES[draw(st.sampled_from(names))])
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(ops))
        at = draw(st.integers(0, max(0, len(frame) - 1)))
        if op == "flip" and frame:
            frame[at] = draw(st.integers(0, 255))
        elif op == "truncate":
            del frame[at:]
        elif op == "splice":
            other = FRAMES[draw(st.sampled_from(sorted(FRAMES)))]
            cut = draw(st.integers(0, len(other)))
            frame[at:] = other[cut:]
        else:
            frame[at:at] = draw(st.binary(min_size=1, max_size=9))
    return bytes(frame)


class TestDecodeTwins:
    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_corpus_frames_decode_alike(self, name):
        frame = FRAMES[name]
        if name.startswith("message/"):
            assert _same(_outcome(decode_envelope, frame),
                         _outcome(_walker_envelope, frame))
        elif name.startswith("tuple/"):
            for zero_copy in (False, True):
                assert _same(_outcome(decode_batch, frame, zero_copy)[0],
                             _walker_tuple(frame, zero_copy))

    @given(st.one_of(mutated_frames(),
                     mutated_frames(LAYOUT_FRAMES, ("flip",))))
    @settings(max_examples=1500, deadline=None)
    def test_mutated_frames_decode_alike(self, frame):
        assert _same(_outcome(decode_envelope, frame),
                     _outcome(_walker_envelope, frame))
        for zero_copy in (False, True):
            fast = _outcome(decode_batch, frame, zero_copy) \
                if frame[:1] != b"\x80" else SerializationError
            if fast is not SerializationError:
                fast = fast[0]
            assert _same(fast, _outcome(_walker_tuple, frame, zero_copy))

    @pytest.mark.parametrize("name", LAYOUT_FRAMES)
    def test_every_one_byte_change_decodes_alike(self, name):
        taken = 0
        for at in range(len(FRAMES[name])):
            for change in (0x01, 0x80, 0xff):
                frame = bytearray(FRAMES[name])
                frame[at] ^= change
                frame = bytes(frame)
                taken += _layout_reads(frame)
                assert _same(_outcome(decode_envelope, frame),
                             _outcome(_walker_envelope, frame)), (at, change)
        assert taken  # the layout read some of them, not only the walker

    def test_the_echo_frame_is_read_by_its_layout(self):
        assert "message/echo_epoch_edge" in LAYOUT_FRAMES

    @given(st.sampled_from(["heads", "counts", "delays"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_an_echo_list_of_any_declared_length_decodes_alike(self, key,
                                                              count):
        frame = bytearray(FRAMES["message/echo_epoch_edge"])
        at = frame.index(serialization._keyed(key, serialization._TAG_LIST))
        at += len(key) + 6
        frame[at:at + 4] = count.to_bytes(4, "big")
        frame = bytes(frame)
        assert _same(_outcome(decode_envelope, frame),
                     _outcome(_walker_envelope, frame))

    def test_hostile_seqs_count_allocates_nothing(self):
        frame = bytearray(FRAMES["message/batch_ack"])
        at = frame.index(serialization._K_SEQS) + len(serialization._K_SEQS)
        frame[at:at + 4] = b"\xff\xff\xff\xff"
        with pytest.raises(SerializationError):
            messages.Message.decode(bytes(frame))

    def test_a_large_seqs_count_keeps_nothing(self):
        """A batch ACK may declare as many seqs as its frame holds; reading
        one leaves no memory behind, whatever the count."""
        def batch_ack(count, last):
            return encode_value({"kind": "ack", "payload": {
                "seqs": list(range(count - 1)) + [last], "seq": 0,
                "sent_at": 0.5, "processing_delay": 0.001, "edge": "e"}})

        count = 100_000
        frames = [batch_ack(count + extra, count) for extra in range(3)]
        bad = batch_ack(count + 3, 1.5)  # a float member: the walker decides
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for frame in frames:
                assert messages.Message.decode(frame).payload["seqs"][-1] \
                    == count
            with pytest.raises(SerializationError):
                messages.Message.decode(bad)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024, "%d bytes kept after the frames" % kept
        assert all(map(_layout_reads, frames)) and not _layout_reads(bad)


# -- the traffic pin ----------------------------------------------------------
def _dispatched(message, attempt=1):
    """What ``UpstreamDispatcher._try_send`` adds before sending."""
    message.payload["edge"] = "src>f"
    if attempt > 1:
        message.payload["delivery_attempt"] = attempt
    return message


def _acked(message):
    """What the worker adds to the ACK it sends upstream."""
    message.payload["edge"] = "src>f"
    return message


TUPLE = encode_tuple(DataTuple(values={"x": 1}, seq=7, created_at=0.25))
TRAFFIC = {
    "data": _dispatched(messages.data_message("f", TUPLE, 7, 0.5)),
    "data_tenant": _dispatched(messages.data_message("f", TUPLE, 7, 0.5,
                                                     tenant="t1")),
    "data_redelivered": _dispatched(
        messages.data_message("f", TUPLE, 7, 0.5), attempt=2),
    "data_tenant_redelivered": _dispatched(
        messages.data_message("f", TUPLE, 7, 0.5, tenant="t1"), attempt=3),
    "batch": _dispatched(messages.batch_message("f", TUPLE, [7, 8], 0.5)),
    "batch_tenant_redelivered": _dispatched(
        messages.batch_message("f", TUPLE, [7, 8], 0.5, tenant="t1"),
        attempt=2),
    "ack": _acked(messages.ack_message(7, 0.5, 0.001)),
    "ack_epoch": _acked(messages.ack_message(7, 0.5, 0.001, epoch=3)),
    "batch_ack": _acked(messages.batch_ack_message([7, 8], 0.5, 0.001)),
    "batch_ack_epoch": _acked(messages.batch_ack_message([7, 8], 0.5, 0.001,
                                                         epoch=3)),
    "echo": _acked(messages.echo_message([7, 9], [1, 2], [0.001, 0.0005])),
    "echo_epoch": _acked(messages.echo_message([7, 9], [1, 2],
                                               [0.001, 0.0005], epoch=3)),
}


def takes_fixed_layout(message) -> bool:
    """Whether *message* is both written and read by a fixed layout."""
    encode = serialization._LAYOUT_ENCODERS.get(
        (message.kind, tuple(message.payload)))
    if encode is None or encode(message.payload) is None:
        return False
    return _layout_reads(message.encode())


class TestTrafficPin:
    @pytest.mark.parametrize("name", sorted(TRAFFIC))
    def test_data_plane_frame_takes_its_layout(self, name):
        message = TRAFFIC[name]
        assert takes_fixed_layout(message), (
            "%s frame %r fell back to the general walker: give its new "
            "field a place in the fixed layout (DESIGN.md section 16)"
            % (name, tuple(message.payload)))
        assert messages.Message.decode(message.encode()) == message

    @pytest.mark.parametrize("name", sorted(TRAFFIC))
    def test_a_field_of_another_type_leaves_the_layout(self, name):
        for field in TRAFFIC[name].payload:
            for odd in (True, None, 1, 1.5, "1", _Text("1"), b"1",
                        bytearray(b"1"), [], [1, True], (1,), {"a": 1},
                        2 ** 64):
                payload = dict(TRAFFIC[name].payload, **{field: odd})
                kind = TRAFFIC[name].kind
                assert _outcome(encode_envelope, kind, payload) == _outcome(
                    encode_value, {"kind": kind, "payload": payload}), \
                    (field, odd)

    @pytest.mark.parametrize("message", [
        messages.data_message("f", TUPLE, 7, 0.5),  # no edge
        messages.data_message("f", TUPLE, 7, 0),  # int sent_at
        messages.start_message(tenant="t1"),
        messages.join_message("B"),
    ], ids=["no_edge", "int_sent_at", "start", "join"])
    def test_other_frames_take_the_walker(self, message):
        assert not takes_fixed_layout(message)
        assert messages.Message.decode(message.encode()) == message


class _Recording(InProcFabric):
    """An in-process fabric that keeps every message it carries."""

    def __init__(self) -> None:
        super().__init__()
        self.sent = []

    def send(self, sender_id, target_id, message) -> None:
        self.sent.append(message)
        super().send(sender_id, target_id, message)

    def send_many(self, sender_id, target_id, batch) -> None:
        self.sent.extend(batch)
        super().send_many(sender_id, target_id, batch)


def test_a_running_pipeline_sends_only_layout_frames():
    """Every DATA, BATCH and ACK (echoes included) an at-least-once closed
    loop sends, with the fields the dispatcher and the worker really put
    on them."""
    loop = alo._Loop()
    graph = (GraphBuilder("layouts")
             .source("src", lambda: alo._Source(loop))
             .unit("f", lambda: LambdaUnit(
                 lambda v: {"y": 3 * v["x"] + 1, "pad": v["pad"]}))
             .sink("snk", lambda: alo._Sink(loop))
             .chain("src", "f", "snk")
             .build())
    config = PolicyConfig(policy="LRS", seed=1, control_interval=0.25,
                          delivery=DeliveryConfig(mode=AT_LEAST_ONCE))
    fabric = _Recording()
    master = Master("A", fabric, graph, source_rate=0, seed=1,
                    control_interval=0.25, delivery=config.delivery,
                    policy_config=config)
    workers = [WorkerRuntime(i, fabric, graph, seed=1, control_interval=0.25,
                             policy_config=config, delivery=config.delivery)
               for i in ("B", "C")]
    runtimes = [master.runtime] + workers
    try:
        master.runtime.start()
        for worker in workers:
            worker.start()
            worker.join_master("A")
        wait_until(lambda: {"B", "C"} <= set(master.worker_ids),
                   message="workers joined")
        master.deploy()
        wait_until(lambda: all(r.deployed.is_set() for r in runtimes),
                   message="deployment")
        master.start()
        wait_until(lambda: time.monotonic() >= loop.deadline
                   and len(loop.delivered) >= loop.emitted,
                   timeout=alo.RUN_SECONDS + 10.0, message="the loop to drain")
    finally:
        master.stop()
        for worker in workers:
            worker.stop()
        master.runtime.stop()
    per_tuple = [m for m in list(fabric.sent)
                 if m.kind in (messages.DATA, messages.BATCH, messages.ACK)]
    assert {m.kind for m in per_tuple} >= {messages.DATA, messages.ACK}
    assert any("heads" in m.payload for m in per_tuple), "no echo was sent"
    walker = sorted({(m.kind,) + tuple(m.payload) for m in per_tuple
                     if not takes_fixed_layout(m)})
    assert not walker, "data-plane frames off their layout: %r" % walker
