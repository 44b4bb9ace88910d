"""Wire-format pin: the bytes and decoded values of every frame kind.

``wire_corpus.json`` holds, for each named frame built below, the hex of
its encoding and a typed description of what decoding it gives.  Both
were captured from the codec before it decoded over integer offsets; a
codec change must reproduce them exactly — the same bytes, and decoded
values equal in value *and* type (a tuple stays a tuple, ``bytes`` stays
``bytes``, a zero-copy decode still yields ``memoryview`` slices and
read-only ndarray views).

``python tests/runtime/test_wire_corpus.py`` prints the corpus the
current code produces, in the file's format.
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

from repro.core.keyed import KEY_SPACE, KeyRange
from repro.core.recovery import (ControlPlaneCheckpoint, RetainedEntry,
                                 SessionState)
from repro.core.state import (StateSnapshot, decode_state_snapshot,
                              encode_state_snapshot)
from repro.core.tuples import DataTuple
from repro.runtime import messages
from repro.runtime.messages import Message
from repro.runtime.serialization import (decode_batch, decode_tuple,
                                         decode_value, encode_batch,
                                         encode_tuple, encode_value)
from repro.trace import SpanContext

CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "wire_corpus.json")

_PAD = bytes(range(40))


def _tuple(**overrides) -> DataTuple:
    fields = dict(values={"x": 3, "pad": _PAD}, seq=41, created_at=2.5)
    fields.update(overrides)
    return DataTuple(**fields)


TUPLES = {
    "canonical": _tuple(),
    "deadline": _tuple(deadline=9.75),
    "trace_sampled": _tuple(trace=SpanContext(sampled=True, origin="cam")),
    "trace_unsampled": _tuple(trace=SpanContext(sampled=False)),
    "attempt": _tuple(delivery_attempt=3),
    "tenant": _tuple(tenant="t0"),
    "key": _tuple(key="user-42"),
    "every_field": _tuple(deadline=4.0, trace=SpanContext(True, "src"),
                          delivery_attempt=2, tenant="tenant-é",
                          key="ключ"),
    "created_at_int": _tuple(created_at=0),
    "ndarrays": _tuple(values={
        "u8": np.arange(6, dtype=np.uint8).reshape(2, 3),
        "f32": np.linspace(0.0, 1.0, 4, dtype=np.float32),
        "f64_scalar": np.asarray(np.float64(-3.25)),
        "empty": np.zeros((0, 2), dtype=np.int64)}),
    "nested": _tuple(values={"l": [1, (2, [3.5, None, b"b"]), "s"],
                             "t": (True, False, ()), "d": {"e": {}}}),
    "numpy_scalars": _tuple(values={"i": np.int32(-7), "j": np.int64(2 ** 40),
                                    "f": np.float32(0.5),
                                    "b": np.bool_(True)}),
    "non_ascii": _tuple(values={"name": "héllo wörld ✓", "ключ": "значение",
                                "emoji": "\U0001f4f7"}),
    "empty_values": _tuple(values={}, seq=0, created_at=0.0),
}

_TUPLE_FRAME = encode_tuple(TUPLES["canonical"])
_BATCH_FRAME = encode_batch([encode_tuple(TUPLES[name])
                             for name in ("canonical", "ndarrays", "nested")])


def _with(message: Message, **extra) -> Message:
    message.payload.update(extra)
    return message


MESSAGES = {
    "join": messages.join_message("B"),
    "join_units_epoch": messages.join_message("B", units=["f", "t0:f"],
                                              epoch=3),
    "welcome": messages.welcome_message("B"),
    "welcome_epoch": messages.welcome_message("B", epoch=2),
    "deploy": messages.deploy_message("B", ["f"], {"f>snk": ["snk@A"]}),
    "deploy_tenant_epoch": messages.deploy_message(
        "C", ["f", "g"], {"t0:f>g": ["g@C"], "t0:g>snk": ["snk@A"]},
        tenant="t0", epoch=4),
    "start": messages.start_message(),
    "start_tenant_epoch": messages.start_message(tenant="t0", epoch=1),
    "stop": messages.stop_message(),
    "stop_tenant_epoch": messages.stop_message(tenant="t0", epoch=5),
    "data": messages.data_message("f", _TUPLE_FRAME, 41, 0.5),
    "data_edge": _with(messages.data_message("f", _TUPLE_FRAME, 41, 0.5),
                       edge="src>f"),
    "data_tenant_edge_attempt": _with(
        messages.data_message("f", _TUPLE_FRAME, 41, 1.25, tenant="t0"),
        edge="t0:src>f", delivery_attempt=2),
    "data_int_sent_at": _with(messages.data_message("f", b"", 0, 0),
                              edge="src>f"),
    "batch": messages.batch_message("f", _BATCH_FRAME, [41, 41, 41], 0.5),
    "batch_tenant_edge_attempt": _with(
        messages.batch_message("f", _BATCH_FRAME, [1, 2, 3], 0.75,
                               tenant="t1"),
        edge="t1:src>f", delivery_attempt=4),
    "ack": messages.ack_message(41, 0.5, 0.001),
    "ack_epoch_edge": _with(messages.ack_message(41, 0.5, 0.001, epoch=7),
                            edge="f>snk"),
    "ack_int_delay": _with(messages.ack_message(41, 0.5, 0), edge="f>snk"),
    "batch_ack": messages.batch_ack_message([1, 2, 3], 0.5, 0.002),
    "batch_ack_epoch_edge": _with(
        messages.batch_ack_message([4, 5], 0.5, 0.002, epoch=1),
        edge="t0:f>snk"),
    "echo_epoch_edge": _with(
        messages.echo_message([41, 44, 50], [1, 3, 1],
                              [0.001, 0.0005, 0.0], epoch=2),
        edge="f>snk"),
    "heartbeat": Message(messages.HEARTBEAT, {"worker_id": "B"}),
    "leave": messages.leave_message("B"),
    "leaving": messages.leaving_message("C"),
}

SNAPSHOT = StateSnapshot(tenant="t0", unit="count",
                         key_range=KeyRange(0, KEY_SPACE),
                         entries=(("k1", {"count": 3, "total": 1.5}),
                                  ("k2", {"count": 1, "last": "é"})))

CHECKPOINT = ControlPlaneCheckpoint(
    epoch=2, workers=("B", "C"),
    sessions=(SessionState("", True, (("f", ("B", "C")), ("snk", ("A",)))),
              SessionState("t0", False, (("g", ("C",)),))),
    retention=(("src>f", (RetainedEntry(seq=1, attempt=1, deadline=None,
                                        frame=_TUPLE_FRAME),
                          RetainedEntry(seq=2, attempt=3, deadline=7.5,
                                        frame=_BATCH_FRAME,
                                        seqs=(2, 3, 4)))),),
    dedup=(("f>snk", 1), ("f>snk", 2)),
    key_ranges=(("src>f", ((0, 512, "f@B"), (512, 1024, "f@C"))),))


def _shape(value):
    """A JSON-able description of *value* that pins type and content."""
    if value is None or isinstance(value, (bool, str)):
        return [type(value).__name__, value]
    if isinstance(value, int):
        return ["int", value]
    if isinstance(value, float):
        return ["float", repr(value)]
    if isinstance(value, (bytes, memoryview)):
        return [type(value).__name__, bytes(value).hex()]
    if isinstance(value, np.ndarray):
        return ["ndarray", value.dtype.str, list(value.shape),
                value.tobytes().hex(), bool(value.flags.writeable)]
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [_shape(item) for item in value]]
    if isinstance(value, dict):
        return ["dict", [[key, _shape(item)] for key, item in value.items()]]
    if isinstance(value, SpanContext):
        return ["SpanContext", value.sampled, value.origin]
    if dataclasses.is_dataclass(value):
        return [type(value).__name__,
                [[f.name, _shape(getattr(value, f.name))]
                 for f in dataclasses.fields(value)]]
    raise TypeError("no shape for %r" % type(value).__name__)


def _frames():
    """name -> (encoded bytes, {decoder name: decoded value})."""
    out = {}
    for name, data in TUPLES.items():
        frame = encode_tuple(data)
        out["tuple/" + name] = (frame, {
            "decode_tuple": decode_tuple(frame),
            "decode_batch": decode_batch(frame),
            "decode_batch_detached": decode_batch(frame, zero_copy=False)})
    out["batch/3"] = (_BATCH_FRAME, {
        "decode_batch": decode_batch(_BATCH_FRAME),
        "decode_batch_detached": decode_batch(_BATCH_FRAME,
                                              zero_copy=False)})
    for name, message in MESSAGES.items():
        frame = message.encode()
        out["message/" + name] = (frame, {"decode": Message.decode(frame)})
    hello = encode_value({"hello": "B"})
    out["hello"] = (hello, {"decode_value": decode_value(hello)})
    frame = encode_state_snapshot(SNAPSHOT)
    out["state_snapshot"] = (frame, {"decode": decode_state_snapshot(frame)})
    frame = CHECKPOINT.encode()
    out["checkpoint"] = (frame, {"decode": ControlPlaneCheckpoint.decode(frame)})
    return out


def capture():
    return {name: {"hex": frame.hex(),
                   "decoded": {decoder: _shape(value)
                               for decoder, value in decoded.items()}}
            for name, (frame, decoded) in _frames().items()}


def _load_corpus():
    # Missing only while the corpus is being (re)captured; the coverage
    # test below then fails rather than every check passing vacuously.
    if not os.path.exists(CORPUS_PATH):
        return {}
    with open(CORPUS_PATH) as handle:
        return json.load(handle)


CORPUS = _load_corpus()


@pytest.fixture(scope="module")
def current():
    return json.loads(json.dumps(capture()))


def test_corpus_covers_every_frame(current):
    assert sorted(current) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_encoding_is_byte_identical(name, current):
    assert current[name]["hex"] == CORPUS[name]["hex"]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_decoding_gives_equal_values_of_the_same_type(name, current):
    assert current[name]["decoded"] == CORPUS[name]["decoded"]


def test_checkpoint_and_snapshot_roundtrip_to_their_originals():
    assert ControlPlaneCheckpoint.decode(CHECKPOINT.encode()) == CHECKPOINT
    assert decode_state_snapshot(encode_state_snapshot(SNAPSHOT)) == SNAPSHOT


class TestGeneralPathFallback:
    """Envelopes a peer may legally build in another key order, or with
    keys this build does not know, decode through the general path."""

    def test_reordered_envelope_and_payload_keys(self):
        frame = encode_value({"payload": {"sent_at": 0.5, "tuple": b"t",
                                          "edge": "src>f", "seq": 9,
                                          "unit": "f"},
                              "kind": "data"})
        message = Message.decode(frame)
        assert message.kind == messages.DATA
        assert message.payload == {"sent_at": 0.5, "tuple": b"t",
                                   "edge": "src>f", "seq": 9, "unit": "f"}

    def test_extra_payload_key(self):
        message = messages.ack_message(3, 0.5, 0.25)
        message.payload["edge"] = "f>snk"
        message.payload["hint"] = [1, 2]
        decoded = Message.decode(message.encode())
        assert decoded.payload == message.payload
        assert list(decoded.payload) == list(message.payload)

    def test_extra_envelope_key(self):
        frame = encode_value({"kind": "ack", "payload": {
            "seq": 3, "sent_at": 0.5, "processing_delay": 0.25},
            "version": 2})
        assert Message.decode(frame).payload["seq"] == 3

    def test_reordered_tuple_fields(self):
        frame = encode_value({"values": {"x": 1}, "created_at": 1.5,
                              "seq": 4, "tenant": "t0"})
        data = decode_tuple(frame)
        assert (data.seq, data.created_at, data.values, data.tenant) \
            == (4, 1.5, {"x": 1}, "t0")
        [member] = decode_batch(frame)
        assert member.seq == 4


if __name__ == "__main__":
    corpus = capture()
    sys.stdout.write("{\n%s\n}\n" % ",\n".join(
        "%s: %s" % (json.dumps(name), json.dumps(corpus[name]))
        for name in sorted(corpus)))
