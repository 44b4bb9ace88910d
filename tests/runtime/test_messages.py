"""Tests for control/data message envelopes."""

import pytest

from repro.core.exceptions import SerializationError
from repro.runtime import messages
from repro.runtime.messages import Message


class TestEnvelope:
    def test_roundtrip(self):
        message = messages.data_message("f", b"x", seq=1, sent_at=0.5)
        decoded = Message.decode(message.encode())
        assert decoded.kind == messages.DATA
        assert decoded.payload == {"unit": "f", "tuple": b"x", "seq": 1,
                                   "sent_at": 0.5}

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            Message("gossip")

    def test_malformed_frame_rejected(self):
        from repro.runtime.serialization import encode_value
        with pytest.raises(SerializationError):
            Message.decode(encode_value([1, 2]))

    @pytest.mark.parametrize("kind, payload", [
        ("start", [1]),
        ("data", {"tuple": b"x", "seq": 1, "sent_at": 0.5}),
        ("data", {"unit": "f", "tuple": "x", "seq": 1, "sent_at": 0.5}),
        ("data", {"unit": "f", "tuple": b"x", "seq": 1.0, "sent_at": 0.5}),
        ("data", {"unit": "f", "tuple": b"x", "seq": 1, "sent_at": "0"}),
        ("data", {"unit": "f", "tuple": b"x", "seq": 1, "sent_at": 0.5,
                  "tenant": ["t"]}),
        ("data", {"unit": "f", "tuple": b"x", "seq": 1, "sent_at": 0.5,
                  "edge": 3}),
        ("batch", {"unit": "f", "batch": b"x", "seqs": 5, "sent_at": 0.5}),
        ("batch", {"unit": "f", "batch": b"x", "seqs": ["1"],
                   "sent_at": 0.5}),
        ("ack", {"sent_at": 0.5, "processing_delay": 0.1}),
        ("ack", {"seq": 1, "sent_at": 0.5}),
        ("ack", {"seq": 1, "processing_delay": 0.1, "seqs": (1, 2)}),
    ])
    def test_frame_a_receiver_would_trip_over_rejected(self, kind, payload):
        from repro.runtime.serialization import encode_value
        with pytest.raises(SerializationError):
            Message.decode(encode_value({"kind": kind, "payload": payload}))

    def test_int_accepted_where_a_float_is_expected(self):
        message = messages.ack_message(seq=3, sent_at=0, processing_delay=0)
        assert Message.decode(message.encode()) == message
        message = messages.batch_message("f", b"x", [1, 2], sent_at=1)
        assert Message.decode(message.encode()) == message


class TestConstructors:
    def test_join(self):
        message = messages.join_message("B")
        assert message.kind == messages.JOIN
        assert message.payload["worker_id"] == "B"

    def test_deploy_carries_units_and_downstreams(self):
        message = messages.deploy_message(
            "B", ["detector"], {"detector>recognizer": ["recognizer@C"]})
        assert message.payload["unit_names"] == ["detector"]
        assert message.payload["downstream_map"] == {
            "detector>recognizer": ["recognizer@C"]}

    def test_data_message(self):
        message = messages.data_message("detector", b"payload", seq=3,
                                        sent_at=1.5)
        assert message.payload["unit"] == "detector"
        assert message.payload["seq"] == 3
        assert message.payload["sent_at"] == 1.5

    def test_ack_echoes_timestamp(self):
        message = messages.ack_message(seq=3, sent_at=1.5,
                                       processing_delay=0.25)
        assert message.payload["sent_at"] == 1.5
        assert message.payload["processing_delay"] == 0.25

    def test_all_constructors_encode(self):
        for message in (messages.join_message("B"),
                        messages.welcome_message("B"),
                        messages.start_message(), messages.stop_message(),
                        messages.leave_message("B")):
            assert Message.decode(message.encode()).kind == message.kind
