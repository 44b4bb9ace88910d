"""Fuzzing the codec and message layer: hostile bytes must fail cleanly.

A malicious or corrupted peer can write anything into a socket; the only
acceptable outcomes are a decoded value or :class:`SerializationError` —
never a crash, hang, or huge allocation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as npst

from repro.core.exceptions import SerializationError, SwingError
from repro.core.tuples import DataTuple
from repro.runtime.messages import ACK, Message, echo_message
from repro.runtime.serialization import (decode_batch, decode_tuple,
                                         decode_value, encode_batch,
                                         encode_tuple, encode_value)


class TestDecodeFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=300)
    def test_decode_value_never_crashes(self, data):
        try:
            decode_value(data)
        except SerializationError:
            pass  # the only acceptable failure mode

    @given(st.binary(max_size=200))
    def test_decode_tuple_never_crashes(self, data):
        try:
            decode_tuple(data)
        except SerializationError:
            pass

    @given(st.binary(max_size=200))
    def test_message_decode_never_crashes(self, data):
        try:
            Message.decode(data)
        except SerializationError:
            pass

    def test_huge_declared_string_rejected_without_allocation(self):
        # Tag 's' + 4-byte length claiming 4 GiB, then nothing.
        hostile = b"s" + (0xFFFFFFFF).to_bytes(4, "big")
        with pytest.raises(SerializationError):
            decode_value(hostile)

    def test_huge_declared_list_rejected(self):
        hostile = b"l" + (0xFFFFFFFF).to_bytes(4, "big")
        with pytest.raises(SerializationError):
            decode_value(hostile)

    def test_nested_bombs_bounded(self):
        # Deeply nested lists each claiming one element then truncating.
        hostile = b"l\x00\x00\x00\x01" * 50
        with pytest.raises(SerializationError):
            decode_value(hostile)


#: seeded generator for every wire-expressible value shape, numpy
#: scalars and arrays included (the codec coerces numpy scalars to the
#: matching Python type on the way through)
_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(),
        st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1),
        st.floats(allow_nan=False),
        st.text(max_size=20), st.binary(max_size=20),
        st.sampled_from([np.bool_(True), np.bool_(False),
                         np.int32(-7), np.int64(2 ** 40), np.float32(0.5)]),
        npst.arrays(dtype=st.sampled_from([np.uint8, np.int32, np.float64]),
                    shape=npst.array_shapes(max_dims=2, max_side=4))),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=10)


def _assert_same(decoded, original):
    """Structural equality modulo the codec's documented coercions."""
    if isinstance(decoded, memoryview):
        decoded = bytes(decoded)
    if isinstance(original, np.ndarray) or isinstance(decoded, np.ndarray):
        assert np.array_equal(np.asarray(decoded), np.asarray(original),
                              equal_nan=True)
    elif isinstance(original, dict):
        assert set(decoded) == set(original)
        for key in original:
            _assert_same(decoded[key], original[key])
    elif isinstance(original, (list, tuple)):
        assert len(decoded) == len(original)
        for got, want in zip(decoded, original):
            _assert_same(got, want)
    else:
        assert decoded == original


class TestRoundtripFuzz:
    """Seeded generative coverage: whatever encodes must decode back."""

    @given(_VALUES)
    @settings(max_examples=150, deadline=None)
    def test_value_roundtrip(self, value):
        _assert_same(decode_value(encode_value(value)), value)

    @given(st.lists(_VALUES, min_size=1, max_size=5),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_batch_roundtrip(self, values, seq0):
        payloads = [encode_tuple(DataTuple(values={"v": value},
                                           seq=seq0 + offset))
                    for offset, value in enumerate(values)]
        out = decode_batch(encode_batch(payloads))
        assert [d.seq for d in out] == [seq0 + i for i in range(len(values))]
        for decoded, original in zip(out, values):
            _assert_same(decoded.values["v"], original)


def _echo(**changes) -> Message:
    message = echo_message([3, 7, 12], [1, 4, 1], [0.001, 0.0025, 0.0],
                           epoch=1)
    message.payload["edge"] = "src>f"
    for name, value in changes.items():
        if value is None:
            del message.payload[name]
        else:
            message.payload[name] = value
    return message


class TestEchoFrameFuzz:
    """A hostile echo decodes to units whose heads, counts and delays
    line up, or fails cleanly: a receiver zips the three lists."""

    @given(st.data())
    @settings(max_examples=300)
    def test_mutated_echo_lines_up_or_fails(self, data):
        frame = bytearray(_echo().encode())
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(frame) - 1))
            frame[at] = data.draw(st.integers(0, 255))
        if data.draw(st.booleans()):
            del frame[data.draw(st.integers(0, len(frame))):]
        try:
            message = Message.decode(bytes(frame))
        except SerializationError:
            return
        payload = message.payload
        if message.kind == ACK and "heads" in payload:
            assert len(payload["heads"]) == len(payload["counts"]) \
                == len(payload["delays"]) > 0
            assert min(payload["counts"]) >= 1

    @pytest.mark.parametrize("changes", [
        {"heads": [3]}, {"counts": [1, 4]}, {"delays": []},
        {"counts": [1, 0, 1]}, {"counts": [1, -4, 1]},
        {"heads": [3, "7", 12]}, {"counts": [1, 4.0, 1]},
        {"delays": [0.1, "x", 0.0]}, {"heads": None}, {"seq": None},
        {"edge": 5}], ids=str)
    def test_an_echo_that_does_not_line_up_is_rejected(self, changes):
        with pytest.raises(SerializationError):
            Message.decode(_echo(**changes).encode())

    def test_a_well_formed_echo_decodes_whole(self):
        assert Message.decode(_echo().encode()) == _echo()


class TestBatchFrameFuzz:
    """Hostile batch frames: clean failure is the only acceptable outcome."""

    @staticmethod
    def _frame():
        payloads = [encode_tuple(DataTuple(
            values={"blob": b"abcd", "i": i}, seq=i)) for i in range(3)]
        return encode_batch(payloads)

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_decode_batch_never_crashes(self, data):
        try:
            decode_batch(data)
        except SerializationError:
            pass  # the only acceptable failure mode

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncation_always_fails_cleanly(self, data):
        frame = self._frame()
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(SerializationError):
            decode_batch(frame[:cut])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_flips_never_crash(self, data):
        frame = bytearray(self._frame())
        index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        frame[index] ^= 1 << bit
        try:
            decode_batch(bytes(frame))
        except SerializationError:
            pass  # flips may still decode (payload content) or must fail cleanly


class TestDecodeFrameFuzz:
    @given(st.binary(max_size=64))
    def test_face_frame_decoder_rejects_wrong_sizes(self, data):
        from repro.apps.face.images import FRAME_HEIGHT, FRAME_WIDTH, decode_frame
        if len(data) == FRAME_HEIGHT * FRAME_WIDTH:
            return  # valid size: accepted
        with pytest.raises(SwingError):
            decode_frame(data)

    @given(st.binary(max_size=64))
    def test_audio_decoder_only_rejects_odd_lengths(self, data):
        from repro.apps.translate.audio import decode_audio
        if len(data) % 2:
            with pytest.raises(SwingError):
                decode_audio(data)
        else:
            waveform = decode_audio(data)
            assert len(waveform) == len(data) // 2
