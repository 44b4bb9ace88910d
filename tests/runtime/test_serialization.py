"""Tests for the binary tuple codec."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as npst

from repro.core.exceptions import SerializationError
from repro.core.tuples import DataTuple
from repro.runtime.serialization import (BATCH_MAGIC, MAX_BATCH_TUPLES,
                                         MAX_DEPTH, decode_batch,
                                         decode_tuple, decode_value,
                                         encode_batch, encode_tuple,
                                         encode_value)
from repro.trace import SpanContext


def roundtrip(value):
    return decode_value(encode_value(value))


class TestScalars:
    @pytest.mark.parametrize("value", [None, True, False, 0, -5, 2**40,
                                       0.0, -1.5, 3.14159])
    def test_roundtrip(self, value):
        assert roundtrip(value) == value

    def test_string_unicode(self):
        assert roundtrip("héllo wörld ✓") == "héllo wörld ✓"

    def test_bytes(self):
        assert roundtrip(b"\x00\x01\xff") == b"\x00\x01\xff"

    def test_bytearray_decodes_as_bytes(self):
        assert roundtrip(bytearray(b"abc")) == b"abc"

    def test_numpy_scalars_coerced(self):
        assert roundtrip(np.int32(7)) == 7
        assert roundtrip(np.float64(1.5)) == 1.5

    def test_numpy_bool_coerced(self):
        # Regression: np.bool_ is neither a Python bool nor an
        # np.integer, so it used to fall through to the unsupported-type
        # error even though bool arrays encoded fine.
        assert roundtrip(np.bool_(True)) is True
        assert roundtrip(np.bool_(False)) is False

    def test_numpy_bool_from_comparison(self):
        # The shape the regression actually appeared in: a scalar
        # comparison result placed into a tuple's values.
        flag = np.float64(2.0) > 1.0
        assert isinstance(flag, np.bool_)
        assert roundtrip({"detected": flag}) == {"detected": True}


class TestContainers:
    def test_list(self):
        assert roundtrip([1, "two", b"3", None]) == [1, "two", b"3", None]

    def test_tuple_preserved(self):
        assert roundtrip((1, 2)) == (1, 2)

    def test_nested(self):
        value = {"a": [1, {"b": (2.5, None)}], "c": b"x"}
        assert roundtrip(value) == value

    def test_empty_containers(self):
        assert roundtrip([]) == []
        assert roundtrip({}) == {}

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(SerializationError):
            encode_value({1: "a"})


class TestArrays:
    @pytest.mark.parametrize("dtype", ["uint8", "int32", "float32", "float64"])
    def test_dtype_roundtrip(self, dtype):
        array = np.arange(12, dtype=dtype).reshape(3, 4)
        result = roundtrip(array)
        assert result.dtype == array.dtype
        assert np.array_equal(result, array)

    def test_zero_dim_array(self):
        array = np.float64(3.5)
        result = roundtrip(np.asarray(array))
        assert result.shape == ()
        assert float(result) == 3.5

    def test_empty_array(self):
        array = np.zeros((0, 3), dtype=np.float32)
        result = roundtrip(array)
        assert result.shape == (0, 3)

    def test_non_contiguous_array(self):
        array = np.arange(16).reshape(4, 4)[::2, ::2]
        assert np.array_equal(roundtrip(array), array)

    @given(npst.arrays(dtype=st.sampled_from([np.uint8, np.float32]),
                       shape=npst.array_shapes(max_dims=3, max_side=8)))
    def test_arbitrary_arrays(self, array):
        result = roundtrip(array)
        assert result.shape == array.shape
        assert np.array_equal(result, array, equal_nan=True)


class TestErrors:
    def test_unsupported_type_rejected(self):
        with pytest.raises(SerializationError):
            encode_value(object())

    def test_truncated_payload_rejected(self):
        data = encode_value("hello")
        with pytest.raises(SerializationError):
            decode_value(data[:-1])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(SerializationError):
            decode_value(encode_value(1) + b"junk")

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError):
            decode_value(b"Z")

    def test_empty_payload_rejected(self):
        with pytest.raises(SerializationError):
            decode_value(b"")

    def test_out_of_range_int_wrapped_as_serialization_error(self):
        # Regression: ints beyond the signed-64-bit wire range used to
        # leak struct.error out of encode_value.
        with pytest.raises(SerializationError):
            encode_value(2 ** 70)
        with pytest.raises(SerializationError):
            encode_value({"count": -(2 ** 70)})

    @pytest.mark.parametrize("encode, value", [
        (encode_value, "\ud800"),
        (encode_value, {"\ud800": 1}),
        (encode_tuple, DataTuple(values={}, seq=1, created_at=0.0,
                                 tenant="\ud800")),
        (encode_tuple, DataTuple(values={}, seq=1, created_at=0.0,
                                 key="\udc00")),
    ], ids=["str", "dict_key", "tuple_tenant", "tuple_key"])
    def test_lone_surrogate_wrapped_as_serialization_error(self, encode,
                                                           value):
        # Regression: a str UTF-8 cannot encode used to leak
        # UnicodeEncodeError out of the encoder.
        with pytest.raises(SerializationError):
            encode(value)

    @pytest.mark.parametrize("name", [b"i4,(", b"(2", b"a,b)", b"\xff"])
    def test_dtype_name_numpy_cannot_parse_rejected(self, name):
        # numpy parses comma lists of field formats; "i4,(" fails there
        # with a SyntaxError, which used to escape the decoder.
        frame = (b"a" + bytes([len(name)]) + name + b"\x00"
                 + (0).to_bytes(4, "big"))
        with pytest.raises(SerializationError):
            decode_value(frame)

    def test_encode_nesting_bomb_rejected(self):
        value = []
        for _ in range(MAX_DEPTH + 5):
            value = [value]
        with pytest.raises(SerializationError):
            encode_value(value)

    def test_decode_nesting_bomb_rejected(self):
        # A syntactically complete payload nested past the bound must be
        # refused by the depth limit, not by blowing the recursion limit.
        hostile = b"l\x00\x00\x00\x01" * (MAX_DEPTH + 5) + b"N"
        with pytest.raises(SerializationError):
            decode_value(hostile)

    def test_nesting_under_the_limit_roundtrips(self):
        value = 1
        for _ in range(MAX_DEPTH - 1):
            value = [value]
        assert roundtrip(value) == value


class TestScalarArrayPayloads:
    """Shape-() arrays must enforce the payload-size check like any rank."""

    @staticmethod
    def _scalar_frame(dtype=b"<f8", payload=b""):
        return (b"a" + bytes([len(dtype)]) + dtype + b"\x00"
                + len(payload).to_bytes(4, "big") + payload)

    def test_zero_length_scalar_payload_rejected(self):
        with pytest.raises(SerializationError):
            decode_value(self._scalar_frame(payload=b""))

    def test_oversized_scalar_payload_rejected(self):
        with pytest.raises(SerializationError):
            decode_value(self._scalar_frame(payload=b"\x00" * 16))

    def test_exact_scalar_payload_accepted(self):
        result = decode_value(
            self._scalar_frame(payload=struct.pack("<d", 2.5)))
        assert result.shape == ()
        assert float(result) == 2.5


class TestBatchCodec:
    @staticmethod
    def _payloads(count):
        return [encode_tuple(DataTuple(
            values={"i": i, "blob": bytes([i]) * 8,
                    "arr": np.arange(4, dtype=np.int32) + i},
            seq=i)) for i in range(count)]

    def test_roundtrip(self):
        out = decode_batch(encode_batch(self._payloads(5)))
        assert [d.seq for d in out] == list(range(5))
        assert bytes(out[3].values["blob"]) == bytes([3]) * 8
        assert np.array_equal(out[2].values["arr"],
                              np.arange(4, dtype=np.int32) + 2)

    def test_single_payload_is_byte_identical_legacy_format(self):
        payload = self._payloads(1)[0]
        assert encode_batch([payload]) == payload
        out = decode_batch(payload)
        assert len(out) == 1
        assert out[0].seq == 0

    def test_magic_is_not_a_value_tag(self):
        frame = encode_batch(self._payloads(2))
        assert frame[0] == BATCH_MAGIC
        with pytest.raises(SerializationError):
            decode_value(bytes([BATCH_MAGIC]))

    def test_zero_copy_decode_returns_views(self):
        frame = encode_batch(self._payloads(3))
        out = decode_batch(frame)
        blob = out[1].values["blob"]
        assert isinstance(blob, memoryview)
        assert bytes(blob) == bytes([1]) * 8
        arr = out[1].values["arr"]
        assert arr.flags.writeable is False
        assert np.shares_memory(arr, np.frombuffer(frame, dtype=np.uint8))

    def test_copy_mode_detaches_from_the_frame(self):
        frame = encode_batch(self._payloads(2))
        out = decode_batch(frame, zero_copy=False)
        assert isinstance(out[0].values["blob"], bytes)
        assert not np.shares_memory(out[0].values["arr"],
                                    np.frombuffer(frame, dtype=np.uint8))

    def test_empty_batch_rejected(self):
        with pytest.raises(SerializationError):
            encode_batch([])

    def test_zero_count_frame_rejected(self):
        with pytest.raises(SerializationError):
            decode_batch(bytes([BATCH_MAGIC]) + (0).to_bytes(4, "big"))

    def test_huge_declared_count_rejected(self):
        hostile = (bytes([BATCH_MAGIC])
                   + (MAX_BATCH_TUPLES + 1).to_bytes(4, "big"))
        with pytest.raises(SerializationError):
            decode_batch(hostile)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(SerializationError):
            decode_batch(encode_batch(self._payloads(2)) + b"x")

    def test_truncated_batch_rejected(self):
        frame = encode_batch(self._payloads(2))
        with pytest.raises(SerializationError):
            decode_batch(frame[:-3])


class TestTupleCodec:
    def test_tuple_roundtrip(self):
        data = DataTuple(values={"frame": b"\x01\x02", "name": "x"},
                         seq=42, created_at=1.25)
        result = decode_tuple(encode_tuple(data))
        assert result.seq == 42
        assert result.created_at == 1.25
        assert result.values == data.values

    def test_tuple_with_array_payload(self):
        array = np.ones((8, 8), dtype=np.float32)
        data = DataTuple(values={"matrix": array}, seq=0)
        result = decode_tuple(encode_tuple(data))
        assert np.array_equal(result.get_value("matrix"), array)

    def test_non_tuple_payload_rejected(self):
        with pytest.raises(SerializationError):
            decode_tuple(encode_value([1, 2, 3]))

    def test_fast_envelope_matches_generic_encoding(self):
        # The specialized envelope emitter must stay byte-identical to
        # encoding the equivalent field dict through the generic codec,
        # which defines the wire format.
        full = DataTuple(values={"x": 1, "blob": b"abc"}, seq=5,
                         created_at=2.5, deadline=9.0,
                         trace=SpanContext(sampled=True, origin="cam"),
                         delivery_attempt=3)
        minimal = DataTuple(values={}, seq=0, created_at=0.0)
        for data in (full, minimal):
            fields = {"seq": data.seq, "created_at": data.created_at,
                      "values": data.values}
            if data.deadline is not None:
                fields["deadline"] = data.deadline
            if data.trace is not None:
                fields["trace"] = data.trace.to_dict()
            if data.delivery_attempt != 1:
                fields["delivery_attempt"] = data.delivery_attempt
            assert encode_tuple(data) == encode_value(fields)

    def test_non_canonical_field_types_still_encode(self):
        # An int created_at must take the generic path and keep its
        # historical int wire tag.
        data = DataTuple(values={"x": 1}, seq=2, created_at=0)
        result = decode_tuple(encode_tuple(data))
        assert result.created_at == 0
        assert isinstance(result.created_at, int)

    def test_out_of_range_seq_wrapped(self):
        with pytest.raises(SerializationError):
            encode_tuple(DataTuple(values={}, seq=2 ** 70))

    @given(st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(min_value=-2**60, max_value=2**60),
                  st.text(max_size=30), st.binary(max_size=30),
                  st.booleans(), st.none(),
                  st.floats(allow_nan=False, allow_infinity=False)),
        max_size=6),
        st.integers(min_value=0, max_value=2**31))
    def test_arbitrary_tuples_roundtrip(self, values, seq):
        data = DataTuple(values=values, seq=seq, created_at=0.5)
        result = decode_tuple(encode_tuple(data))
        assert result.values == values
        assert result.seq == seq


class TestSpanContextCodec:
    def test_context_rides_the_wire(self):
        data = DataTuple(values={"x": 1}, seq=7,
                         trace=SpanContext(sampled=True, origin="camera"))
        result = decode_tuple(encode_tuple(data))
        assert result.trace is not None
        assert result.trace.sampled is True
        assert result.trace.origin == "camera"

    def test_unsampled_context_roundtrips(self):
        data = DataTuple(values={}, seq=1,
                         trace=SpanContext(sampled=False, origin=""))
        result = decode_tuple(encode_tuple(data))
        assert result.trace is not None
        assert result.trace.sampled is False

    def test_absent_context_decodes_as_none(self):
        data = DataTuple(values={"x": 1}, seq=3)
        result = decode_tuple(encode_tuple(data))
        assert result.trace is None

    def test_context_survives_derive(self):
        data = DataTuple(values={"x": 1}, seq=9,
                         trace=SpanContext(sampled=True, origin="src"))
        derived = data.derive(values={"y": 2})
        assert derived.trace is data.trace
