"""Serialization Service (paper Sec. IV-C).

SEEP serializes tuples with Kryo; Swing extends it so customized objects
(image containers, sensor vectors, audio segments) are transformed into
byte arrays at the sender and reconstructed at the receiver.  We
implement a compact, self-describing binary codec from scratch — no
pickle, so a malicious peer cannot execute code through the data plane.

Supported value types: None, bool, int, float, str, bytes, list, tuple,
dict (string keys), and numpy arrays and scalars.  numpy is imported
only when one of its values reaches the codec — to encode, once a numpy
value exists (so numpy was imported by its maker); to decode, at the
first array tag — so a device whose tuples carry no arrays never loads
it.

On top of the per-value codec sits the batched frame format of the
batched data plane: :func:`encode_batch` concatenates many encoded
tuples behind a magic byte with length-prefixed sub-tuples, and
:func:`decode_batch` reconstructs them with a zero-copy reader — every
``bytes`` / ndarray payload is a :class:`memoryview` slice of (or an
ndarray view over) the received frame rather than a copy, so a 64-tuple
camera batch is decoded without 64 payload copies.  A batch of one is
emitted in the legacy single-tuple wire format, byte-identical to what
this module produced before batching existed, which keeps mixed-version
peers and the sim/runtime parity tests working unchanged.

One decoder walks a frame by integer offsets (:func:`_decode_at`), and
it and :func:`encode_value` define the format.  The frames that cross
once per tuple have fixed layouts written and read by offset, each a
twin of those two: a tuple's header and flat ``values`` dict, and the
DATA, BATCH and ACK envelopes (an ACK of one unit or an echo of
several).  A value or frame off its layout goes
through the general pair.  Every failure either way is a
:class:`SerializationError`.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.exceptions import SerializationError
from repro.core.tuples import DataTuple
from repro.trace.spans import SpanContext

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_TUPLE = b"t"
_TAG_DICT = b"d"
_TAG_NDARRAY = b"a"

# Decode dispatches on the tag's integer value (one index, no slice).
(_ORD_NONE, _ORD_TRUE, _ORD_FALSE, _ORD_INT, _ORD_FLOAT, _ORD_STR, _ORD_BYTES,
 _ORD_LIST, _ORD_TUPLE, _ORD_DICT, _ORD_NDARRAY) = b"".join((
     _TAG_NONE, _TAG_TRUE, _TAG_FALSE, _TAG_INT, _TAG_FLOAT, _TAG_STR,
     _TAG_BYTES, _TAG_LIST, _TAG_TUPLE, _TAG_DICT, _TAG_NDARRAY))

#: guards against hostile or corrupt length prefixes
MAX_ENCODED_BYTES = 256 * 1024 * 1024

#: nesting bound for both directions of the codec: deep enough for any
#: real tuple, shallow enough that a hostile peer cannot blow the
#: recursion limit of a worker thread with a nesting bomb
MAX_DEPTH = 64

#: first byte of a multi-tuple frame; deliberately not a valid value
#: tag, so single-tuple frames (which always start with the dict tag)
#: and batch frames are distinguishable from their first byte
BATCH_MAGIC = 0x80
_BATCH_MAGIC_BYTE = bytes([BATCH_MAGIC])

#: sanity bound on the declared tuple count of one batch frame
MAX_BATCH_TUPLES = 65536

# Prebound packers: struct.Struct avoids the per-call format parse, and
# a tag packed with its scalar or length is one call and one part.
_PACK_U32 = struct.Struct(">I")
_TAGGED_I64 = struct.Struct(">cq")
_TAGGED_F64 = struct.Struct(">cd")
_TAGGED_U32 = struct.Struct(">cI")
_U32_AT = _PACK_U32.unpack_from
_I64_AT = struct.Struct(">q").unpack_from
_F64_AT = struct.Struct(">d").unpack_from

#: what reading past the end of a frame raises inside the decoder
_TRUNCATED = (IndexError, struct.error)


def encode_value(value: Any) -> bytes:
    """Encode one value into the self-describing binary format.

    Every failure — unsupported type, out-of-range scalar, unencodable
    string, pathological nesting — raises :class:`SerializationError`;
    no other exception type escapes, so callers sitting on the data
    plane never crash on a hostile value.
    """
    out: List[bytes] = []
    try:
        _encode_into(value, out, 0)
    except (struct.error, UnicodeEncodeError) as error:
        # e.g. an int outside the signed-64-bit wire range, a lone
        # surrogate in a str
        raise SerializationError("unencodable field value: %s" % error) \
            from error
    return b"".join(out)


def _encode_into(value: Any, out: List[bytes], depth: int) -> None:
    if depth > MAX_DEPTH:
        raise SerializationError("value nesting exceeds depth limit %d"
                                 % MAX_DEPTH)
    # Exact types first: one identity test each, no MRO walk.
    kind = type(value)
    if kind is str:
        data = value.encode("utf-8")
        out.append(_TAGGED_U32.pack(_TAG_STR, len(data)))
        out.append(data)
    elif kind is int:
        out.append(_TAGGED_I64.pack(_TAG_INT, value))
    elif kind is float:
        out.append(_TAGGED_F64.pack(_TAG_FLOAT, value))
    elif kind is bytes:
        out.append(_TAGGED_U32.pack(_TAG_BYTES, len(value)))
        out.append(value)
    elif isinstance(value, dict):
        out.append(_TAGGED_U32.pack(_TAG_DICT, len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError("dict keys must be strings, got %r"
                                         % type(key).__name__)
            _encode_into(key, out, depth + 1)
            _encode_into(item, out, depth + 1)
    elif value is None:
        out.append(_TAG_NONE)
    elif value is True or value is False:
        out.append(_TAG_TRUE if value else _TAG_FALSE)
    elif isinstance(value, (list, tuple)):
        out.append(_TAGGED_U32.pack(
            _TAG_LIST if isinstance(value, list) else _TAG_TUPLE, len(value)))
        for item in value:
            _encode_into(item, out, depth + 1)
    # Subclasses travel as the plain type they extend.
    elif isinstance(value, int):
        _encode_into(int(value), out, depth)
    elif isinstance(value, float):
        _encode_into(float(value), out, depth)
    elif isinstance(value, str):
        _encode_into(str(value), out, depth)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _encode_into(bytes(value), out, depth)
    elif _is_numpy_type(kind):
        _encode_numpy(value, out, depth)
    else:
        raise SerializationError("cannot serialize value of type %r"
                                 % kind.__name__)


def _is_numpy_type(kind: type) -> bool:
    """Whether *kind* is, or derives from, a type numpy defines.

    Decided from the type alone, never from ``sys.modules``: while
    another thread is still importing numpy its module is already
    listed there, half initialised."""
    return any(getattr(base, "__module__", "").partition(".")[0] == "numpy"
               for base in kind.__mro__)


def _encode_numpy(value: Any, out: List[bytes], depth: int) -> None:
    """Encode a numpy scalar or array; its maker imported numpy, and an
    import still running in another thread finishes before this one
    returns."""
    import numpy as np
    if isinstance(value, np.bool_):
        # np.bool_ is neither a Python bool nor an integer type.
        out.append(_TAG_TRUE if value else _TAG_FALSE)
    # numpy scalars travel as the plain type they stand for.
    elif isinstance(value, np.integer):
        _encode_into(int(value), out, depth)
    elif isinstance(value, np.floating):
        _encode_into(float(value), out, depth)
    elif isinstance(value, np.ndarray):
        dtype, shape = value.dtype.str.encode("ascii"), value.shape
        payload = np.ascontiguousarray(value).tobytes()
        out.append(struct.pack(">cB%dsB%dqI" % (len(dtype), len(shape)),
                               _TAG_NDARRAY, len(dtype), dtype, len(shape),
                               *shape, len(payload)))
        out.append(payload)
    else:
        raise SerializationError("cannot serialize value of type %r"
                                 % type(value).__name__)


def _frame(data: Union[bytes, bytearray, memoryview],
           zero_copy: bool) -> Tuple[bytes, Optional[memoryview]]:
    """The frame as ``bytes`` to parse, and — in zero-copy mode — a flat
    view of the caller's buffer to slice payloads from."""
    views = None
    if zero_copy or type(data) is not bytes:
        views = data if isinstance(data, memoryview) else memoryview(data)
        if views.ndim != 1 or views.itemsize != 1:
            views = views.cast("B")
        if type(data) is not bytes:
            data = bytes(views)
    return data, views if zero_copy else None


def decode_value(data: Union[bytes, bytearray, memoryview]) -> Any:
    """Decode a value produced by :func:`encode_value`."""
    buf, _ = _frame(data, False)
    try:
        value, pos = _decode_at(buf, 0, 0, None)
    except _TRUNCATED as error:
        raise SerializationError("truncated payload") from error
    _check_end(pos, len(buf))
    return value


def _check_end(pos: int, end: int) -> None:
    if pos != end:
        raise SerializationError("%d trailing bytes after value" % (end - pos)
                                 if pos < end else "truncated payload")


def _decode_at(buf: bytes, pos: int, depth: int,
               views: Optional[memoryview]) -> Tuple[Any, int]:
    """Decode the value starting at *pos*; returns it and the offset
    just past it.  With *views* (zero-copy mode) ``bytes`` values are
    memoryview slices of it and ndarrays read-only views over it;
    otherwise payloads are copied out of *buf*.

    Truncation is never checked twice: reading past the end raises
    ``IndexError`` / ``struct.error`` (reported by the public entry
    points), and a length that runs past it returns an offset beyond
    it, which every caller rejects — by reading there or by the end
    check."""
    if depth > MAX_DEPTH:
        raise SerializationError("payload nesting exceeds depth limit %d"
                                 % MAX_DEPTH)
    tag = buf[pos]
    if tag == _ORD_STR or tag == _ORD_BYTES:
        start = pos + 5
        end = start + _U32_AT(buf, pos + 1)[0]
        if tag == _ORD_BYTES:
            return (buf[start:end] if views is None
                    else views[start:end]), end
        try:
            return buf[start:end].decode("utf-8"), end
        except UnicodeDecodeError as error:
            raise SerializationError("malformed utf-8 string") from error
    if tag == _ORD_INT:
        return _I64_AT(buf, pos + 1)[0], pos + 9
    if tag == _ORD_FLOAT:
        return _F64_AT(buf, pos + 1)[0], pos + 9
    if tag == _ORD_DICT:
        return _decode_items(buf, pos + 5, _U32_AT(buf, pos + 1)[0], {},
                             depth + 1, views)
    if tag == _ORD_LIST or tag == _ORD_TUPLE:
        count = _U32_AT(buf, pos + 1)[0]
        pos += 5
        items = []
        for _ in range(count):
            item, pos = _decode_at(buf, pos, depth + 1, views)
            items.append(item)
        return (items if tag == _ORD_LIST else tuple(items)), pos
    if tag == _ORD_NONE:
        return None, pos + 1
    if tag == _ORD_TRUE:
        return True, pos + 1
    if tag == _ORD_FALSE:
        return False, pos + 1
    if tag == _ORD_NDARRAY:
        return _decode_ndarray(buf, pos + 1, views)
    raise SerializationError("unknown type tag %r" % bytes([tag]))


def _decode_items(buf: bytes, pos: int, count: int, result: dict,
                  depth: int, views: Optional[memoryview]
                  ) -> Tuple[dict, int]:
    """Read *count* key/value pairs at *depth* into *result*."""
    for _ in range(count):
        if buf[pos] == _ORD_STR:  # a key: read in place, no dispatch
            start = pos + 5
            pos = start + _U32_AT(buf, pos + 1)[0]
            try:
                key = buf[start:pos].decode("utf-8")
            except UnicodeDecodeError as error:
                raise SerializationError("malformed utf-8 string") from error
        else:
            key, pos = _decode_at(buf, pos, depth, views)
        value, pos = _decode_at(buf, pos, depth, views)
        try:
            result[key] = value
        except TypeError as error:  # corrupt frame decoding to dict key
            raise SerializationError("unhashable dict key") from error
    return result, pos


def _decode_ndarray(buf: bytes, pos: int,
                    views: Optional[memoryview]) -> Tuple[Any, int]:
    import numpy as np  # loaded by the first array a device receives
    start = pos + 1
    pos = start + buf[pos]
    try:  # UnicodeDecodeError is a ValueError; numpy parses comma
        # lists of field formats, and some fail as a SyntaxError
        dtype = np.dtype(buf[start:pos].decode("ascii"))
    except (TypeError, ValueError, SyntaxError) as error:
        raise SerializationError("bad array dtype %r" % buf[start:pos]) \
            from error
    ndim = buf[pos]
    shape = struct.unpack_from(">%dq" % ndim, buf, pos + 1)
    pos += 1 + 8 * ndim
    expected = dtype.itemsize
    for dim in shape:
        if dim < 0:
            raise SerializationError("negative array dimension")
        expected *= dim
    length = _U32_AT(buf, pos)[0]
    # Enforced for every rank, scalars (shape ()) included: a 0-length
    # or padded scalar payload must fail here, not reach frombuffer.
    if length != expected:
        raise SerializationError("array payload size mismatch")
    start = pos + 4
    pos = start + length
    payload = buf[start:pos] if views is None else views[start:pos]
    try:
        array = np.frombuffer(payload, dtype=dtype)
        return (array.reshape(shape) if shape else array.reshape(())), pos
    except (TypeError, ValueError) as error:
        raise SerializationError("malformed array payload") from error


# Pre-encoded envelope keys: the tuple envelope is a dict with a fixed
# key set, so its string keys never need to pass through the generic
# encoder on the per-tuple hot path.
(_KEY_SEQ, _KEY_CREATED_AT, _KEY_VALUES, _KEY_DEADLINE, _KEY_TRACE,
 _KEY_DELIVERY_ATTEMPT, _KEY_TENANT, _KEY_KEY) = map(encode_value, (
     "seq", "created_at", "values", "deadline", "trace", "delivery_attempt",
     "tenant", "key"))

#: the canonical tuple header: dict tag + field count, ``seq`` (int),
#: ``created_at`` (float), then the ``values`` key — one pack on the way
#: out, one unpack on the way in
_TUPLE_HEAD = struct.Struct(">BI%dsq%dsd%ds" % (
    len(_KEY_SEQ) + 1, len(_KEY_CREATED_AT) + 1, len(_KEY_VALUES)))
_SEQ_INT = _KEY_SEQ + _TAG_INT
_CREATED_AT_FLOAT = _KEY_CREATED_AT + _TAG_FLOAT


def encode_tuple(data: DataTuple) -> bytes:
    """Serialize a :class:`DataTuple` (values + routing metadata).

    The envelope is emitted directly from precomputed key bytes —
    byte-identical to encoding the equivalent field dict through
    :func:`encode_value`, which defines the format, but without ~7
    generic dispatches per tuple.  Absent optional fields stay off the
    wire; an ``int`` seq and ``float`` created_at (the canonical types)
    are packed with the keys in one header.
    """
    seq, created_at, deadline = data.seq, data.created_at, data.deadline
    trace, attempt, tenant, key = (data.trace, data.delivery_attempt,
                                   data.tenant, data.key)
    count = 3 + (deadline is not None) + (trace is not None) \
        + (attempt != 1) + (tenant != "") + (key is not None)
    try:
        if type(seq) is int and type(created_at) is float:
            out = [_TUPLE_HEAD.pack(_ORD_DICT, count, _SEQ_INT, seq,
                                    _CREATED_AT_FLOAT, created_at,
                                    _KEY_VALUES)]
        else:
            out = [_TAGGED_U32.pack(_TAG_DICT, count), _KEY_SEQ]
            _encode_into(seq, out, 1)
            out.append(_KEY_CREATED_AT)
            _encode_into(created_at, out, 1)
            out.append(_KEY_VALUES)
        values = data.values
        if type(values) is not dict or not _encode_flat(values, out):
            _encode_into(values, out, 1)
        if deadline is not None:
            out.append(_KEY_DEADLINE)
            _encode_into(deadline, out, 1)
        if trace is not None:
            out.append(_KEY_TRACE)
            _encode_into(trace.to_dict(), out, 1)
        if attempt != 1:
            out.append(_KEY_DELIVERY_ATTEMPT)
            _encode_into(attempt, out, 1)
        if tenant != "":
            out.append(_KEY_TENANT)
            _encode_into(tenant, out, 1)
        if key is not None:
            out.append(_KEY_KEY)
            _encode_into(key, out, 1)
    except (struct.error, UnicodeEncodeError) as error:
        raise SerializationError("unencodable field value: %s" % error) \
            from error
    body = b"".join(out)
    if len(body) > MAX_ENCODED_BYTES:
        raise SerializationError("tuple exceeds maximum encoded size")
    return body


#: encoded ``values`` keys (str tag, length, UTF-8), up to
#: _KEY_CACHE_SIZE of them and none longer than _KEY_CACHE_KEY_BYTES:
#: tuples of one job reuse a handful of short names, and a key a peer
#: sent can pin no more than this
_KEY_CACHE: Dict[str, bytes] = {}
_KEY_CACHE_SIZE = 1024
_KEY_CACHE_KEY_BYTES = 64


def _encode_flat(values: dict, out: List[bytes]) -> bool:
    """``_encode_into(values, out, 1)`` for a dict with exact-``str`` keys,
    written inline for int, float, str, bytes and C-contiguous memoryview
    values (anything else goes through :func:`_encode_into`).  Returns
    False, with *out* untouched, at the first key of another type."""
    parts = [_TAGGED_U32.pack(_TAG_DICT, len(values))]
    append = parts.append
    for key, value in values.items():
        if type(key) is not str:
            return False
        head = _KEY_CACHE.get(key)
        if head is None:
            data = key.encode("utf-8")
            head = _TAGGED_U32.pack(_TAG_STR, len(data)) + data
            if len(data) <= _KEY_CACHE_KEY_BYTES \
                    and len(_KEY_CACHE) < _KEY_CACHE_SIZE:
                _KEY_CACHE[key] = head
        append(head)
        kind = type(value)
        if kind is int:
            append(_TAGGED_I64.pack(_TAG_INT, value))
        elif kind is bytes:
            append(_TAGGED_U32.pack(_TAG_BYTES, len(value)))
            append(value)
        elif kind is float:
            append(_TAGGED_F64.pack(_TAG_FLOAT, value))
        elif kind is str:
            data = value.encode("utf-8")
            append(_TAGGED_U32.pack(_TAG_STR, len(data)))
            append(data)
        elif kind is memoryview and value.c_contiguous:
            # a zero-copy value forwarded as is: joined, not copied
            append(_TAGGED_U32.pack(_TAG_BYTES, value.nbytes))
            append(value)
        else:
            _encode_into(value, parts, 2)
    out += parts
    return True


def _decode_flat(buf: bytes, pos: int,
                 views: Optional[memoryview]) -> Tuple[Any, int]:
    """``_decode_at(buf, pos, 1, views)`` for a ``values`` dict: str keys
    and int, float, str and bytes values are read inline (others through
    :func:`_decode_at`); anything but a dict with str-tagged keys is left
    to :func:`_decode_at` from *pos*."""
    if buf[pos] != _ORD_DICT:
        return _decode_at(buf, pos, 1, views)
    first = pos
    count = _U32_AT(buf, pos + 1)[0]
    pos += 5
    values = {}
    for _ in range(count):
        if buf[pos] != _ORD_STR:
            return _decode_at(buf, first, 1, views)
        start = pos + 5
        pos = start + _U32_AT(buf, pos + 1)[0]
        try:
            key = buf[start:pos].decode("utf-8")
            tag = buf[pos]
            if tag == _ORD_INT:
                value = _I64_AT(buf, pos + 1)[0]
                pos += 9
            elif tag == _ORD_BYTES:
                start = pos + 5
                pos = start + _U32_AT(buf, pos + 1)[0]
                value = buf[start:pos] if views is None else views[start:pos]
            elif tag == _ORD_FLOAT:
                value = _F64_AT(buf, pos + 1)[0]
                pos += 9
            elif tag == _ORD_STR:
                start = pos + 5
                pos = start + _U32_AT(buf, pos + 1)[0]
                value = buf[start:pos].decode("utf-8")
            else:
                value, pos = _decode_at(buf, pos, 2, views)
        except UnicodeDecodeError as error:
            raise SerializationError("malformed utf-8 string") from error
        values[key] = value
    return values, pos


def decode_tuple(payload: Union[bytes, bytearray, memoryview]) -> DataTuple:
    """Reconstruct a :class:`DataTuple` from :func:`encode_tuple` output."""
    buf, _ = _frame(payload, False)
    try:
        return _decode_tuple_at(buf, 0, len(buf), None)
    except _TRUNCATED as error:
        raise SerializationError("truncated payload") from error


def _decode_tuple_at(buf: bytes, start: int, end: int,
                     views: Optional[memoryview]) -> DataTuple:
    """The tuple filling ``buf[start:end]``.  :func:`encode_tuple`'s
    canonical header is read in one unpack; the rest, and any frame
    without that header, go through the general decoder alone."""
    if end - start > _TUPLE_HEAD.size:
        tag, count, seq_key, seq, created_key, created_at, values_key = \
            _TUPLE_HEAD.unpack_from(buf, start)
        if (tag == _ORD_DICT and count >= 3 and seq_key == _SEQ_INT
                and created_key == _CREATED_AT_FLOAT
                and values_key == _KEY_VALUES):
            values, pos = _decode_flat(buf, start + _TUPLE_HEAD.size, views)
            if count == 3:
                _check_end(pos, end)
                return DataTuple(values=values, seq=seq,
                                 created_at=created_at)
            fields, pos = _decode_items(
                buf, pos, count - 3,
                {"seq": seq, "created_at": created_at, "values": values},
                1, views)
            _check_end(pos, end)
            return _tuple_from_fields(fields)
    decoded, pos = _decode_at(buf, start, 0, views)
    _check_end(pos, end)
    if not isinstance(decoded, dict) \
            or not {"seq", "created_at", "values"} <= set(decoded):
        raise SerializationError("payload is not an encoded tuple")
    return _tuple_from_fields(decoded)


def _tuple_from_fields(fields: Dict[str, Any]) -> DataTuple:
    return DataTuple(values=fields["values"], seq=fields["seq"],
                     created_at=fields["created_at"],
                     deadline=fields.get("deadline"),
                     trace=SpanContext.from_dict(fields.get("trace")),
                     delivery_attempt=fields.get("delivery_attempt", 1),
                     tenant=fields.get("tenant", ""),
                     key=fields.get("key"))


# -- message envelopes ----------------------------------------------------
#: ``{"kind": <str>, "payload": <dict>}`` as encode_value writes it: the
#: bytes before the kind, and those between the kind and the payload's
#: field count
_ENVELOPE_KIND = _TAGGED_U32.pack(_TAG_DICT, 2) + encode_value("kind")
_ENVELOPE_PAYLOAD = encode_value("payload") + _TAG_DICT


def encode_envelope(kind: str, payload: Any) -> bytes:
    """``encode_value({"kind": kind, "payload": payload})``.  A per-tuple
    frame whose payload has the fields, order and types of a fixed layout
    (below) is written by that layout, byte for byte the same."""
    if type(payload) is dict and type(kind) is str:
        encode = _LAYOUT_ENCODERS.get((kind, tuple(payload)))
        if encode is not None:
            try:
                frame = encode(payload)
            except (struct.error, UnicodeEncodeError):
                frame = None  # the general encoder reports it
            if frame is not None:
                return frame
    return encode_value({"kind": kind, "payload": payload})


def decode_envelope(data: Union[bytes, bytearray, memoryview]
                    ) -> Tuple[Any, Any]:
    """Decode :func:`encode_envelope` output into ``(kind, payload)``,
    for the caller to type-check.  A frame that matches a fixed layout
    (below) is read by it; any other goes through the general decoder,
    and one without a payload reads as ``{}``."""
    buf, _ = _frame(data, False)
    for head, kind, decode in _LAYOUT_DECODERS:
        if buf.startswith(head):
            try:
                payload = decode(buf, len(head))
            except (IndexError, struct.error, UnicodeDecodeError):
                payload = None  # the general decoder reports it
            if payload is not None:
                return kind, payload
            break
    try:
        decoded, pos = _decode_at(buf, 0, 0, None)
    except _TRUNCATED as error:
        raise SerializationError("truncated payload") from error
    _check_end(pos, len(buf))
    if not isinstance(decoded, dict):
        raise SerializationError("malformed message frame")
    return decoded.get("kind"), decoded.get("payload", {})


# -- fixed per-tuple layouts ----------------------------------------------
# DATA   unit tuple seq sent_at [tenant] edge [delivery_attempt]
# BATCH  unit batch seqs sent_at [tenant] edge [delivery_attempt]
# ACK    [seqs] seq sent_at processing_delay [epoch] edge
# echo   heads counts delays seq [epoch] edge   (an ACK of several units)
#
# Each field has one type (str, bytes, int, float, or a non-empty list of
# int for ``seqs``, ``heads`` and ``counts``, of float for ``delays``);
# its key and type tag are one constant, packed and
# compared as a ``%ds`` field next to the scalars and lengths around it.
# An encoder returns None, and a decoder returns None or lets a read past
# the end raise, where the payload or frame leaves its layout: the
# general path then decides, so each layout is a twin of
# encode_value / _decode_at.
def _keyed(name: str, tag: bytes) -> bytes:
    return encode_value(name) + tag


def _layout(*parts: Union[bytes, str]) -> struct.Struct:
    """A big-endian struct of constant byte strings and format codes."""
    return struct.Struct(">" + "".join(
        part if isinstance(part, str) else "%ds" % len(part)
        for part in parts))


def _head(kind: str) -> bytes:
    return _ENVELOPE_KIND + encode_value(kind) + _ENVELOPE_PAYLOAD


_DATA_HEAD, _BATCH_HEAD, _ACK_HEAD = map(_head, ("data", "batch", "ack"))
_K_UNIT = _keyed("unit", _TAG_STR)
_K_TUPLE = _keyed("tuple", _TAG_BYTES)
_K_BATCH = _keyed("batch", _TAG_BYTES)
_K_SEQ = _keyed("seq", _TAG_INT)
_K_SEQS = _keyed("seqs", _TAG_LIST)
_K_SENT_AT = _keyed("sent_at", _TAG_FLOAT)
_K_DELAY = _keyed("processing_delay", _TAG_FLOAT)
_K_TENANT = _keyed("tenant", _TAG_STR)
_K_EDGE = _keyed("edge", _TAG_STR)
_K_ATTEMPT = _keyed("delivery_attempt", _TAG_INT)
_K_EPOCH = _keyed("epoch", _TAG_INT)
_K_HEADS = _keyed("heads", _TAG_LIST)
_K_COUNTS = _keyed("counts", _TAG_LIST)
_K_DELAYS = _keyed("delays", _TAG_LIST)

_UNIT = _layout("I", _K_UNIT, "I")  # field count, then the unit's length
_TUPLE = _layout(_K_TUPLE, "I")
_BATCH = _layout(_K_BATCH, "I")
_SEQ_SENT_AT = _layout(_K_SEQ, "q", _K_SENT_AT, "d")
_SENT_AT = _layout(_K_SENT_AT, "d")
_TENANT = _layout(_K_TENANT, "I")
_EDGE = _layout(_K_EDGE, "I")
_ATTEMPT = _layout(_K_ATTEMPT, "q")
_ACK = _layout(_K_SEQ, "q", _K_SENT_AT, "d", _K_DELAY, "d")
_EPOCH = _layout(_K_EPOCH, "q")
_SEQ = _layout(_K_SEQ, "q")
#: a list field: its key and count, then its members, each tagged
_LIST_HEADS = {key: _layout(key, "I")
               for key in (_K_SEQS, _K_HEADS, _K_COUNTS, _K_DELAYS)}
_MEMBERS = {int: (_TAGGED_I64, _TAG_INT), float: (_TAGGED_F64, _TAG_FLOAT)}
#: the echo's lists, in wire order: (payload key, key constant, member type)
_ECHO_LISTS = (("heads", _K_HEADS, int), ("counts", _K_COUNTS, int),
               ("delays", _K_DELAYS, float))


def _encode_list(key: bytes, values: Any, kind: type,
                 out: List[bytes]) -> bool:
    """A non-empty list whose members are all exactly *kind*."""
    if type(values) is not list or not values \
            or set(map(type, values)) != {kind}:
        return False
    member, tag = _MEMBERS[kind]
    out.append(_LIST_HEADS[key].pack(key, len(values)))
    out += [member.pack(tag, value) for value in values]
    return True


def _decode_list(buf: bytes, pos: int, key: bytes,
                 kind: type) -> Tuple[Optional[list], int]:
    """The members of the list *key*, *kind*-tagged values in a row, read
    by one ``iter_unpack`` over a view of the frame: the declared count
    costs nothing beyond the list the walker would build."""
    head = _LIST_HEADS[key]
    member, tag = _MEMBERS[kind]
    found, count = head.unpack_from(buf, pos)
    pos += head.size
    end = pos + member.size * count
    if found != key or not count or end > len(buf):
        return None, pos
    values = []
    for member_tag, value in member.iter_unpack(memoryview(buf)[pos:end]):
        if member_tag != tag:
            return None, pos
        values.append(value)
    return values, end


def _encode_tail(payload: dict, out: List[bytes]) -> Optional[bytes]:
    """DATA and BATCH after ``sent_at``: [tenant] edge [attempt]."""
    if "tenant" in payload:
        tenant = payload["tenant"]
        if type(tenant) is not str:
            return None
        tenant = tenant.encode("utf-8")
        out += (_TENANT.pack(_K_TENANT, len(tenant)), tenant)
    edge = payload["edge"]
    if type(edge) is not str:
        return None
    edge = edge.encode("utf-8")
    out += (_EDGE.pack(_K_EDGE, len(edge)), edge)
    if "delivery_attempt" in payload:
        attempt = payload["delivery_attempt"]
        if type(attempt) is not int:
            return None
        out.append(_ATTEMPT.pack(_K_ATTEMPT, attempt))
    return b"".join(out)


def _decode_tail(buf: bytes, pos: int, left: int,
                 payload: dict) -> Optional[dict]:
    """The *left* DATA or BATCH fields after ``sent_at``."""
    if buf.startswith(_K_TENANT, pos):
        size = _TENANT.unpack_from(buf, pos)[1]
        pos += _TENANT.size
        payload["tenant"] = buf[pos:pos + size].decode("utf-8")
        pos += size
        left -= 1
    edge_key, size = _EDGE.unpack_from(buf, pos)
    pos += _EDGE.size
    payload["edge"] = buf[pos:pos + size].decode("utf-8")
    pos += size
    if left == 2:
        attempt_key, attempt = _ATTEMPT.unpack_from(buf, pos)
        if attempt_key != _K_ATTEMPT:
            return None
        payload["delivery_attempt"] = attempt
        pos += _ATTEMPT.size
        left = 1
    if edge_key != _K_EDGE or left != 1 or pos != len(buf):
        return None
    return payload


def _encode_data(payload: dict) -> Optional[bytes]:
    unit, body, seq, sent_at = (payload["unit"], payload["tuple"],
                                payload["seq"], payload["sent_at"])
    if type(unit) is not str or type(body) is not bytes \
            or type(seq) is not int or type(sent_at) is not float:
        return None
    unit = unit.encode("utf-8")
    return _encode_tail(payload, [
        _DATA_HEAD, _UNIT.pack(len(payload), _K_UNIT, len(unit)), unit,
        _TUPLE.pack(_K_TUPLE, len(body)), body,
        _SEQ_SENT_AT.pack(_K_SEQ, seq, _K_SENT_AT, sent_at)])


def _decode_data(buf: bytes, pos: int) -> Optional[dict]:
    count, unit_key, size = _UNIT.unpack_from(buf, pos)
    pos += _UNIT.size
    unit = buf[pos:pos + size]
    pos += size
    body_key, size = _TUPLE.unpack_from(buf, pos)
    pos += _TUPLE.size
    body = buf[pos:pos + size]
    pos += size
    seq_key, seq, sent_key, sent_at = _SEQ_SENT_AT.unpack_from(buf, pos)
    if unit_key != _K_UNIT or body_key != _K_TUPLE or seq_key != _K_SEQ \
            or sent_key != _K_SENT_AT:
        return None
    return _decode_tail(buf, pos + _SEQ_SENT_AT.size, count - 4, {
        "unit": unit.decode("utf-8"), "tuple": body, "seq": seq,
        "sent_at": sent_at})


def _encode_batch(payload: dict) -> Optional[bytes]:
    unit, body, sent_at = (payload["unit"], payload["batch"],
                           payload["sent_at"])
    if type(unit) is not str or type(body) is not bytes \
            or type(sent_at) is not float:
        return None
    unit = unit.encode("utf-8")
    out = [_BATCH_HEAD, _UNIT.pack(len(payload), _K_UNIT, len(unit)), unit,
           _BATCH.pack(_K_BATCH, len(body)), body]
    if not _encode_list(_K_SEQS, payload["seqs"], int, out):
        return None
    out.append(_SENT_AT.pack(_K_SENT_AT, sent_at))
    return _encode_tail(payload, out)


def _decode_batch(buf: bytes, pos: int) -> Optional[dict]:
    count, unit_key, size = _UNIT.unpack_from(buf, pos)
    pos += _UNIT.size
    unit = buf[pos:pos + size]
    pos += size
    body_key, size = _BATCH.unpack_from(buf, pos)
    pos += _BATCH.size
    body = buf[pos:pos + size]
    seqs, pos = _decode_list(buf, pos + size, _K_SEQS, int)
    sent_key, sent_at = _SENT_AT.unpack_from(buf, pos)
    if unit_key != _K_UNIT or body_key != _K_BATCH or seqs is None \
            or sent_key != _K_SENT_AT:
        return None
    return _decode_tail(buf, pos + _SENT_AT.size, count - 4, {
        "unit": unit.decode("utf-8"), "batch": body, "seqs": seqs,
        "sent_at": sent_at})


def _encode_ack(payload: dict) -> Optional[bytes]:
    seq, sent_at, delay, edge = (payload["seq"], payload["sent_at"],
                                 payload["processing_delay"], payload["edge"])
    if type(seq) is not int or type(sent_at) is not float \
            or type(delay) is not float or type(edge) is not str:
        return None
    out = [_ACK_HEAD, _PACK_U32.pack(len(payload))]
    if "seqs" in payload \
            and not _encode_list(_K_SEQS, payload["seqs"], int, out):
        return None
    out.append(_ACK.pack(_K_SEQ, seq, _K_SENT_AT, sent_at, _K_DELAY, delay))
    return _encode_ack_tail(payload, edge, out)


def _encode_echo(payload: dict) -> Optional[bytes]:
    seq, edge = payload["seq"], payload["edge"]
    if type(seq) is not int or type(edge) is not str:
        return None
    out = [_ACK_HEAD, _PACK_U32.pack(len(payload))]
    for name, key, kind in _ECHO_LISTS:
        if not _encode_list(key, payload[name], kind, out):
            return None
    out.append(_SEQ.pack(_K_SEQ, seq))
    return _encode_ack_tail(payload, edge, out)


def _encode_ack_tail(payload: dict, edge: str,
                     out: List[bytes]) -> Optional[bytes]:
    """ACK and echo after their scalars: [epoch] edge."""
    if "epoch" in payload:
        epoch = payload["epoch"]
        if type(epoch) is not int:
            return None
        out.append(_EPOCH.pack(_K_EPOCH, epoch))
    edge = edge.encode("utf-8")
    out += (_EDGE.pack(_K_EDGE, len(edge)), edge)
    return b"".join(out)


def _decode_ack(buf: bytes, pos: int) -> Optional[dict]:
    left = _U32_AT(buf, pos)[0] - 4
    pos += 4
    if buf.startswith(_K_HEADS, pos):
        return _decode_echo(buf, pos, left - 1)
    payload = {}
    if buf.startswith(_K_SEQS, pos):
        seqs, pos = _decode_list(buf, pos, _K_SEQS, int)
        if seqs is None:
            return None
        payload["seqs"] = seqs
        left -= 1
    seq_key, payload["seq"], sent_key, payload["sent_at"], delay_key, \
        payload["processing_delay"] = _ACK.unpack_from(buf, pos)
    if seq_key != _K_SEQ or sent_key != _K_SENT_AT or delay_key != _K_DELAY:
        return None
    return _decode_ack_tail(buf, pos + _ACK.size, left, payload)


def _decode_echo(buf: bytes, pos: int, left: int) -> Optional[dict]:
    """An echo's *left* + 5 fields, from its ``heads``."""
    payload = {}
    for name, key, kind in _ECHO_LISTS:
        payload[name], pos = _decode_list(buf, pos, key, kind)
        if payload[name] is None:
            return None
    seq_key, payload["seq"] = _SEQ.unpack_from(buf, pos)
    if seq_key != _K_SEQ:
        return None
    return _decode_ack_tail(buf, pos + _SEQ.size, left, payload)


def _decode_ack_tail(buf: bytes, pos: int, left: int,
                     payload: dict) -> Optional[dict]:
    """ACK and echo after their scalars: [epoch] edge, the last of the
    frame's fields once *left* more than its scalars' are read."""
    if buf.startswith(_K_EPOCH, pos):
        payload["epoch"] = _EPOCH.unpack_from(buf, pos)[1]
        pos += _EPOCH.size
        left -= 1
    edge_key, size = _EDGE.unpack_from(buf, pos)
    pos += _EDGE.size
    if edge_key != _K_EDGE or left != 0 or pos + size != len(buf):
        return None
    payload["edge"] = buf[pos:].decode("utf-8")
    return payload


#: (kind, payload keys in order) -> the layout's encoder
_LAYOUT_ENCODERS = {
    (kind, first + tenant + ("edge",) + attempt): encode
    for kind, first, encode in (
        ("data", ("unit", "tuple", "seq", "sent_at"), _encode_data),
        ("batch", ("unit", "batch", "seqs", "sent_at"), _encode_batch))
    for tenant in ((), ("tenant",))
    for attempt in ((), ("delivery_attempt",))}
_LAYOUT_ENCODERS.update(
    (("ack", seqs + ("seq", "sent_at", "processing_delay") + epoch
      + ("edge",)), _encode_ack)
    for seqs in ((), ("seqs",)) for epoch in ((), ("epoch",)))
_LAYOUT_ENCODERS.update(
    (("ack", ("heads", "counts", "delays", "seq") + epoch + ("edge",)),
     _encode_echo) for epoch in ((), ("epoch",)))
#: (constant head, kind, decoder): the frame's first bytes pick a layout
_LAYOUT_DECODERS = ((_DATA_HEAD, "data", _decode_data),
                    (_ACK_HEAD, "ack", _decode_ack),
                    (_BATCH_HEAD, "batch", _decode_batch))


# -- batched frames ------------------------------------------------------
def encode_batch(payloads: Sequence[bytes]) -> bytes:
    """Frame one batch of :func:`encode_tuple` payloads for the wire.

    A single-payload batch is passed through untouched — byte-identical
    to the legacy single-tuple format — so batching degenerates cleanly
    at size 1 and mixed-version peers interoperate.  Larger batches are
    framed as ``MAGIC | count:u32 | (len:u32 | payload)*``.
    """
    if not payloads:
        raise SerializationError("cannot encode an empty batch")
    if len(payloads) == 1:
        only = payloads[0]
        return only if isinstance(only, bytes) else bytes(only)
    if len(payloads) > MAX_BATCH_TUPLES:
        raise SerializationError("batch exceeds %d tuples" % MAX_BATCH_TUPLES)
    parts = [_BATCH_MAGIC_BYTE, _PACK_U32.pack(len(payloads))]
    total = 5
    for payload in payloads:
        parts.append(_PACK_U32.pack(len(payload)))
        parts.append(payload)
        total += 4 + len(payload)
    if total > MAX_ENCODED_BYTES:
        raise SerializationError("batch exceeds maximum encoded size")
    return b"".join(parts)


def decode_batch(frame: Union[bytes, bytearray, memoryview],
                 zero_copy: bool = True) -> List[DataTuple]:
    """Decode one wire frame into its tuples (legacy single-tuple or batch).

    With ``zero_copy`` (the default, the receive hot path) the decoded
    tuples' ``bytes`` values are memoryview slices of *frame* and their
    ndarrays are read-only views over it — nothing is copied, but the
    frame stays alive as long as any decoded value does.  Pass
    ``zero_copy=False`` to detach the tuples from the frame.
    """
    buf, views = _frame(frame, zero_copy)
    size = len(buf)
    if size == 0:
        raise SerializationError("empty frame")
    try:
        if buf[0] != BATCH_MAGIC:
            return [_decode_tuple_at(buf, 0, size, views)]
        count = _U32_AT(buf, 1)[0]
        if count == 0:
            raise SerializationError("batch frame declares zero tuples")
        if count > MAX_BATCH_TUPLES:
            raise SerializationError("batch declares %d tuples (max %d)"
                                     % (count, MAX_BATCH_TUPLES))
        tuples = []
        pos = 5
        for _ in range(count):
            start = pos + 4
            pos = start + _U32_AT(buf, pos)[0]
            if pos > size:
                raise SerializationError("truncated payload")
            tuples.append(_decode_tuple_at(buf, start, pos, views))
    except _TRUNCATED as error:
        raise SerializationError("truncated payload") from error
    if pos != size:
        raise SerializationError("%d trailing bytes after batch"
                                 % (size - pos))
    return tuples
