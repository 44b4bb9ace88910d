"""Control- and data-plane message envelopes.

Every frame on a channel is one envelope: a message kind plus a payload
dict, encoded with the binary tuple codec.  The kinds mirror the Swing
workflow (Fig. 3): workers JOIN, the master DEPLOYs function units and
peer addresses, START/STOP drive execution, DATA carries tuples, ACK
carries the timestamp echo + measured processing delay back upstream —
one ACK per served frame, or one echo for several frames served from
one upstream edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.core.exceptions import SerializationError
from repro.runtime.serialization import decode_envelope, encode_envelope

JOIN = "join"
WELCOME = "welcome"
DEPLOY = "deploy"
START = "start"
STOP = "stop"
DATA = "data"
BATCH = "batch"
ACK = "ack"
HEARTBEAT = "heartbeat"
LEAVE = "leave"
LEAVING = "leaving"

_KINDS = frozenset({JOIN, WELCOME, DEPLOY, START, STOP, DATA, BATCH, ACK,
                    HEARTBEAT, LEAVE, LEAVING})

_NUMBER = (int, float)
_OPTIONAL = (("tenant", (str, type(None))), ("edge", (str, type(None))),
             ("delivery_attempt", (int, type(None))))
#: the payload shape of an ACK that echoes several units (it carries
#: ``heads``); not a message kind
_ECHO = "echo"
#: per-tuple kinds (and the echo): the payload fields a receiver indexes,
#: with the types it handles (an int passes for a float; ``None`` = may
#: be absent)
_FIELDS = {
    DATA: (("unit", str), ("tuple", bytes), ("seq", int),
           ("sent_at", _NUMBER)) + _OPTIONAL,
    BATCH: (("unit", str), ("batch", bytes), ("seqs", list),
            ("sent_at", _NUMBER)) + _OPTIONAL,
    ACK: (("seq", int), ("processing_delay", _NUMBER),
          ("seqs", (list, type(None))), ("edge", (str, type(None)))),
    _ECHO: (("heads", list), ("counts", list), ("delays", list),
            ("seq", int), ("edge", (str, type(None)))),
}
#: the type every member of a list field must have
_MEMBERS = {"seqs": int, "heads": int, "counts": int, "delays": _NUMBER}


@dataclass
class Message:
    """One framed message: a kind tag and a payload dictionary."""

    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SerializationError("unknown message kind %r" % self.kind)

    def encode(self) -> bytes:
        return encode_envelope(self.kind, self.payload)

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Decode one frame; a non-dict payload, or a DATA/BATCH/ACK
        frame missing a field its receiver indexes or carrying one of
        the wrong type, is a :class:`SerializationError` — and so is an
        echo whose lists differ in length or count a unit of no tuple."""
        kind, payload = decode_envelope(data)
        if not isinstance(kind, str) or not isinstance(payload, dict):
            raise SerializationError("malformed message frame")
        shape = _ECHO if kind == ACK and "heads" in payload else kind
        for name, types in _FIELDS.get(shape, ()):
            value = payload.get(name)
            if not isinstance(value, types) or (
                    isinstance(value, list) and not all(
                        isinstance(member, _MEMBERS[name])
                        for member in value)):
                raise SerializationError("%s frame with a missing or "
                                         "malformed %r" % (kind, name))
        if shape == _ECHO and not (
                len(payload["heads"]) == len(payload["counts"])
                == len(payload["delays"]) > 0
                and min(payload["counts"]) >= 1):
            raise SerializationError("echo with unmatched heads, counts "
                                     "and delays")
        return cls(kind=kind, payload=payload)


def join_message(worker_id: str, units: list = (),
                 epoch: int = 0) -> Message:
    """Worker registration, optionally carrying its hosted inventory.

    A re-registration after a master recovery lists the worker's
    ``(tenant:unit)`` keys in *units* and echoes the *epoch* it adopted,
    so the recovered master can reconcile its checkpoint against live
    state.  Both fields stay absent on a fresh join (byte-identity).
    """
    message = Message(JOIN, {"worker_id": worker_id})
    if units:
        message.payload["units"] = list(units)
    if epoch:
        message.payload["epoch"] = epoch
    return message


def welcome_message(worker_id: str, epoch: int = 0) -> Message:
    message = Message(WELCOME, {"worker_id": worker_id})
    if epoch:
        message.payload["epoch"] = epoch
    return message


def deploy_message(worker_id: str, unit_names: list,
                   downstream_map: Dict[str, list],
                   tenant: str = "", epoch: int = 0) -> Message:
    """Assign *unit_names* to a worker and describe its downstream peers.

    ``downstream_map`` maps each assigned unit name to the list of
    (unit, worker) instance IDs it must route results to.  A non-default
    *tenant* scopes the deployment: the receiving worker reconciles only
    that tenant's units, leaving other tenants' assignments untouched.
    A non-zero *epoch* fences the deployment: workers reject it when
    they have already adopted a newer master incarnation.
    """
    message = Message(DEPLOY, {
        "worker_id": worker_id,
        "unit_names": list(unit_names),
        "downstream_map": {name: list(ids)
                           for name, ids in downstream_map.items()},
    })
    if tenant:
        message.payload["tenant"] = tenant
    if epoch:
        message.payload["epoch"] = epoch
    return message


def start_message(tenant: str = "", epoch: int = 0) -> Message:
    message = Message(START)
    if tenant:
        message.payload["tenant"] = tenant
    if epoch:
        message.payload["epoch"] = epoch
    return message


def stop_message(tenant: str = "", epoch: int = 0) -> Message:
    message = Message(STOP)
    if tenant:
        message.payload["tenant"] = tenant
    if epoch:
        message.payload["epoch"] = epoch
    return message


def data_message(unit_name: str, payload: bytes, seq: int,
                 sent_at: float, tenant: str = "") -> Message:
    """A tuple bound for *unit_name* on the receiving worker."""
    message = Message(DATA, {"unit": unit_name, "tuple": payload,
                             "seq": seq, "sent_at": sent_at})
    if tenant:
        message.payload["tenant"] = tenant
    return message


def batch_message(unit_name: str, frame: bytes, seqs: list,
                  sent_at: float, tenant: str = "") -> Message:
    """One batched flush bound for *unit_name*: many tuples, one envelope.

    ``frame`` is :func:`~repro.runtime.serialization.encode_batch`
    output; ``seqs`` lists the member seqs in frame order (the first is
    the head seq keying the upstream's pending/replay entries).  Batches
    of one are never sent this way — the dispatcher emits the legacy
    :func:`data_message` so the size-1 wire format stays byte-identical.
    """
    message = Message(BATCH, {"unit": unit_name, "batch": frame,
                              "seqs": list(seqs), "sent_at": sent_at})
    if tenant:
        message.payload["tenant"] = tenant
    return message


def ack_message(seq: int, sent_at: float, processing_delay: float,
                epoch: int = 0) -> Message:
    """The timestamp echo of paper Sec. V-B, with W_i piggybacked.

    A non-zero *epoch* echoes the master incarnation the worker has
    adopted (absent at epoch 0 so steady-state frames stay
    byte-identical).  ACKs are never fenced — a late ACK is still a
    true delivery receipt — the echo only propagates epoch awareness.
    """
    message = Message(ACK, {"seq": seq, "sent_at": sent_at,
                            "processing_delay": processing_delay})
    if epoch:
        message.payload["epoch"] = epoch
    return message


def batch_ack_message(seqs: list, sent_at: float,
                      processing_delay: float, epoch: int = 0) -> Message:
    """One timestamp echo acknowledging a whole batch.

    ``processing_delay`` is the mean per-tuple compute time of the
    batch — the W_i estimate a batch contributes, comparable to the
    per-tuple echoes it replaces.
    """
    message = Message(ACK, {"seqs": list(seqs), "seq": seqs[0],
                            "sent_at": sent_at,
                            "processing_delay": processing_delay})
    if epoch:
        message.payload["epoch"] = epoch
    return message


def echo_message(heads: list, counts: list, delays: list,
                 epoch: int = 0) -> Message:
    """One ACK for several units a worker served from one upstream edge.

    Unit *i* is the frame headed by ``heads[i]``, of ``counts[i]``
    tuples, and ``delays[i]`` is the processing delay its own ACK would
    carry (W_i: the compute time of a DATA tuple, the mean per member of
    a BATCH).  There is no per-unit ``sent_at``, which no receiver
    reads; ``seq`` is the first head, so whatever reads an ACK's
    ``seq`` still finds one.  *epoch* as in :func:`ack_message`.
    """
    message = Message(ACK, {"heads": list(heads), "counts": list(counts),
                            "delays": list(delays), "seq": heads[0]})
    if epoch:
        message.payload["epoch"] = epoch
    return message


def leave_message(worker_id: str) -> Message:
    return Message(LEAVE, {"worker_id": worker_id})


def leaving_message(worker_id: str) -> Message:
    """Graceful-drain announcement: stop routing new tuples to me.

    Unlike :func:`leave_message` (the departure is already effective),
    LEAVING starts a drain: the master removes the worker from routing
    while the worker keeps running until its queue is empty.
    """
    return Message(LEAVING, {"worker_id": worker_id})
