"""Control-frame pin: a single-app swarm's control plane, byte for byte.

The runtime serves one pipeline or many through the same master and
workers; the single pipeline is the default tenant ``""``, whose frames
carry no tenant tag.  This records every control frame (everything but
DATA/BATCH/ACK/HEARTBEAT) that ``SwingRuntime(graph, ["B", "C"])``
exchanges from ``start()`` to ``stop()`` and compares each link's
sequence of ``Message.encode()`` bytes with the bytes the single-app
runtime produced before it learned to serve several pipelines.
"""

import threading

from repro.core.function_unit import CollectingSink, IterableSource, LambdaUnit
from repro.core.graph import GraphBuilder
from repro.runtime import messages
from repro.runtime.app_runner import SwingRuntime
from repro.runtime.fabric import Fabric

_DATA_PLANE = {messages.DATA, messages.BATCH, messages.ACK,
               messages.HEARTBEAT}

EXPECTED = {
    "A>A": [
        # deploy
        bytes.fromhex(
            "640000000273000000046b696e6473000000066465706c6f7973000000077061"
            "796c6f616464000000037300000009776f726b65725f69647300000001417300"
            "00000a756e69745f6e616d65736c000000027300000003736e6b730000000373"
            "7263730000000e646f776e73747265616d5f6d61706400000001730000000a73"
            "72633e646f75626c656c000000027300000008646f75626c6540427300000008"
            "646f75626c654043"),
        # start
        bytes.fromhex(
            "640000000273000000046b696e64730000000573746172747300000007706179"
            "6c6f61646400000000"),
    ],
    "A>B": [
        # deploy
        bytes.fromhex(
            "640000000273000000046b696e6473000000066465706c6f7973000000077061"
            "796c6f616464000000037300000009776f726b65725f69647300000001427300"
            "00000a756e69745f6e616d65736c000000017300000006646f75626c65730000"
            "000e646f776e73747265616d5f6d61706400000001730000000a646f75626c65"
            "3e736e6b6c000000017300000005736e6b4041"),
        # start
        bytes.fromhex(
            "640000000273000000046b696e64730000000573746172747300000007706179"
            "6c6f61646400000000"),
        # stop
        bytes.fromhex(
            "640000000273000000046b696e64730000000473746f7073000000077061796c"
            "6f61646400000000"),
    ],
    "A>C": [
        # deploy
        bytes.fromhex(
            "640000000273000000046b696e6473000000066465706c6f7973000000077061"
            "796c6f616464000000037300000009776f726b65725f69647300000001437300"
            "00000a756e69745f6e616d65736c000000017300000006646f75626c65730000"
            "000e646f776e73747265616d5f6d61706400000001730000000a646f75626c65"
            "3e736e6b6c000000017300000005736e6b4041"),
        # start
        bytes.fromhex(
            "640000000273000000046b696e64730000000573746172747300000007706179"
            "6c6f61646400000000"),
        # stop
        bytes.fromhex(
            "640000000273000000046b696e64730000000473746f7073000000077061796c"
            "6f61646400000000"),
    ],
    "B>A": [
        # join
        bytes.fromhex(
            "640000000273000000046b696e6473000000046a6f696e73000000077061796c"
            "6f616464000000017300000009776f726b65725f6964730000000142"),
    ],
    "C>A": [
        # join
        bytes.fromhex(
            "640000000273000000046b696e6473000000046a6f696e73000000077061796c"
            "6f616464000000017300000009776f726b65725f6964730000000143"),
    ],
}


class _ControlRecorder(Fabric):
    """Notes the encoded bytes of every control frame, per link."""

    def __init__(self, inner: Fabric) -> None:
        self.inner = inner
        self.links = {}
        self._lock = threading.Lock()

    def register(self, endpoint_id):
        return self.inner.register(endpoint_id)

    def unregister(self, endpoint_id):
        self.inner.unregister(endpoint_id)

    def close(self):
        self.inner.close()

    def send(self, sender_id, target_id, message):
        if message.kind not in _DATA_PLANE:
            with self._lock:
                self.links.setdefault("%s>%s" % (sender_id, target_id),
                                      []).append(message.encode())
        self.inner.send(sender_id, target_id, message)


def test_single_app_control_frames_are_pinned():
    graph = (GraphBuilder("pin")
             .source("src", lambda: IterableSource(
                 [{"x": i} for i in range(5)]))
             .unit("double", lambda: LambdaUnit(lambda v: {"y": v["x"] * 2}))
             .sink("snk", CollectingSink)
             .chain("src", "double", "snk")
             .build())
    recorders = []

    def record(inner):
        recorders.append(_ControlRecorder(inner))
        return recorders[-1]

    runtime = SwingRuntime(graph, ["B", "C"], source_rate=200.0,
                           fabric_wrapper=record)
    runtime.start()
    runtime.stop()
    assert recorders[0].links == EXPECTED
