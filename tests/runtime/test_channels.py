"""Tests for the TCP channel."""

import socket
import struct
import threading

import pytest

from repro.core.exceptions import SerializationError
from repro.runtime import channels
from repro.runtime.channels import ChannelClosed, TcpChannel, TcpListener


class TestTcpChannel:
    def _connected_pair(self):
        listener = TcpListener()
        results = {}

        def _accept():
            results["server"] = listener.accept(timeout=5.0)

        thread = threading.Thread(target=_accept, daemon=True)
        thread.start()
        client = TcpChannel.connect(*listener.address)
        thread.join(timeout=5.0)
        listener.close()
        return client, results["server"]

    def test_framed_roundtrip(self):
        client, server = self._connected_pair()
        try:
            client.send(b"hello")
            assert server.recv(timeout=2.0) == b"hello"
            server.send(b"world" * 1000)
            assert client.recv(timeout=2.0) == b"world" * 1000
        finally:
            client.close()
            server.close()

    def test_empty_frame(self):
        client, server = self._connected_pair()
        try:
            client.send(b"")
            assert server.recv(timeout=2.0) == b""
        finally:
            client.close()
            server.close()

    def test_binary_safety(self):
        client, server = self._connected_pair()
        try:
            payload = bytes(range(256)) * 16
            client.send(payload)
            assert server.recv(timeout=2.0) == payload
        finally:
            client.close()
            server.close()

    def test_recv_timeout(self):
        client, server = self._connected_pair()
        try:
            with pytest.raises(TimeoutError):
                server.recv(timeout=0.05)
        finally:
            client.close()
            server.close()

    def test_peer_close_detected(self):
        client, server = self._connected_pair()
        client.close()
        with pytest.raises(ChannelClosed):
            server.recv(timeout=2.0)
        server.close()

    def test_send_after_close_raises(self):
        client, server = self._connected_pair()
        client.close()
        with pytest.raises(ChannelClosed):
            client.send(b"late")
        server.close()

    def test_listener_accept_timeout(self):
        listener = TcpListener()
        try:
            with pytest.raises(TimeoutError):
                listener.accept(timeout=0.05)
        finally:
            listener.close()

    def test_oversized_frame_rejected_by_sender(self):
        client, server = self._connected_pair()
        try:
            from repro.runtime import channels
            huge = b"x" * (channels.MAX_FRAME_BYTES + 1)
            with pytest.raises(SerializationError):
                client.send(huge)
        finally:
            client.close()
            server.close()


def _wire(*payloads):
    return b"".join(struct.pack(">I", len(p)) + p for p in payloads)


class TestTcpChannelBuffering:
    """The persistent read buffer and the burst write, driven through a
    raw socket so the test decides where the byte stream is cut."""

    @pytest.fixture
    def pair(self):
        raw, sock = socket.socketpair()
        channel = TcpChannel(sock)
        yield raw, channel
        raw.close()
        channel.close()

    @staticmethod
    def _drain(channel):
        """Every frame that is complete right now."""
        frames = []
        while True:
            try:
                frames.append(channel.recv(timeout=0.01))
            except TimeoutError:
                return frames

    def test_frames_split_at_every_byte_boundary(self):
        payloads = [b"alpha", b"", b"bravo-charlie"]
        wire = _wire(*payloads)
        for cut in range(1, len(wire)):
            raw, sock = socket.socketpair()
            channel = TcpChannel(sock)
            try:
                raw.sendall(wire[:cut])
                frames = self._drain(channel)
                raw.sendall(wire[cut:])
                frames += self._drain(channel)
                assert frames == payloads, "cut at byte %d" % cut
            finally:
                raw.close()
                channel.close()

    def test_one_call_returns_every_complete_frame_in_order(self, pair):
        raw, channel = pair
        payloads = [bytes([index]) * (index + 1) for index in range(20)]
        raw.sendall(_wire(*payloads) + b"\x00\x00")  # + a partial header
        assert channel.recv_many() == payloads

    def test_hello_and_data_in_one_segment_lose_nothing(self, pair):
        raw, channel = pair
        raw.sendall(_wire(b"hello", b"data-1", b"data-2"))
        assert channel.recv(timeout=1.0) == b"hello"
        assert channel.recv_many() == [b"data-1", b"data-2"]

    def test_timeout_mid_frame_keeps_the_partial_frame(self, pair):
        raw, channel = pair
        wire = _wire(b"dribbled-frame")
        raw.sendall(wire[:9])
        with pytest.raises(TimeoutError):
            channel.recv(timeout=0.02)
        raw.sendall(wire[9:])
        assert channel.recv(timeout=1.0) == b"dribbled-frame"

    def test_oversized_announcement_rejected_before_allocation(self, pair):
        raw, channel = pair
        resting = len(channel._buf)
        raw.sendall(struct.pack(">I", channels.MAX_FRAME_BYTES + 1))
        with pytest.raises(SerializationError):
            channel.recv(timeout=1.0)
        assert len(channel._buf) == resting
        # The stream cannot be resynchronised: the channel is done.
        with pytest.raises(ChannelClosed):
            channel.recv(timeout=1.0)

    def test_peer_close_mid_frame(self, pair):
        raw, channel = pair
        raw.sendall(_wire(b"whole") + _wire(b"cut short")[:7])
        assert channel.recv(timeout=1.0) == b"whole"
        raw.close()
        with pytest.raises(ChannelClosed):
            channel.recv(timeout=1.0)
        assert channel.closed

    def test_frame_larger_than_the_buffer_then_buffer_shrinks(self, pair):
        raw, channel = pair
        resting = len(channel._buf)
        big = bytes(range(256)) * (4 * resting // 256)
        writer = threading.Thread(
            target=raw.sendall, args=(_wire(big, b"after"),), daemon=True)
        writer.start()
        assert channel.recv(timeout=5.0) == big
        assert channel.recv(timeout=5.0) == b"after"
        writer.join(timeout=5.0)
        assert len(channel._buf) == resting

    def test_send_many_is_byte_identical_to_single_sends(self, pair):
        raw, channel = pair
        payloads = [b"one", b"", b"three" * 2000]
        channel.send_many(payloads)
        expected = _wire(*payloads)
        received = b""
        raw.settimeout(2.0)
        while len(received) < len(expected):
            received += raw.recv(65536)
        assert received == expected

    def test_send_many_rejects_an_oversized_member_before_writing(self, pair):
        raw, channel = pair
        with pytest.raises(SerializationError):
            channel.send_many([b"ok", b"x" * (channels.MAX_FRAME_BYTES + 1)])
        raw.setblocking(False)
        with pytest.raises(BlockingIOError):
            raw.recv(1)


def test_tcp_sockets_have_nodelay_set():
    listener = TcpListener()
    accepted = {}
    thread = threading.Thread(
        target=lambda: accepted.update(server=listener.accept(timeout=5.0)),
        daemon=True)
    thread.start()
    client = TcpChannel.connect(*listener.address)
    thread.join(timeout=5.0)
    try:
        for channel in (client, accepted["server"]):
            assert channel._sock.getsockopt(socket.IPPROTO_TCP,
                                            socket.TCP_NODELAY)
    finally:
        listener.close()
        client.close()
        accepted["server"].close()
