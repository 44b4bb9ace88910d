"""Transport channels between runtime threads and processes.

Two implementations behind one interface:

* :class:`InProcChannel` — a thread-safe queue pair for threads in one
  process (the common case: one Python process simulating a swarm of
  worker threads, like Swing's co-located master/worker threads).
* :class:`TcpChannel` — real localhost TCP sockets with length-prefixed
  framing, exercising the same code path an Android deployment would.

Channels move opaque byte payloads; serialization is layered above.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
from typing import List, Optional, Sequence, Tuple

from repro.core.exceptions import RuntimeStateError, SerializationError

_LENGTH = struct.Struct(">I")

#: refuse absurd frames rather than allocating unbounded memory
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: resting size of a TCP channel's read buffer: one ``recv_into`` takes
#: up to this much, i.e. ten 6 kB frames or hundreds of ACKs
_READ_BYTES = 64 * 1024

#: frames per ``sendmsg`` (two buffers each; Linux allows 1024 per call)
_SENDMSG_FRAMES = 256


def _set_nodelay(sock: socket.socket) -> None:
    """Small frames (ACKs) must not wait out Nagle + delayed ACK."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class ChannelClosed(RuntimeStateError):
    """Raised when reading from or writing to a closed channel."""


class Channel:
    """Bidirectional, message-oriented transport endpoint."""

    def send(self, payload: bytes) -> None:
        raise NotImplementedError

    def recv(self, timeout: Optional[float] = None) -> bytes:
        """Next message; raises :class:`ChannelClosed` at end of stream,
        :class:`TimeoutError` when *timeout* elapses."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError


class InProcChannel(Channel):
    """One endpoint of an in-process channel pair."""

    _SENTINEL = object()

    def __init__(self, outbox: "queue.Queue", inbox: "queue.Queue") -> None:
        self._outbox = outbox
        self._inbox = inbox
        self._closed = threading.Event()

    @classmethod
    def pair(cls) -> Tuple["InProcChannel", "InProcChannel"]:
        """Create two connected endpoints."""
        a_to_b: "queue.Queue" = queue.Queue()
        b_to_a: "queue.Queue" = queue.Queue()
        return cls(a_to_b, b_to_a), cls(b_to_a, a_to_b)

    def send(self, payload: bytes) -> None:
        if self._closed.is_set():
            raise ChannelClosed("send on closed channel")
        self._outbox.put(payload)

    def recv(self, timeout: Optional[float] = None) -> bytes:
        if self._closed.is_set():
            raise ChannelClosed("recv on closed channel")
        try:
            item = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("channel recv timed out") from None
        if item is self._SENTINEL:
            self._closed.set()
            raise ChannelClosed("peer closed the channel")
        return item

    def close(self) -> None:
        if not self._closed.is_set():
            self._closed.set()
            self._outbox.put(self._SENTINEL)

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class TcpChannel(Channel):
    """Length-prefixed framing over a connected TCP socket.

    Reads go through one persistent buffer: a single ``recv_into``
    collects whatever the peer has written — often several frames — and
    :meth:`recv_many` returns every complete one.  :meth:`recv` is served
    from the same buffer, so the two can be mixed freely (a hello read
    with ``recv`` never swallows the data frames behind it), and a frame
    that is only partly there when a timed ``recv`` gives up stays
    buffered instead of desynchronising the stream.  The socket is left
    blocking except while a timed ``recv`` runs.

    Writes take any number of frames in one ``sendmsg``, each header and
    payload as its own buffer (no per-frame concatenation).
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = False
        # Unread bytes live in _buf[_start:_end]; guarded by _recv_lock.
        self._buf = bytearray(_READ_BYTES)
        self._start = 0
        self._end = 0

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 5.0) -> "TcpChannel":
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        _set_nodelay(sock)
        return cls(sock)

    # -- writing -----------------------------------------------------------
    def send(self, payload: bytes) -> None:
        self.send_many((payload,))

    def send_many(self, payloads: Sequence[bytes]) -> None:
        """Write *payloads* as consecutive frames, one syscall per
        ``_SENDMSG_FRAMES`` of them; all-or-:class:`ChannelClosed`."""
        if self._closed:
            raise ChannelClosed("send on closed channel")
        buffers: List[bytes] = []
        for payload in payloads:
            if len(payload) > MAX_FRAME_BYTES:
                raise SerializationError("frame exceeds maximum size")
            buffers.append(_LENGTH.pack(len(payload)))
            buffers.append(payload)
        try:
            with self._send_lock:
                for index in range(0, len(buffers), 2 * _SENDMSG_FRAMES):
                    self._write(buffers[index:index + 2 * _SENDMSG_FRAMES])
        except OSError as error:
            self._closed = True
            raise ChannelClosed("send failed: %s" % error) from error

    def _write(self, buffers: List[bytes]) -> None:
        sent = self._sock.sendmsg(buffers)
        if sent < sum(map(len, buffers)):
            # The kernel took part of the burst (socket buffer full or a
            # signal): finish with a blocking sendall of what is left.
            self._sock.sendall(b"".join(buffers)[sent:])

    # -- reading -----------------------------------------------------------
    def recv(self, timeout: Optional[float] = None) -> bytes:
        return self._recv_frames(timeout, 1)[0]

    def recv_many(self) -> List[bytes]:
        """Block until at least one frame is complete, then return every
        complete frame received so far, in order."""
        return self._recv_frames(None, None)

    def _recv_frames(self, timeout: Optional[float],
                     limit: Optional[int]) -> List[bytes]:
        if self._closed:
            raise ChannelClosed("recv on closed channel")
        with self._recv_lock:
            try:
                if timeout is not None:
                    self._sock.settimeout(timeout)
                while True:
                    if self._end > self._start:
                        frames = self._buffered_frames(limit)
                        if frames:
                            return frames
                    self._fill()
            except socket.timeout:
                raise TimeoutError("channel recv timed out") from None
            except OSError as error:
                self._closed = True
                raise ChannelClosed("recv failed: %s" % error) from error
            finally:
                if timeout is not None:
                    try:
                        self._sock.settimeout(None)
                    except OSError:
                        pass

    def _buffered_frames(self, limit: Optional[int]) -> List[bytes]:
        """Pop up to *limit* complete frames off the buffer's head."""
        frames: List[bytes] = []
        with memoryview(self._buf) as view:
            while limit is None or len(frames) < limit:
                body = self._start + _LENGTH.size
                if body > self._end:
                    break
                stop = body + self._frame_length()
                if stop > self._end:
                    break
                frames.append(bytes(view[body:stop]))
                self._start = stop
        if self._start == self._end:
            self._start = self._end = 0
            if len(self._buf) > _READ_BYTES:
                # One large frame must not pin its buffer for good.
                self._buf = bytearray(_READ_BYTES)
        return frames

    def _frame_length(self) -> int:
        """Announced length of the frame at the buffer's head; a peer
        announcing an absurd one cannot be resynchronised with."""
        (length,) = _LENGTH.unpack_from(self._buf, self._start)
        if length > MAX_FRAME_BYTES:
            self._closed = True
            raise SerializationError("peer announced oversized frame")
        return length

    def _fill(self) -> None:
        """One ``recv_into`` behind the unread bytes, which are first
        moved to the front (and the buffer grown to the pending frame)."""
        unread = self._end - self._start
        if self._start:
            self._buf[:unread] = self._buf[self._start:self._end]
            self._start, self._end = 0, unread
        if unread >= _LENGTH.size:
            need = _LENGTH.size + self._frame_length()
            if need > len(self._buf):
                grown = bytearray(need)
                grown[:unread] = self._buf[:unread]
                self._buf = grown
        with memoryview(self._buf) as view:
            count = self._sock.recv_into(view[unread:])
        if not count:
            self._closed = True
            raise ChannelClosed("peer closed the connection")
        self._end = unread + count

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed


class TcpListener:
    """Accepts incoming :class:`TcpChannel` connections (master side)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.address: Tuple[str, int] = self._sock.getsockname()

    def accept(self, timeout: Optional[float] = None) -> TcpChannel:
        self._sock.settimeout(timeout)
        try:
            sock, _peer = self._sock.accept()
        except socket.timeout:
            raise TimeoutError("no incoming connection") from None
        sock.settimeout(None)
        _set_nodelay(sock)
        return TcpChannel(sock)

    def close(self) -> None:
        try:
            # Wakes a thread blocked in accept() at once; a bare close()
            # leaves it to ride out its poll timeout.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
