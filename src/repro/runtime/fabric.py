"""Message fabric: named endpoints exchanging framed messages.

The runtime addresses peers by worker ID, not by socket: a *fabric*
binds IDs to transports.  Two fabrics are provided:

* :class:`InProcFabric` — queue-backed mailboxes for worker threads in
  one process (Swing's threads co-located on devices);
* :class:`TcpFabric` — each endpoint runs a TCP listener; peers dial
  each other lazily and identify themselves with a hello frame, giving
  the direct worker-to-worker connections of the paper's Step 3.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro import metrics as metrics_mod
from repro.core import overload as overload_mod
from repro.core.admission import AdmissionQueue
from repro.core.exceptions import (DiscoveryError, RuntimeStateError,
                                   SerializationError)
from repro.runtime import channels
from repro.runtime.channels import ChannelClosed, TcpChannel, TcpListener
from repro.runtime import messages as messages_mod
from repro.runtime.messages import Message
from repro.runtime.serialization import decode_value, encode_value


class Mailbox:
    """Inbound message queue of one endpoint: a condition variable,
    message classification and shed counters over one
    :class:`~repro.core.admission.AdmissionQueue`.

    With an :class:`~repro.core.overload.OverloadConfig` the queue is
    bounded in *tuples* (a DATA message weighs 1, a BATCH its ``seqs``):
    a full mailbox sheds per the drop policy (``drop_oldest`` /
    ``drop_newest``), blocks the producer (``block``) — the runtime's
    backpressure point — or, with tenant budgets installed, runs
    cross-tenant fair share.  Control messages (DEPLOY, ACK,
    heartbeats...) take no capacity and are never shed: losing them
    would wedge the control plane, and their volume is bounded by design.
    Sheds count in tuples (``shed_count``,
    ``swing_tuples_shed_total{reason=queue_full}``); ``len(mailbox)``,
    ``max_depth`` and the ``swing_queue_depth`` gauge count *messages*
    of every kind — what a loop has left to serve, including a burst
    :meth:`get` has taken but not yet handed out.
    """

    def __init__(self, owner_id: str,
                 overload: Optional[overload_mod.OverloadConfig] = None,
                 registry: Optional[metrics_mod.MetricsRegistry] = None) -> None:
        self.owner_id = owner_id
        self.overload = (overload if overload is not None
                         else overload_mod.OverloadConfig())
        self._registry = (registry if registry is not None
                          else metrics_mod.MetricsRegistry())
        self._queue = AdmissionQueue(self.overload.queue_capacity,
                                     self.overload.drop_policy)
        #: taken from the queue by get(), not handed out yet (consumer's)
        self._taken: Deque[Tuple[Tuple[str, Message], str, int]] = deque()
        self._cond = threading.Condition(threading.Lock())
        #: set by wake(): the next get that finds the queue empty returns
        #: at once instead of waiting out its timeout
        self._woken = False
        #: tuples shed here over the mailbox's lifetime
        self.shed_count = 0
        #: high-water mark of ``len(mailbox)``, in messages
        self.max_depth = 0
        self._queue_label = "mailbox:%s" % owner_id
        self._depth_gauge = self._registry.gauge(metrics_mod.QUEUE_DEPTH,
                                                 queue=self._queue_label)
        #: queued data-plane tuples per tenant ("" = default tenant);
        #: the queue's own dict, updated in place
        self.tenant_depths: Dict[str, int] = self._queue.tenant_depths

    @property
    def capacity(self) -> Optional[int]:
        return self._queue.capacity

    @property
    def tenant_budgets(self) -> Optional[Dict[str, int]]:
        """The installed fair-share budgets (``None`` = single tenant)."""
        return self._queue.budgets

    def set_tenant_budgets(self, budgets: Dict[str, int],
                           priorities: Optional[Dict[str, int]] = None
                           ) -> None:
        """Switch this mailbox to cross-tenant fair-share admission
        (:meth:`AdmissionQueue.set_tenant_budgets`).  Never engaged at
        N=1, so the single-tenant behavior stays byte-identical."""
        with self._cond:
            self._queue.set_tenant_budgets(budgets, priorities)

    def items(self) -> Tuple[Tuple[str, Message], ...]:
        """The queued ``(sender, message)`` pairs, oldest first."""
        with self._cond:
            return (tuple(entry[0] for entry in self._taken)
                    + self._queue.items())

    def put(self, sender_id: str, message: Message,
            timeout: Optional[float] = None) -> bool:
        """Enqueue one message; returns False when it was shed.

        Only DATA/BATCH messages participate in shedding/blocking;
        control traffic is always admitted immediately.
        """
        return self.put_many(sender_id, (message,), timeout) == 1

    def put_many(self, sender_id: str, messages: Sequence[Message],
                 timeout: Optional[float] = None) -> int:
        """Enqueue a burst from one sender; returns how many were admitted.

        Every message gets its own admission decision, in order, under
        one lock acquisition, with one gauge write and one wake-up.
        """
        admitted = 0
        with self._cond:
            for message in messages:
                admitted += self._admit(sender_id, message, timeout)
            if admitted:
                self._depth_gauge.set(len(self._queue) + len(self._taken))
                self._cond.notify_all()
        return admitted

    def _admit(self, sender_id: str, message: Message,
               timeout: Optional[float]) -> bool:
        """Classify one message and offer it to the queue (lock held)."""
        kind = message.kind
        if kind == messages_mod.DATA:
            tenant, tuples = message.payload.get("tenant", ""), 1
        elif kind == messages_mod.BATCH:
            payload = message.payload
            tenant = payload.get("tenant", "")
            tuples = max(1, len(payload.get("seqs", ())))
        else:
            tenant, tuples = "", 0
        entry = (sender_id, message)
        action, shed = self._queue.offer(entry, tenant, tuples)
        if action == overload_mod.WAIT:
            deadline = None if timeout is None else time.monotonic() + timeout
            # Earlier members of this burst are queued but not yet
            # announced: wake the consumer before waiting for it to
            # make room.
            self._cond.notify_all()
            while action == overload_mod.WAIT:
                leftover = (None if deadline is None
                            else deadline - time.monotonic())
                if leftover is not None and leftover <= 0:
                    action, shed = overload_mod.REJECT, ((entry, tenant,
                                                          tuples),)
                    break
                self._cond.wait(timeout=leftover)
                action, shed = self._queue.offer(entry, tenant, tuples)
        for _entry, shed_tenant, shed_tuples in shed:
            self.shed_count += shed_tuples
            self._registry.increment(
                metrics_mod.SHED_TOTAL, amount=shed_tuples,
                **metrics_mod.tenant_labels(
                    shed_tenant, reason=overload_mod.REASON_QUEUE_FULL,
                    queue=self._queue_label))
        if action != overload_mod.ADMIT:
            return False
        depth = len(self._queue) + len(self._taken)
        if depth > self.max_depth:
            self.max_depth = depth
        return True

    def get(self, timeout: Optional[float] = None) -> Tuple[str, Message]:
        """The oldest message; ``TimeoutError`` when none arrives within
        *timeout* or :meth:`wake` cuts the wait short.  One consumer only
        (the endpoint's loop): unbounded, a take moves everything queued
        into a burst handed out without locking; bounded, it takes one
        message, so admission sees the occupancy it bounds."""
        taken = self._taken
        if taken:
            entry = taken.popleft()[0]
            self._depth_gauge.set(len(self._queue) + len(taken))
            return entry
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            queue = self._queue
            while not len(queue):
                leftover = (None if deadline is None
                            else deadline - time.monotonic())
                if self._woken or (leftover is not None and leftover <= 0):
                    self._woken = False
                    raise TimeoutError("mailbox %r empty" % self.owner_id)
                self._cond.wait(timeout=leftover)
            self._woken = False
            if queue.capacity is None:
                queue.hand_over(taken)
                entry = taken.popleft()[0]
            else:
                entry = queue.pop()
                self._cond.notify_all()  # room for a blocked producer
            self._depth_gauge.set(len(queue) + len(taken))
        return entry

    def wake(self) -> None:
        """End the consumer's current (or next) empty wait early: another
        thread has given it a deadline sooner than the one it waits on."""
        with self._cond:
            self._woken = True
            self._cond.notify_all()

    def __len__(self) -> int:
        return len(self._queue) + len(self._taken)


#: what :meth:`Fabric.send` raises for a peer that is gone or unreachable
SEND_ERRORS = (ChannelClosed, DiscoveryError, OSError)


class Fabric:
    """Abstract endpoint directory + message transport."""

    def register(self, endpoint_id: str) -> Mailbox:
        raise NotImplementedError

    def unregister(self, endpoint_id: str) -> None:
        """Free an endpoint registration so a successor can reclaim the
        ID (a crashed master's endpoint must not squat forever).  The
        default is a no-op for transports without a shared directory."""

    def send(self, sender_id: str, target_id: str, message: Message) -> None:
        raise NotImplementedError

    def send_many(self, sender_id: str, target_id: str,
                  messages: Sequence[Message]) -> None:
        """Send a burst to one target, in order.

        Each message stays its own frame.  The default is one
        :meth:`send` per message, so decorating fabrics that only
        override ``send`` see every message as before; a transport that
        can write the burst in one go overrides this.  Raises on the
        first failure — the caller must treat the whole burst as
        possibly undelivered.
        """
        for message in messages:
            self.send(sender_id, target_id, message)

    def close(self) -> None:
        """Release transport resources (no-op for in-process fabrics)."""


class InProcFabric(Fabric):
    """Thread-safe in-process fabric; delivery is immediate.

    ``overload`` bounds every registered mailbox (shared knobs for all
    endpoints); the default keeps the historical unbounded queues.
    """

    def __init__(self,
                 overload: Optional[overload_mod.OverloadConfig] = None,
                 registry: Optional[metrics_mod.MetricsRegistry] = None) -> None:
        self._mailboxes: Dict[str, Mailbox] = {}
        self._lock = threading.Lock()
        self._overload = overload
        self._registry = registry

    def register(self, endpoint_id: str) -> Mailbox:
        with self._lock:
            if endpoint_id in self._mailboxes:
                raise RuntimeStateError("endpoint %r already registered"
                                        % endpoint_id)
            mailbox = Mailbox(endpoint_id, overload=self._overload,
                              registry=self._registry)
            self._mailboxes[endpoint_id] = mailbox
            return mailbox

    def unregister(self, endpoint_id: str) -> None:
        with self._lock:
            self._mailboxes.pop(endpoint_id, None)

    def send(self, sender_id: str, target_id: str, message: Message) -> None:
        self._mailbox_of(target_id).put(sender_id, message)

    def send_many(self, sender_id: str, target_id: str,
                  messages: Sequence[Message]) -> None:
        """The burst in one mailbox hand-off: one lock, one wake-up."""
        self._mailbox_of(target_id).put_many(sender_id, messages)

    def _mailbox_of(self, target_id: str) -> Mailbox:
        with self._lock:
            mailbox = self._mailboxes.get(target_id)
        if mailbox is None:
            raise ChannelClosed("endpoint %r is gone" % target_id)
        return mailbox

    def endpoint_ids(self):
        with self._lock:
            return sorted(self._mailboxes)


class TcpFabric(Fabric):
    """Direct TCP mesh: one listener per endpoint, lazy dialing.

    The first frame on every dialed connection is a hello carrying the
    dialer's endpoint ID, so the acceptor can attribute inbound traffic.
    """

    def __init__(self, endpoint_id: str, host: str = "127.0.0.1",
                 overload: Optional[overload_mod.OverloadConfig] = None,
                 registry: Optional[metrics_mod.MetricsRegistry] = None) -> None:
        self.endpoint_id = endpoint_id
        self._listener = TcpListener(host=host, port=0)
        self.address: Tuple[str, int] = self._listener.address
        self._registry = (registry if registry is not None
                          else metrics_mod.MetricsRegistry())
        self._mailbox = Mailbox(endpoint_id, overload=overload,
                                registry=self._registry)
        self._directory: Dict[str, Tuple[str, int]] = {}
        self._outgoing: Dict[str, TcpChannel] = {}
        self._lock = threading.Lock()
        self._running = True
        #: live reader threads mapped to their accepted channels, so
        #: close() can unblock each blocking recv before joining
        self._readers: Dict[threading.Thread, TcpChannel] = {}
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name="fabric-accept:%s" % endpoint_id, daemon=True)
        self._accept_thread.start()

    # -- directory ---------------------------------------------------------
    def learn(self, endpoint_id: str, address: Tuple[str, int]) -> None:
        """Record where *endpoint_id* listens (from master's DEPLOY)."""
        with self._lock:
            self._directory[endpoint_id] = (str(address[0]), int(address[1]))

    def register(self, endpoint_id: str) -> Mailbox:
        if endpoint_id != self.endpoint_id:
            raise RuntimeStateError("a TcpFabric hosts exactly one endpoint")
        return self._mailbox

    # -- data path -----------------------------------------------------------
    def send(self, sender_id: str, target_id: str, message: Message) -> None:
        self.send_many(sender_id, target_id, (message,))

    def send_many(self, sender_id: str, target_id: str,
                  messages: Sequence[Message]) -> None:
        """One frame per message, the whole burst in one socket write.
        A frame over ``channels.MAX_FRAME_BYTES`` can never cross: it
        alone is dropped, counted per tuple it carries as
        ``swing_frames_dropped_total{reason=oversized_frame}``."""
        if target_id == self.endpoint_id:
            # Local delivery (e.g. the master deploying to itself).
            self._mailbox.put_many(sender_id, messages)
            return
        frames = []
        for message in messages:
            frame = message.encode()
            if len(frame) <= channels.MAX_FRAME_BYTES:
                frames.append(frame)
                continue
            self._registry.increment(
                metrics_mod.DROPPED_TOTAL,
                len(message.payload["seqs"])
                if message.kind == messages_mod.BATCH else 1,
                reason="oversized_frame",
                link="%s>%s" % (sender_id, target_id))
        if not frames:
            return
        # A cached channel may be stale (peer restarted, NAT rebind); one
        # fresh dial distinguishes "stale cache" from "peer is gone".
        for attempt in range(2):
            channel = self._channel_to(target_id)
            try:
                channel.send_many(frames)
                return
            except ChannelClosed:
                with self._lock:
                    if self._outgoing.get(target_id) is channel:
                        self._outgoing.pop(target_id, None)
                if attempt > 0:
                    raise

    def _channel_to(self, target_id: str) -> TcpChannel:
        with self._lock:
            channel = self._outgoing.get(target_id)
            if channel is not None and not channel.closed:
                return channel
            address = self._directory.get(target_id)
        if address is None:
            raise DiscoveryError("no known address for endpoint %r" % target_id)
        channel = TcpChannel.connect(address[0], address[1])
        channel.send(encode_value({"hello": self.endpoint_id}))
        with self._lock:
            self._outgoing[target_id] = channel
        return channel

    # -- accept path ---------------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                channel = self._listener.accept(timeout=0.25)
            except TimeoutError:
                continue
            except OSError:
                return
            reader = threading.Thread(target=self._read_loop, args=(channel,),
                                      name="fabric-read:%s" % self.endpoint_id,
                                      daemon=True)
            with self._lock:
                # Prune readers that already exited: a long-lived fabric
                # accepting many short connections must not keep one
                # thread record per connection ever made.
                for done in [t for t in self._readers if not t.is_alive()]:
                    del self._readers[done]
                self._readers[reader] = channel
            reader.start()

    def _read_loop(self, channel: TcpChannel) -> None:
        peer_id = "?"
        try:
            hello = decode_value(channel.recv(timeout=5.0))
            if not isinstance(hello, dict) \
                    or not isinstance(hello.get("hello"), str):
                return
            peer_id = hello["hello"]
            while self._running:
                # Everything the peer wrote since the last wake-up: one
                # syscall, one decode pass, one mailbox hand-off.
                messages: List[Message] = []
                for frame in channel.recv_many():
                    try:
                        messages.append(Message.decode(frame))
                    except SerializationError:
                        # Length framing is intact, so the stream is
                        # still in step: count the frame, keep reading.
                        self._count_corrupt(peer_id)
                if messages:
                    self._mailbox.put_many(peer_id, messages)
        except SerializationError:
            # An unreadable hello or an absurd announced length: the
            # stream cannot be resynchronised, so the connection goes.
            self._count_corrupt(peer_id)
        except (ChannelClosed, TimeoutError, OSError):
            pass
        finally:
            channel.close()
            with self._lock:
                self._readers.pop(threading.current_thread(), None)

    def _count_corrupt(self, peer_id: str) -> None:
        self._registry.increment(metrics_mod.DROPPED_TOTAL,
                                 reason="corrupt_frame",
                                 link="%s>%s" % (peer_id, self.endpoint_id))

    def reader_count(self) -> int:
        """Live inbound reader threads (introspection for leak tests)."""
        with self._lock:
            return sum(1 for t in self._readers if t.is_alive())

    def close(self) -> None:
        self._running = False
        self._listener.close()
        with self._lock:
            for channel in self._outgoing.values():
                channel.close()
            self._outgoing.clear()
            readers = dict(self._readers)
        # Closing each accepted channel unblocks its reader's recv().
        for channel in readers.values():
            channel.close()
        self._accept_thread.join(timeout=2.0)
        for thread in readers:
            thread.join(timeout=2.0)
