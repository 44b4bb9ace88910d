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

import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro import metrics as metrics_mod
from repro.core import multitenant
from repro.core import overload as overload_mod
from repro.core.exceptions import (DiscoveryError, RuntimeStateError,
                                   SerializationError)
from repro.runtime.channels import ChannelClosed, TcpChannel, TcpListener
from repro.runtime import messages as messages_mod
from repro.runtime.messages import Message
from repro.runtime.serialization import decode_value, encode_value


class Mailbox:
    """Inbound message queue of one endpoint.

    With an :class:`~repro.core.overload.OverloadConfig` the queue is
    bounded: a full mailbox sheds DATA messages per the configured drop
    policy (``drop_oldest`` / ``drop_newest``) or blocks the producer
    (``block``) — the runtime's backpressure point.  Control messages
    (DEPLOY, ACK, heartbeats...) are never shed: losing them would wedge
    the control plane, and their volume is bounded by design.  Sheds are
    counted as ``swing_tuples_shed_total{reason=queue_full}`` and the
    current depth is exported as the ``swing_queue_depth`` gauge.
    """

    def __init__(self, owner_id: str,
                 overload: Optional[overload_mod.OverloadConfig] = None,
                 registry: Optional[metrics_mod.MetricsRegistry] = None) -> None:
        self.owner_id = owner_id
        self.overload = (overload if overload is not None
                         else overload_mod.OverloadConfig())
        # Internal component: an uninjected registry means a private
        # one, never the process-wide default (cross-instance pollution).
        self._registry = (registry if registry is not None
                          else metrics_mod.MetricsRegistry())
        self._items: Deque[Tuple[str, Message]] = deque()
        self._cond = threading.Condition()
        self.shed_count = 0
        self.max_depth = 0
        self._depth_gauge = self._registry.gauge(metrics_mod.QUEUE_DEPTH,
                                                 queue="mailbox:%s" % owner_id)
        # -- multi-tenant accounting / fair-share admission --------------
        #: queued data-plane tuples per tenant ("" = default tenant)
        self.tenant_depths: Dict[str, int] = {}
        self._tenant_budgets: Optional[Dict[str, int]] = None
        self._tenant_priorities: Dict[str, int] = {}

    @property
    def capacity(self) -> Optional[int]:
        return self.overload.queue_capacity

    #: message kinds carrying data-plane tuples: the only sheddable ones
    _DATA_KINDS = frozenset({messages_mod.DATA, messages_mod.BATCH})

    @classmethod
    def _droppable(cls, message: Message) -> bool:
        return getattr(message, "kind", None) in cls._DATA_KINDS

    @staticmethod
    def _tuple_count(message: Message) -> int:
        """Tuples carried by one data-plane message (batches hold many)."""
        if getattr(message, "kind", None) == messages_mod.BATCH:
            return max(1, len(message.payload.get("seqs", ())))
        return 1

    @staticmethod
    def _message_tenant(message: Message) -> str:
        payload = getattr(message, "payload", None)
        if isinstance(payload, dict):
            return payload.get("tenant", "")
        return ""

    def set_tenant_budgets(self, budgets: Dict[str, int],
                           priorities: Optional[Dict[str, int]] = None
                           ) -> None:
        """Switch this mailbox to cross-tenant fair-share admission.

        With budgets installed (and a bounded capacity), data-plane
        arrivals go through :func:`repro.core.multitenant.fair_admission`
        instead of the single-tenant drop policy: an over-budget tenant
        sheds its own newest tuples, an under-budget arrival evicts from
        the most-over-budget tenant.  Never engaged at N=1, so the
        single-tenant behavior stays byte-identical.
        """
        with self._cond:
            self._tenant_budgets = dict(budgets) if budgets else None
            self._tenant_priorities = dict(priorities or {})

    def _shed(self, count: int = 1, tenant: str = "") -> None:
        self.shed_count += count
        labels = {"reason": overload_mod.REASON_QUEUE_FULL,
                  "queue": "mailbox:%s" % self.owner_id}
        if tenant:
            labels["tenant"] = tenant
        self._registry.increment(metrics_mod.SHED_TOTAL, amount=count,
                                 **labels)

    def put(self, sender_id: str, message: Message,
            timeout: Optional[float] = None) -> bool:
        """Enqueue one message; returns False when it was shed.

        Only DATA messages participate in shedding/blocking; control
        traffic is always admitted immediately.
        """
        with self._cond:
            admitted = self._admit(sender_id, message, timeout)
            if admitted:
                self._depth_gauge.set(len(self._items))
                self._cond.notify_all()
        return admitted

    def put_many(self, sender_id: str, messages: Sequence[Message],
                 timeout: Optional[float] = None) -> int:
        """Enqueue a burst from one sender; returns how many were admitted.

        Every message gets the admission decision :meth:`put` would have
        given it, in order, so the queue, the shed counters and the
        tenant depths end up exactly as after N ``put`` calls — but under
        one lock acquisition, with one gauge write and one wake-up.
        """
        admitted = 0
        with self._cond:
            for message in messages:
                admitted += self._admit(sender_id, message, timeout)
            if admitted:
                self._depth_gauge.set(len(self._items))
                self._cond.notify_all()
        return admitted

    def _admit(self, sender_id: str, message: Message,
               timeout: Optional[float]) -> bool:
        """Admission decision + append for one message (lock held)."""
        droppable = self._droppable(message)
        tenant = self._message_tenant(message) if droppable else ""
        if self.capacity is not None and droppable:
            if self._tenant_budgets is not None:
                decision = multitenant.fair_admission(
                    tenant, self.tenant_depths, self._tenant_budgets,
                    self.capacity, self._tenant_priorities)
                if decision.action == overload_mod.REJECT:
                    self._shed(self._tuple_count(message), tenant)
                    return False
                if decision.action == overload_mod.EVICT_OLDEST:
                    self._evict_oldest_droppable(decision.victim)
            else:
                action = overload_mod.admission(
                    len(self._items), self.capacity,
                    self.overload.drop_policy)
                if action == overload_mod.WAIT:
                    deadline = (None if timeout is None
                                else time.monotonic() + timeout)
                    # Earlier members of this burst are queued but not
                    # yet announced: wake the consumer before waiting
                    # for it to make room.
                    self._cond.notify_all()
                    while len(self._items) >= self.capacity:
                        leftover = (None if deadline is None
                                    else deadline - time.monotonic())
                        if leftover is not None and leftover <= 0:
                            self._shed(self._tuple_count(message), tenant)
                            return False
                        self._cond.wait(timeout=leftover)
                elif action == overload_mod.EVICT_OLDEST:
                    # Nothing sheddable queued: admit over capacity
                    # rather than lose control-plane traffic.
                    self._evict_oldest_droppable()
                elif action == overload_mod.REJECT:
                    self._shed(self._tuple_count(message), tenant)
                    return False
        self._items.append((sender_id, message))
        if droppable:
            self.tenant_depths[tenant] = (
                self.tenant_depths.get(tenant, 0)
                + self._tuple_count(message))
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)
        return True

    def _forget_tenant_depth(self, message: Message) -> None:
        tenant = self._message_tenant(message)
        depth = self.tenant_depths.get(tenant, 0) - self._tuple_count(message)
        if depth > 0:
            self.tenant_depths[tenant] = depth
        else:
            self.tenant_depths.pop(tenant, None)

    def _evict_oldest_droppable(self, tenant: Optional[str] = None) -> bool:
        """Drop the oldest DATA/BATCH entry in place; False when none queued.

        With *tenant* given, only that tenant's entries are candidates
        (fair-share eviction never touches another tenant's tuples).
        """
        for index, (_sender, queued) in enumerate(self._items):
            if not self._droppable(queued):
                continue
            if tenant is not None and self._message_tenant(queued) != tenant:
                continue
            del self._items[index]
            self._forget_tenant_depth(queued)
            self._shed(self._tuple_count(queued),
                       self._message_tenant(queued))
            return True
        return False

    def get(self, timeout: Optional[float] = None) -> Tuple[str, Message]:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._items:
                leftover = (None if deadline is None
                            else deadline - time.monotonic())
                if leftover is not None and leftover <= 0:
                    raise TimeoutError("mailbox %r empty" % self.owner_id)
                self._cond.wait(timeout=leftover)
            entry = self._items.popleft()
            if self._droppable(entry[1]):
                self._forget_tenant_depth(entry[1])
            self._depth_gauge.set(len(self._items))
            self._cond.notify_all()
        return entry

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)


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
        """One frame per message, the whole burst in one socket write."""
        if target_id == self.endpoint_id:
            # Local delivery (e.g. the master deploying to itself).
            self._mailbox.put_many(sender_id, messages)
            return
        frames = [message.encode() for message in messages]
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
