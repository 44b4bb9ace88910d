"""Threaded master/worker runtime: the SEEP-on-Android substitute."""

from repro.runtime.app_runner import SwingRuntime, order_results
from repro.runtime.channels import ChannelClosed, TcpChannel, TcpListener
from repro.runtime.discovery import (DEFAULT_BEACON_PORT, LocalDiscovery,
                                     UdpBeacon, listen_for_beacon)
from repro.runtime.dispatcher import (UpstreamDispatcher, instance_id,
                                      split_instance)
from repro.runtime.fabric import Fabric, InProcFabric, Mailbox, TcpFabric
from repro.runtime.master import Master, Placement
from repro.runtime.messages import Message
from repro.runtime.serialization import (decode_tuple, decode_value,
                                         encode_tuple, encode_value)
from repro.runtime.worker import WorkerRuntime

__all__ = [
    "ChannelClosed", "DEFAULT_BEACON_PORT", "Fabric", "InProcFabric",
    "LocalDiscovery", "Mailbox", "Master", "Message", "Placement",
    "SwingRuntime", "TcpChannel", "TcpFabric", "TcpListener", "UdpBeacon",
    "UpstreamDispatcher", "WorkerRuntime", "decode_tuple", "decode_value",
    "encode_tuple", "encode_value", "instance_id", "listen_for_beacon",
    "order_results", "split_instance",
]
