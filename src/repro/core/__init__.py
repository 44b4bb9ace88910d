"""Core dataflow model and resource-management algorithms (the paper's contribution)."""

from repro.core.controller import AckResult, LrsController, PolicyConfig
from repro.core.delivery import (AT_LEAST_ONCE, BEST_EFFORT, DedupWindow,
                                 DeliveryConfig, ReplayBuffer, ReplayEntry)
from repro.core.exceptions import (DeploymentError, DiscoveryError, GraphError,
                                   GraphValidationError, MigrationAborted,
                                   PolicyError, RoutingError,
                                   RuntimeStateError, SchemaError,
                                   SerializationError, SimulationError,
                                   SwingError)
from repro.core.faults import FaultEvent, FaultSchedule
from repro.core.function_unit import (CollectingSink, FunctionUnit,
                                      IterableSource, LambdaUnit,
                                      ReorderingSink, SinkUnit, SourceUnit,
                                      UnitContext)
from repro.core.graph import AppGraph, FunctionUnitSpec, GraphBuilder
from repro.core.latency import (AckTracker, DownstreamStats, EwmaEstimator,
                                MovingAverageEstimator, RateMeter,
                                make_estimator)
from repro.core.policies import (POLICY_NAMES, PolicyDecision, RoutingPolicy,
                                 make_policy)
from repro.core.reorder import PlaybackRecord, ReorderBuffer
from repro.core.requirements import SMOOTH_VIDEO_FPS, PerformanceRequirement
from repro.core.routing import RoundRobinCycler, RoutingTable, normalize_weights
from repro.core.selection import WorkerSelector, select_all, select_min_prefix
from repro.core.tuples import DataTuple, HopTiming, TupleSchema, make_stream

__all__ = [
    "AT_LEAST_ONCE", "AckResult", "AppGraph", "AckTracker", "BEST_EFFORT",
    "CollectingSink", "DataTuple",
    "DedupWindow", "DeliveryConfig",
    "DeploymentError", "DiscoveryError", "DownstreamStats", "EwmaEstimator",
    "FaultEvent", "FaultSchedule",
    "FunctionUnit", "FunctionUnitSpec", "GraphBuilder", "GraphError",
    "GraphValidationError", "HopTiming", "IterableSource", "LambdaUnit",
    "LrsController", "MigrationAborted",
    "MovingAverageEstimator", "POLICY_NAMES", "PerformanceRequirement",
    "PlaybackRecord", "PolicyConfig", "PolicyDecision", "PolicyError",
    "RateMeter",
    "ReorderBuffer", "ReorderingSink", "ReplayBuffer", "ReplayEntry",
    "RoundRobinCycler", "RoutingError",
    "RoutingPolicy",
    "RoutingTable", "RuntimeStateError", "SMOOTH_VIDEO_FPS", "SchemaError",
    "SerializationError", "SimulationError", "SinkUnit", "SourceUnit",
    "SwingError", "TupleSchema", "UnitContext", "WorkerSelector",
    "make_estimator", "make_policy", "make_stream", "normalize_weights",
    "select_all", "select_min_prefix",
]
