"""Discrete-event swarm simulator: devices, wireless network, energy, harness."""

from repro.simulation.device import (BACKGROUND_CONTENTION, CpuModel,
                                     DeviceProfile, PowerProfile)
from repro.simulation.energy import (DevicePower, EnergyReport,
                                     PowerEstimator)
from repro.simulation.engine import Event, Process, Resource, Simulator, Store
from repro.simulation.metrics import (DROP_DEVICE_LEFT, DROP_LINK_DOWN,
                                      DROP_SOURCE_QUEUE, DeviceCounters,
                                      FrameRecord, LatencyStats,
                                      MetricsCollector)
from repro.simulation.mobility import MobilityPlan, MobilityTrace
from repro.simulation.network import (RSSI_FAIR, RSSI_GOOD, RSSI_POOR, Network,
                                      Radio, WirelessLink, goodput_for_rssi,
                                      rssi_for_region, stall_for_rssi)
from repro.simulation.pipeline import (PipelineConfig, PipelineResult,
                                       PipelineSimulation, StageSpec,
                                       face_pipeline_config, run_pipeline)
from repro.simulation.replication import (MetricSummary, ReplicatedResult,
                                          compare_policies, replicate)
from repro.simulation.rng import RngRegistry, substream_seed
from repro.simulation.swarm import (SwarmConfig, SwarmResult,
                                    SwarmSimulation, UNBOUNDED_QUEUE,
                                    run_swarm)
from repro.simulation.workload import (ACK_BYTES, FACE_APP, FACE_FRAME_BYTES,
                                       RESULT_BYTES, TRANSLATE_APP,
                                       TRANSLATE_FRAME_BYTES, Workload,
                                       face_workload, translation_workload)

__all__ = [
    "ACK_BYTES", "BACKGROUND_CONTENTION", "CpuModel", "DROP_DEVICE_LEFT",
    "DROP_LINK_DOWN", "DROP_SOURCE_QUEUE", "DeviceCounters", "DevicePower",
    "DeviceProfile", "EnergyReport", "Event", "FACE_APP", "FACE_FRAME_BYTES",
    "FrameRecord", "LatencyStats", "MetricSummary", "MetricsCollector",
    "MobilityPlan", "MobilityTrace",
    "Network", "PipelineConfig", "PipelineResult", "PipelineSimulation",
    "ReplicatedResult", "StageSpec", "compare_policies",
    "face_pipeline_config", "replicate", "run_pipeline",
    "PowerEstimator", "PowerProfile", "Process", "RESULT_BYTES", "RSSI_FAIR",
    "RSSI_GOOD", "RSSI_POOR", "Radio", "Resource", "RngRegistry", "Simulator",
    "Store", "SwarmConfig", "SwarmResult", "SwarmSimulation",
    "TRANSLATE_APP", "TRANSLATE_FRAME_BYTES", "UNBOUNDED_QUEUE",
    "WirelessLink", "Workload", "face_workload", "goodput_for_rssi",
    "rssi_for_region", "run_swarm", "stall_for_rssi", "substream_seed",
    "translation_workload",
]
