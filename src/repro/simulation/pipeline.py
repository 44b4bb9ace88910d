"""Multi-stage pipeline simulation (the deployment of Fig. 3).

The main swarm harness (:mod:`repro.simulation.swarm`) models the
paper's evaluation deployments, where each worker runs the whole
per-frame computation.  This module models the *general* Swing
deployment: an app graph whose compute stages are distributed
independently — the source routes to the replicas of stage 1, each
stage-1 instance routes its intermediate tuples to the replicas of
stage 2, and so on, with the routing policy and latency estimation
running *at every upstream instance*, exactly as Sec. V-A specifies
("LRS is executed at each upstream function unit").

Devices may host several stage instances; instances on one device share
its processor.  Transfers ride the same packet-level radio model as the
main harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.controller import PolicyConfig
from repro.core.exceptions import SimulationError
from repro.core.reorder import ReorderBuffer
from repro.simulation.control import engine_controller
from repro.simulation.device import (SERVICE_JITTER_SIGMA, CpuModel,
                                     DeviceProfile)
from repro.simulation.engine import Resource, Simulator, Store
from repro.simulation.network import Network, RSSI_GOOD
from repro.simulation.rng import RngRegistry
from repro.simulation.workload import ACK_BYTES, Workload


@dataclass(frozen=True)
class StageSpec:
    """One compute stage of the pipeline.

    ``compute_fraction`` is the share of a device's whole-app per-frame
    delay this stage accounts for (the detector and recognizer of the
    face app roughly split the Table-I delays); ``output_bytes`` is the
    size of the tuple the stage emits downstream.
    """

    name: str
    compute_fraction: float
    output_bytes: int
    hosts: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.compute_fraction <= 1.0:
            raise SimulationError("compute fraction must be in (0, 1]")
        if self.output_bytes <= 0:
            raise SimulationError("stage output size must be positive")
        if not self.hosts:
            raise SimulationError("stage %r needs at least one host"
                                  % self.name)


@dataclass
class PipelineConfig:
    """A multi-stage deployment experiment."""

    workload: Workload
    stages: Sequence[StageSpec]
    devices: Mapping[str, DeviceProfile]
    source_id: str
    #: every stage edge's control-plane settings; its ``seed`` stays
    #: unset, because each edge's policy seed derives from :attr:`seed`
    policy_config: PolicyConfig = field(default_factory=PolicyConfig)
    duration: float = 60.0
    #: the experiment's one RNG root (arrivals, jitter, policies)
    seed: int = 0
    rssi: Mapping[str, float] = field(default_factory=dict)
    socket_window_bytes: int = 32768
    reorder_timespan: float = 1.0

    def validate(self) -> None:
        if not self.stages:
            raise SimulationError("a pipeline needs at least one stage")
        if self.duration <= 0:
            raise SimulationError("duration must be positive")
        if self.policy_config.seed is not None:
            raise SimulationError(
                "each edge's policy seed derives from PipelineConfig.seed;"
                " leave policy_config.seed unset")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise SimulationError("duplicate stage names: %r" % names)
        # Co-locating compute with the source device is allowed.
        for stage in self.stages:
            for host in stage.hosts:
                if host != self.source_id and host not in self.devices:
                    raise SimulationError("stage %r host %r has no profile"
                                          % (stage.name, host))

    def window_frames(self, payload_bytes: int) -> int:
        return max(2, self.socket_window_bytes // payload_bytes)

    def stage_input_bytes(self, stage_index: int) -> int:
        """Size of a tuple entering the given stage."""
        if stage_index == 0:
            return self.workload.frame_bytes
        return self.stages[stage_index - 1].output_bytes


@dataclass
class _PipeTuple:
    seq: int
    created_at: float


class _StageInstance:
    """One stage replica on one device."""

    def __init__(self, pipeline: "PipelineSimulation", stage_index: int,
                 device_id: str) -> None:
        self.pipeline = pipeline
        self.stage_index = stage_index
        self.stage = pipeline.config.stages[stage_index]
        self.device_id = device_id
        self.instance_id = "%s@%s" % (self.stage.name, device_id)
        sim = pipeline.sim
        self.ingress = Store(sim, capacity=None,
                             name="in:%s" % self.instance_id)
        window = pipeline.config.window_frames(
            pipeline.stage_input_bytes(stage_index))
        self.credits = Store(sim, capacity=window,
                             name="cr:%s" % self.instance_id)
        for _ in range(window):
            self.credits.try_put(True)
        self.frames_in = 0
        self.busy_time = 0.0
        # The downstream router (None for the last stage: results go to
        # the sink directly).
        self.router: Optional[_Router] = None
        if stage_index + 1 < len(pipeline.config.stages):
            self.router = _Router(pipeline, upstream_id=self.instance_id,
                                  device_id=device_id,
                                  target_stage=stage_index + 1)
        sim.process(self._run(), name="stage:%s" % self.instance_id)

    def _run(self):
        pipeline = self.pipeline
        sim = pipeline.sim
        cpu = CpuModel(pipeline.profile(self.device_id),
                       pipeline.config.workload.app)
        while True:
            item = yield self.ingress.get()
            self.credits.try_put(True)
            frame, ack_to = item
            self.frames_in += 1
            jitter = pipeline.rngs.lognormal_jitter(
                "svc:%s" % self.instance_id, SERVICE_JITTER_SIGMA)
            service = (cpu.service_time(jitter)
                       * self.stage.compute_fraction)
            # Stage instances on one device share its processor.
            processor = pipeline.processor(self.device_id)
            yield processor.acquire()
            self.busy_time += service
            yield sim.timeout(service)
            processor.release()
            if ack_to is not None:
                pipeline._send_ack(self.device_id, ack_to, frame, service)
            if self.router is not None:
                yield from self.router.forward(frame)
            else:
                pipeline._send_result(self.device_id, frame, service)


class _Router:
    """Per-upstream-instance adapter over the shared LRS control plane.

    Sec. V-A runs LRS at *every* upstream function unit: each stage
    replica hosts one :class:`~repro.core.controller.LrsController` for
    the next stage's replicas and only keeps the windowed-dispatch glue
    here.
    """

    def __init__(self, pipeline: "PipelineSimulation", upstream_id: str,
                 device_id: str, target_stage: int) -> None:
        self.pipeline = pipeline
        self.upstream_id = upstream_id
        self.device_id = device_id
        self.target_stage = target_stage
        self.controller = engine_controller(
            pipeline.sim,
            replace(pipeline.config.policy_config,
                    seed=pipeline.rngs.root_seed + target_stage),
            name=upstream_id)
        for instance_id in pipeline.stage_instance_ids(target_stage):
            self.controller.add_downstream(instance_id)
        pipeline.routers.append(self)
        pipeline.sim.process(self._control(),
                             name="ctl:%s" % upstream_id)

    def _control(self):
        sim = self.pipeline.sim
        interval = self.controller.config.control_interval
        while True:
            yield sim.timeout(interval)
            self.controller.update(sim.now)

    def forward(self, frame: _PipeTuple):
        """Process generator: route one tuple to the target stage."""
        pipeline = self.pipeline
        sim = pipeline.sim
        self.controller.observe_arrival(sim.now)
        # One controller per router keeps pending keys unique although
        # seqs repeat across stages.
        instance_id = self.controller.dispatch(frame.seq)
        if instance_id is None:
            return
        target = pipeline.instances[instance_id]
        yield target.credits.get()
        payload = pipeline.stage_input_bytes(self.target_stage)
        delivered = pipeline.send_bytes(self.device_id, target.device_id,
                                        payload)
        delivered.add_callback(
            lambda _e, frame=frame, target=target:
            target.ingress.try_put((frame, (self.device_id, self,
                                            frame.seq))))

    def on_ack(self, seq: int, processing_delay: float) -> None:
        self.controller.on_ack(seq, processing_delay=processing_delay,
                               now=self.pipeline.sim.now)


class PipelineSimulation:
    """Runs one multi-stage deployment experiment."""

    def __init__(self, config: PipelineConfig) -> None:
        config.validate()
        self.config = config
        self.sim = Simulator()
        self.rngs = RngRegistry(config.seed)
        self.network = Network(self.sim)
        self.routers: List[_Router] = []
        self._processors: Dict[str, Resource] = {}
        self.instances: Dict[str, _StageInstance] = {}
        self.reorder = ReorderBuffer.for_rate(config.workload.input_rate,
                                              timespan=config.reorder_timespan)
        self.completed: List[Tuple[int, float, float]] = []  # seq, created, done
        self._generated = 0
        self._build()

    # -- topology helpers ----------------------------------------------------
    def profile(self, device_id: str) -> DeviceProfile:
        return self.config.devices[device_id]

    def processor(self, device_id: str) -> Resource:
        if device_id not in self._processors:
            self._processors[device_id] = Resource(
                self.sim, capacity=1, name="cpu:%s" % device_id)
        return self._processors[device_id]

    def stage_instance_ids(self, stage_index: int) -> List[str]:
        stage = self.config.stages[stage_index]
        return ["%s@%s" % (stage.name, host) for host in stage.hosts]

    def stage_input_bytes(self, stage_index: int) -> int:
        """Size of a tuple entering the given stage."""
        return self.config.stage_input_bytes(stage_index)

    # -- construction ----------------------------------------------------
    def _build(self) -> None:
        config = self.config
        attached = set()
        self.network.attach(config.source_id,
                            rssi=config.rssi.get(config.source_id,
                                                 RSSI_GOOD))
        attached.add(config.source_id)
        for stage in config.stages:
            for host in stage.hosts:
                if host not in attached:
                    self.network.attach(host,
                                        rssi=config.rssi.get(host, RSSI_GOOD))
                    attached.add(host)
        for index, stage in enumerate(config.stages):
            for host in stage.hosts:
                instance = _StageInstance(self, index, host)
                self.instances[instance.instance_id] = instance
        self.source_router = _Router(self, upstream_id="source",
                                     device_id=config.source_id,
                                     target_stage=0)
        self.sim.process(self._source(), name="source")

    # -- processes -------------------------------------------------------
    def _source(self):
        gaps = self.config.workload.interarrival_times(
            self.rngs.stream("arrivals"))
        seq = 0
        while True:
            frame = _PipeTuple(seq=seq, created_at=self.sim.now)
            self._generated += 1
            yield from self.source_router.forward(frame)
            seq += 1
            yield self.sim.timeout(next(gaps))

    def send_bytes(self, from_id: str, to_id: str, size_bytes: int):
        """One transfer over the sender's radio; returns delivery event."""
        if from_id == to_id:
            event = self.sim.event("local")
            event.succeed()
            return event
        radio = self.network.radio(from_id)
        link = self.network.link(to_id)
        return radio.connection(link).send(size_bytes)

    def _send_ack(self, from_id: str, ack_to, frame: _PipeTuple,
                  processing_delay: float) -> None:
        device_id, router, seq = ack_to
        delivered = self.send_bytes(from_id, device_id, ACK_BYTES)
        delivered.add_callback(
            lambda _e: router.on_ack(seq, processing_delay))

    def _send_result(self, from_id: str, frame: _PipeTuple,
                     processing_delay: float) -> None:
        result_bytes = self.config.workload.result_bytes
        delivered = self.send_bytes(from_id, self.config.source_id,
                                    result_bytes)
        delivered.add_callback(lambda _e, frame=frame:
                               self._at_sink(frame))

    def _at_sink(self, frame: _PipeTuple) -> None:
        now = self.sim.now
        self.completed.append((frame.seq, frame.created_at, now))
        self.reorder.offer(frame.seq, now)

    # -- running -----------------------------------------------------------
    def run(self) -> "PipelineResult":
        self.sim.run(self.config.duration)
        self.reorder.flush(self.config.duration)
        return PipelineResult.from_simulation(self)


@dataclass
class PipelineResult:
    """Summary of one multi-stage run."""

    config: PipelineConfig
    generated: int
    completed: int
    throughput: float
    mean_latency: Optional[float]
    per_instance_frames: Dict[str, int]
    per_device_busy: Dict[str, float]
    ordered: bool

    @classmethod
    def from_simulation(cls, pipeline: PipelineSimulation) -> "PipelineResult":
        duration = pipeline.config.duration
        delays = [done - created
                  for _seq, created, done in pipeline.completed]
        per_instance = {instance_id: instance.frames_in
                        for instance_id, instance
                        in pipeline.instances.items()}
        per_device: Dict[str, float] = {}
        for instance in pipeline.instances.values():
            per_device[instance.device_id] = (
                per_device.get(instance.device_id, 0.0)
                + instance.busy_time)
        return cls(
            config=pipeline.config,
            generated=pipeline._generated,
            completed=len(pipeline.completed),
            throughput=len(pipeline.completed) / duration,
            mean_latency=(sum(delays) / len(delays)) if delays else None,
            per_instance_frames=per_instance,
            per_device_busy=per_device,
            ordered=pipeline.reorder.is_monotonic(),
        )


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Build and run one multi-stage pipeline experiment."""
    return PipelineSimulation(config).run()


def face_pipeline_config(detector_hosts: Sequence[str],
                         recognizer_hosts: Sequence[str],
                         policy: str = "LRS", duration: float = 30.0,
                         input_rate: float = 24.0, seed: int = 0,
                         rssi: Optional[Mapping[str, float]] = None
                         ) -> PipelineConfig:
    """The face app split as in Fig. 3: detector and recognizer stages.

    Detection dominates the per-frame cost (sliding-window search), so it
    gets ~60% of the Table-I delay; intermediate tuples carry the frame
    plus detected boxes.
    """
    from repro import profiles
    from repro.simulation.workload import face_workload

    hosts = sorted(set(detector_hosts) | set(recognizer_hosts))
    return PipelineConfig(
        workload=face_workload(input_rate=input_rate),
        stages=(
            StageSpec(name="detector", compute_fraction=0.60,
                      output_bytes=6_200, hosts=tuple(detector_hosts)),
            StageSpec(name="recognizer", compute_fraction=0.40,
                      output_bytes=200, hosts=tuple(recognizer_hosts)),
        ),
        devices=profiles.worker_profiles(hosts),
        source_id=profiles.SOURCE_ID,
        policy_config=PolicyConfig(policy=policy),
        duration=duration,
        seed=seed,
        rssi=dict(rssi or {}),
    )
