"""Sensing workloads: frame streams fed to the swarm.

The paper evaluates two applications:

* **face recognition** — 400x226-pixel video frames, 6.0 kB each, at the
  smooth-playback target of 24 FPS;
* **voice translation** — 72.0 kB audio frames; heavier per-frame compute
  (speech recognition + machine translation), so the sustainable target
  rate is lower.

A workload couples the frame parameters with an arrival process
(deterministic for camera/microphone capture; Poisson available for
stress tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import random

from repro.core.exceptions import SimulationError

FACE_APP = "face_recognition"
TRANSLATE_APP = "voice_translation"

FACE_FRAME_BYTES = 6_000       # 400x226 compressed frame (paper Sec. VI-A)
TRANSLATE_FRAME_BYTES = 72_000  # audio segment (paper Sec. VI-A)
RESULT_BYTES = 200             # recognized name / translated text + header
ACK_BYTES = 64                 # timestamp echo (paper: "negligible")


@dataclass(frozen=True)
class Workload:
    """Parameters of one sensed data stream."""

    app: str
    frame_bytes: int
    input_rate: float                # frames per second at the source
    result_bytes: int = RESULT_BYTES
    arrival: str = "deterministic"   # or "poisson"

    def __post_init__(self) -> None:
        if self.frame_bytes <= 0:
            raise SimulationError("frame size must be positive")
        if self.input_rate <= 0:
            raise SimulationError("input rate must be positive")
        if self.arrival not in ("deterministic", "poisson"):
            raise SimulationError("unknown arrival process %r" % self.arrival)

    @property
    def frame_interval(self) -> float:
        return 1.0 / self.input_rate

    def interarrival_times(self, rng: Optional[random.Random] = None) -> Iterator[float]:
        """Infinite stream of gaps between successive frames."""
        if self.arrival == "deterministic":
            while True:
                yield self.frame_interval
        else:
            if rng is None:
                rng = random.Random(0)
            while True:
                yield rng.expovariate(self.input_rate)


def face_workload(input_rate: float = 24.0,
                  arrival: str = "deterministic") -> Workload:
    """The paper's face-recognition stream: 6 kB frames at 24 FPS."""
    return Workload(app=FACE_APP, frame_bytes=FACE_FRAME_BYTES,
                    input_rate=input_rate, arrival=arrival)


def translation_workload(input_rate: float = 5.0,
                         arrival: str = "deterministic") -> Workload:
    """The paper's voice-translation stream: 72 kB frames.

    The paper does not state the audio frame rate; we use 5 FPS, a rate
    the swarm's aggregate recognition+translation capacity can meet only
    by combining several fast devices (see DESIGN.md), preserving the
    evaluation's shape.
    """
    return Workload(app=TRANSLATE_APP, frame_bytes=TRANSLATE_FRAME_BYTES,
                    input_rate=input_rate, arrival=arrival)
