"""Face detection: normalized cross-correlation sliding window.

Stands in for OpenCV's CascadeClassifier (paper Sec. VI-A): an average
face template is matched against every window position via normalized
cross-correlation computed with integral images, followed by
non-maximum suppression.  Pure numpy, genuinely compute-bound per
frame — the property the offloading framework cares about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.apps.face.images import FACE_SIZE, FaceGenerator
from repro.core.exceptions import SwingError


@dataclass(frozen=True)
class Detection:
    """One detected face: top-left corner, size and match score."""

    x: int
    y: int
    size: int
    score: float

    def box(self) -> Tuple[int, int, int, int]:
        return (self.x, self.y, self.size, self.size)

    def iou(self, other: "Detection") -> float:
        """Intersection-over-union with another detection."""
        x1 = max(self.x, other.x)
        y1 = max(self.y, other.y)
        x2 = min(self.x + self.size, other.x + other.size)
        y2 = min(self.y + self.size, other.y + other.size)
        inter = max(0, x2 - x1) * max(0, y2 - y1)
        union = self.size ** 2 + other.size ** 2 - inter
        return inter / union if union else 0.0


def build_template(generator: FaceGenerator, samples: int = 4,
                   size: int = FACE_SIZE) -> np.ndarray:
    """Average-face template over all identities with pose jitter."""
    patches = []
    for identity in generator.identities:
        for _ in range(samples):
            patches.append(generator.render(identity, size=size, jitter=0.5))
    template = np.mean(patches, axis=0)
    template -= template.mean()
    norm = np.linalg.norm(template)
    if norm == 0:
        raise SwingError("degenerate face template")
    return (template / norm).astype(np.float32)


class FaceDetector:
    """Sliding-window NCC detector with non-maximum suppression."""

    def __init__(self, generator: FaceGenerator, threshold: float = 0.55,
                 stride: int = 4, size: int = FACE_SIZE) -> None:
        if not 0.0 < threshold <= 1.0:
            raise SwingError("threshold must be in (0, 1]")
        if stride < 1:
            raise SwingError("stride must be >= 1")
        self.threshold = threshold
        self.stride = stride
        self.size = size
        self.template = build_template(generator, size=size)

    def detect(self, image: np.ndarray) -> List[Detection]:
        """All face detections in *image*, best score first."""
        if image.ndim != 2:
            raise SwingError("detector expects a 2-D grayscale image")
        scores, xs, ys = self._score_map(image)
        keep = scores >= self.threshold
        candidates = [Detection(x=int(x), y=int(y), size=self.size,
                                score=float(score))
                      for score, x, y in zip(scores[keep], xs[keep], ys[keep])]
        candidates.sort(key=lambda d: -d.score)
        return _non_maximum_suppression(candidates)

    def _score_map(self, image: np.ndarray):
        """NCC score for every stride-aligned window (vectorized)."""
        size, stride = self.size, self.stride
        h, w = image.shape
        if h < size or w < size:
            return (np.empty(0), np.empty(0, dtype=int), np.empty(0, dtype=int))
        windows = np.lib.stride_tricks.sliding_window_view(image, (size, size))
        windows = windows[::stride, ::stride]
        ny, nx = windows.shape[:2]
        flat = windows.reshape(ny * nx, size * size).astype(np.float32)
        means = flat.mean(axis=1, keepdims=True)
        centered = flat - means
        norms = np.linalg.norm(centered, axis=1)
        norms[norms == 0] = 1.0
        scores = centered @ self.template.reshape(-1) / norms
        ys, xs = np.mgrid[0:ny, 0:nx]
        return scores, (xs.reshape(-1) * stride), (ys.reshape(-1) * stride)


def _non_maximum_suppression(candidates: List[Detection],
                             max_iou: float = 0.25) -> List[Detection]:
    kept: List[Detection] = []
    for candidate in candidates:
        if all(candidate.iou(existing) <= max_iou for existing in kept):
            kept.append(candidate)
    return kept


def crop(image: np.ndarray, detection: Detection) -> np.ndarray:
    """The face patch under a detection box."""
    return image[detection.y:detection.y + detection.size,
                 detection.x:detection.x + detection.size]
