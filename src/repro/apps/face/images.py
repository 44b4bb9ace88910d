"""Synthetic face imagery.

The paper's face-recognition app consumes 400x226 video frames from a
camera (OpenCV data path).  With no camera or OpenCV available we build
a parametric face generator: each identity is a vector of facial
geometry parameters (eye spacing, eye size, mouth width/height, face
aspect, skin tone) and rendering produces a grayscale face patch with
pose jitter and sensor noise.  Frames paste zero or more faces onto a
textured background, exercising the same detector/recognizer code path
as real imagery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.exceptions import SwingError

FACE_SIZE = 32                 # square face patch edge, pixels
FRAME_HEIGHT, FRAME_WIDTH = 112, 200  # scaled-down 226x400 video frame


@dataclass(frozen=True)
class Identity:
    """Facial geometry parameters defining one person."""

    name: str
    eye_spacing: float     # fraction of face width between eye centres
    eye_size: float        # eye radius as fraction of face width
    mouth_width: float     # mouth width as fraction of face width
    mouth_height: float    # mouth thickness fraction
    face_aspect: float     # head ellipse height/width ratio
    tone: float            # base skin brightness in [0.3, 0.9]

    def as_vector(self) -> np.ndarray:
        return np.array([self.eye_spacing, self.eye_size, self.mouth_width,
                         self.mouth_height, self.face_aspect, self.tone])


@dataclass
class FacePlacement:
    """Ground truth: where a face was pasted in a frame."""

    name: str
    x: int
    y: int
    size: int

    def box(self) -> Tuple[int, int, int, int]:
        return (self.x, self.y, self.size, self.size)


class FaceGenerator:
    """Renders identities into grayscale face patches."""

    def __init__(self, num_identities: int = 8, seed: int = 0) -> None:
        if num_identities < 1:
            raise SwingError("need at least one identity")
        rng = random.Random(seed)
        self.identities: List[Identity] = []
        for index in range(num_identities):
            self.identities.append(Identity(
                name="person-%02d" % index,
                eye_spacing=rng.uniform(0.30, 0.52),
                eye_size=rng.uniform(0.055, 0.11),
                mouth_width=rng.uniform(0.28, 0.55),
                mouth_height=rng.uniform(0.04, 0.10),
                face_aspect=rng.uniform(1.15, 1.45),
                tone=rng.uniform(0.45, 0.80),
            ))
        self._noise_rng = np.random.default_rng(seed + 1)

    def identity(self, name: str) -> Identity:
        for identity in self.identities:
            if identity.name == name:
                return identity
        raise SwingError("unknown identity %r" % name)

    def render(self, identity: Identity, size: int = FACE_SIZE,
               jitter: float = 0.0, noise: float = 0.02) -> np.ndarray:
        """Render one face patch as float32 in [0, 1].

        ``jitter`` perturbs the geometry (pose/expression variation);
        ``noise`` is the sensor noise standard deviation.
        """
        rng = self._noise_rng
        jit = lambda value, scale: value * (1.0 + jitter * float(rng.normal(0, scale)))
        ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
        cx = cy = (size - 1) / 2.0
        width = size * 0.46
        height = width * jit(identity.face_aspect, 0.05)
        image = np.full((size, size), 0.08, dtype=np.float64)
        # Head: filled ellipse with soft edge.
        dist = ((xs - cx) / width) ** 2 + ((ys - cy) / height) ** 2
        head = np.clip(1.2 - dist, 0.0, 1.0)
        tone = jit(identity.tone, 0.03)
        image += head * tone
        # Eyes: two dark discs.
        spacing = jit(identity.eye_spacing, 0.04) * size
        eye_radius = max(1.0, jit(identity.eye_size, 0.06) * size)
        eye_y = cy - 0.18 * size
        for direction in (-1.0, 1.0):
            eye_x = cx + direction * spacing / 2.0
            disc = ((xs - eye_x) ** 2 + (ys - eye_y) ** 2) <= eye_radius ** 2
            image[disc] = 0.05
        # Mouth: dark horizontal bar.
        mouth_w = jit(identity.mouth_width, 0.05) * size
        mouth_h = max(1.0, jit(identity.mouth_height, 0.08) * size)
        mouth_y = cy + 0.28 * size
        bar = ((np.abs(xs - cx) <= mouth_w / 2.0)
               & (np.abs(ys - mouth_y) <= mouth_h / 2.0))
        image[bar] = 0.12
        # Nose: faint vertical ridge.
        ridge = ((np.abs(xs - cx) <= size * 0.03)
                 & (ys > eye_y) & (ys < mouth_y - size * 0.08))
        image[ridge] += 0.08
        if noise > 0:
            image = image + rng.normal(0.0, noise, image.shape)
        return np.clip(image, 0.0, 1.0).astype(np.float32)

    def gallery(self, samples_per_identity: int = 6,
                jitter: float = 0.6) -> Tuple[np.ndarray, List[str]]:
        """Training data for the recognizer: (stack of patches, labels)."""
        patches, labels = [], []
        for identity in self.identities:
            for _ in range(samples_per_identity):
                patches.append(self.render(identity, jitter=jitter))
                labels.append(identity.name)
        return np.stack(patches), labels


class FrameSynthesizer:
    """Builds camera frames: background texture + pasted faces."""

    def __init__(self, generator: FaceGenerator, seed: int = 0,
                 height: int = FRAME_HEIGHT, width: int = FRAME_WIDTH) -> None:
        self.generator = generator
        self.height = height
        self.width = width
        self._rng = np.random.default_rng(seed + 7)
        self._choice_rng = random.Random(seed + 11)

    def frame(self, face_count: int = 1,
              jitter: float = 0.6) -> Tuple[np.ndarray, List[FacePlacement]]:
        """One frame (float32 in [0,1]) with ground-truth placements."""
        image = 0.18 + 0.05 * self._rng.random((self.height, self.width))
        # Low-frequency background structure so the detector has clutter.
        gx = np.linspace(0, 2 * np.pi, self.width)
        gy = np.linspace(0, 2 * np.pi, self.height)
        image += 0.05 * np.sin(gx)[None, :] * np.cos(gy)[:, None]
        placements: List[FacePlacement] = []
        for _ in range(face_count):
            identity = self._choice_rng.choice(self.generator.identities)
            size = FACE_SIZE
            x = self._choice_rng.randint(0, self.width - size)
            y = self._choice_rng.randint(0, self.height - size)
            if any(abs(p.x - x) < size and abs(p.y - y) < size
                   for p in placements):
                continue  # avoid overlapping faces
            patch = self.generator.render(identity, size=size, jitter=jitter)
            image[y:y + size, x:x + size] = patch
            placements.append(FacePlacement(identity.name, x, y, size))
        return np.clip(image, 0.0, 1.0).astype(np.float32), placements

    def stream(self, count: int, faces_per_frame: int = 1):
        """Generate *count* (frame, placements) pairs."""
        for _ in range(count):
            yield self.frame(face_count=faces_per_frame)


def encode_frame(image: np.ndarray) -> bytes:
    """Pack a float frame into the 8-bit wire format (camera output)."""
    if image.ndim != 2:
        raise SwingError("frames are 2-D grayscale arrays")
    return (np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8).tobytes()


def decode_frame(data: bytes, height: int = FRAME_HEIGHT,
                 width: int = FRAME_WIDTH) -> np.ndarray:
    """Unpack the wire format back into a float frame."""
    expected = height * width
    if len(data) != expected:
        raise SwingError("frame payload is %d bytes; expected %d"
                         % (len(data), expected))
    array = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    return array.astype(np.float32) / 255.0
