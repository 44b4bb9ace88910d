"""Synthetic speech audio.

Stands in for microphone capture feeding PocketSphinx (paper Sec. VI-A).
Every vocabulary word has a deterministic acoustic signature — a short
sequence of tone segments whose frequencies are derived from the word —
and an utterance is words separated by silence gaps, plus noise.  The
recognizer must segment by energy and classify each segment by its
spectral content: the same structure as real keyword spotting, built on
primitives (windowing, FFT, energy tracking) that carry real compute.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import SwingError

SAMPLE_RATE = 8_000
SEGMENTS_PER_WORD = 3
SEGMENT_SECONDS = 0.08
GAP_SECONDS = 0.06
MIN_TONE_HZ = 400.0
MAX_TONE_HZ = 3_400.0
#: quantization grid keeps distinct words' tones separable
TONE_STEP_HZ = 120.0


def word_signature(word: str) -> Tuple[float, ...]:
    """The deterministic tone sequence (Hz) encoding *word*."""
    if not word:
        raise SwingError("cannot build a signature for an empty word")
    digest = hashlib.sha256(word.lower().encode("utf-8")).digest()
    tones = []
    span = MAX_TONE_HZ - MIN_TONE_HZ
    steps = int(span / TONE_STEP_HZ)
    for index in range(SEGMENTS_PER_WORD):
        bucket = int.from_bytes(digest[index * 2:index * 2 + 2], "big") % steps
        tones.append(MIN_TONE_HZ + bucket * TONE_STEP_HZ)
    return tuple(tones)


def synthesize_word(word: str, noise: float = 0.01,
                    rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Waveform of one word: its tone segments back to back."""
    samples_per_segment = int(SAMPLE_RATE * SEGMENT_SECONDS)
    t = np.arange(samples_per_segment) / SAMPLE_RATE
    segments = []
    for tone in word_signature(word):
        wave = 0.8 * np.sin(2 * np.pi * tone * t)
        # A soft attack/decay envelope, as real speech segments have.
        envelope = np.hanning(samples_per_segment) * 0.6 + 0.4
        segments.append(wave * envelope)
    waveform = np.concatenate(segments)
    if noise > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        waveform = waveform + rng.normal(0.0, noise, waveform.shape)
    return waveform.astype(np.float32)


def synthesize_utterance(words: Sequence[str], noise: float = 0.01,
                         seed: int = 0) -> np.ndarray:
    """Waveform of an utterance: words separated by silence gaps."""
    if not words:
        raise SwingError("an utterance needs at least one word")
    rng = np.random.default_rng(seed)
    gap = np.zeros(int(SAMPLE_RATE * GAP_SECONDS), dtype=np.float32)
    if noise > 0:
        gap = gap + rng.normal(0.0, noise, gap.shape).astype(np.float32)
    pieces: List[np.ndarray] = [gap]
    for word in words:
        pieces.append(synthesize_word(word, noise=noise, rng=rng))
        pieces.append(gap.copy())
    return np.concatenate(pieces).astype(np.float32)


def encode_audio(waveform: np.ndarray) -> bytes:
    """Pack a waveform into 16-bit PCM (the microphone wire format)."""
    clipped = np.clip(waveform, -1.0, 1.0)
    return (clipped * 32767.0).astype("<i2").tobytes()


def decode_audio(data: bytes) -> np.ndarray:
    """Unpack 16-bit PCM back into a float waveform."""
    if len(data) % 2:
        raise SwingError("PCM payload has odd length")
    return np.frombuffer(data, dtype="<i2").astype(np.float32) / 32767.0
