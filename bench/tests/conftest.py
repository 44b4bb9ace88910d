"""Tests of the benchmark itself: ``python -m pytest bench/tests``.

Not part of tier-1 (``pyproject.toml`` points pytest at ``tests/``).
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
