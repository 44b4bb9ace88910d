"""Swing: swarm computing for mobile sensing — full reproduction.

A Python reimplementation of the ICDCS 2018 Swing system: a dataflow
programming model for collaborative mobile sensing apps, the LRS
distributed resource-management algorithm with its four baselines, a
threaded master/worker runtime, a calibrated discrete-event swarm
simulator, and the paper's two sensing applications (face recognition
and voice translation) built on numpy.

Quickstart::

    from repro.simulation import scenarios, run_swarm

    result = run_swarm(scenarios.testbed(policy="LRS"))
    print(result.throughput, result.latency.mean)
"""

from importlib import import_module as _import_module

__version__ = "1.0.0"

#: subpackages loaded on first attribute access (PEP 562), so a device
#: importing ``repro.runtime`` or ``repro.metrics`` does not pay for the
#: simulator, the planner or the tools it never runs
_SUBPACKAGES = ("core", "planner", "profiles", "simulation", "tools")

__all__ = [*_SUBPACKAGES, "__version__"]


def __getattr__(name):
    if name in _SUBPACKAGES:
        return _import_module("repro." + name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_SUBPACKAGES))
