"""Application dataflow graphs.

A Swing app is a directed acyclic graph whose vertices are function units
and whose edges carry data tuples (paper Sec. IV-A).  The *logical* graph
declares unit kinds and their topology; at deployment each logical unit may
be replicated on several devices (Fig. 3 shows units B and C each running
on multiple devices), and the routing policies pick among those replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.exceptions import GraphError, GraphValidationError
from repro.core.function_unit import FunctionUnit
from repro.core.tuples import TupleSchema

UnitFactory = Callable[[], FunctionUnit]


@dataclass
class FunctionUnitSpec:
    """Declaration of one logical function unit in an app graph.

    ``factory`` builds a fresh :class:`FunctionUnit` instance per device the
    unit is deployed on.  ``role`` is one of ``"source"``, ``"compute"`` or
    ``"sink"``.
    """

    name: str
    factory: UnitFactory
    role: str = "compute"
    output_schema: Optional[TupleSchema] = None

    _VALID_ROLES = ("source", "compute", "sink")

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("function unit needs a non-empty name")
        if self.role not in self._VALID_ROLES:
            raise GraphError("invalid role %r for unit %r (expected one of %r)"
                             % (self.role, self.name, self._VALID_ROLES))

    @property
    def is_source(self) -> bool:
        return self.role == "source"

    @property
    def is_sink(self) -> bool:
        return self.role == "sink"


class AppGraph:
    """A directed acyclic graph of function unit specs.

    Built with :meth:`add_unit` / :meth:`connect` or the fluent
    :class:`GraphBuilder`.  :meth:`validate` enforces the structural rules
    the paper's deployment step relies on: at least one source and one sink,
    acyclicity, full connectivity, and sources/sinks in the right positions.
    """

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self._units: Dict[str, FunctionUnitSpec] = {}
        self._downstreams: Dict[str, List[str]] = {}
        self._upstreams: Dict[str, List[str]] = {}

    # -- construction ----------------------------------------------------
    def add_unit(self, spec: FunctionUnitSpec) -> FunctionUnitSpec:
        if spec.name in self._units:
            raise GraphError("duplicate function unit name %r" % spec.name)
        self._units[spec.name] = spec
        self._downstreams[spec.name] = []
        self._upstreams[spec.name] = []
        return spec

    def connect(self, upstream: str, downstream: str) -> None:
        """Add the edge *upstream* -> *downstream* (paper: ``connectTo``)."""
        for name in (upstream, downstream):
            if name not in self._units:
                raise GraphError("unknown function unit %r" % name)
        if upstream == downstream:
            raise GraphError("self-loop on unit %r" % upstream)
        if downstream in self._downstreams[upstream]:
            raise GraphError("duplicate edge %r -> %r" % (upstream, downstream))
        self._downstreams[upstream].append(downstream)
        self._upstreams[downstream].append(upstream)

    # -- queries ---------------------------------------------------------
    @property
    def unit_names(self) -> List[str]:
        return list(self._units)

    def unit(self, name: str) -> FunctionUnitSpec:
        try:
            return self._units[name]
        except KeyError:
            raise GraphError("unknown function unit %r" % name) from None

    def downstreams(self, name: str) -> List[str]:
        """Names of units this unit sends tuples to."""
        self.unit(name)
        return list(self._downstreams[name])

    def upstreams(self, name: str) -> List[str]:
        """Names of units this unit receives tuples from."""
        self.unit(name)
        return list(self._upstreams[name])

    def sources(self) -> List[FunctionUnitSpec]:
        return [spec for spec in self._units.values() if spec.is_source]

    def sinks(self) -> List[FunctionUnitSpec]:
        return [spec for spec in self._units.values() if spec.is_sink]

    def edges(self) -> List[Tuple[str, str]]:
        return [(up, down)
                for up, downs in self._downstreams.items()
                for down in downs]

    def compute_units(self) -> List[FunctionUnitSpec]:
        return [spec for spec in self._units.values()
                if not spec.is_source and not spec.is_sink]

    # -- validation ------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Return unit names in topological order; raise on cycles."""
        in_degree = {name: len(ups) for name, ups in self._upstreams.items()}
        ready = sorted(name for name, degree in in_degree.items() if degree == 0)
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for downstream in self._downstreams[name]:
                in_degree[downstream] -= 1
                if in_degree[downstream] == 0:
                    ready.append(downstream)
        if len(order) != len(self._units):
            cyclic = sorted(set(self._units) - set(order))
            raise GraphValidationError("cycle involving units %r" % (cyclic,))
        return order

    def validate(self) -> None:
        """Check the structural invariants required for deployment."""
        if not self._units:
            raise GraphValidationError("graph %r has no function units" % self.name)
        if not self.sources():
            raise GraphValidationError("graph %r has no source unit" % self.name)
        if not self.sinks():
            raise GraphValidationError("graph %r has no sink unit" % self.name)
        for spec in self._units.values():
            ups, downs = self._upstreams[spec.name], self._downstreams[spec.name]
            if spec.is_source and ups:
                raise GraphValidationError("source %r has upstream units %r"
                                           % (spec.name, ups))
            if spec.is_sink and downs:
                raise GraphValidationError("sink %r has downstream units %r"
                                           % (spec.name, downs))
            if not spec.is_source and not ups:
                raise GraphValidationError("unit %r is unreachable (no upstream)"
                                           % spec.name)
            if not spec.is_sink and not downs:
                raise GraphValidationError("unit %r is a dead end (no downstream)"
                                           % spec.name)
        self.topological_order()

    def stages(self) -> List[str]:
        """Return the linear pipeline order for chain-shaped graphs.

        Many sensing apps (both apps in the paper) are simple chains
        source -> f1 -> ... -> sink.  Raises if the graph is not a chain.
        """
        order = self.topological_order()
        for name in order:
            if len(self._downstreams[name]) > 1 or len(self._upstreams[name]) > 1:
                raise GraphError("graph %r is not a linear pipeline" % self.name)
        return order


class GraphBuilder:
    """Fluent builder mirroring the paper's ``compose()`` API.

    Example::

        graph = (GraphBuilder("face-recognition")
                 .source("camera", Camera)
                 .unit("detector", Detector)
                 .unit("recognizer", Recognizer)
                 .sink("display", Display)
                 .chain("camera", "detector", "recognizer", "display")
                 .build())
    """

    def __init__(self, name: str = "app") -> None:
        self._graph = AppGraph(name)

    def source(self, name: str, factory: UnitFactory,
               output_schema: Optional[TupleSchema] = None) -> "GraphBuilder":
        self._graph.add_unit(FunctionUnitSpec(name, factory, role="source",
                                              output_schema=output_schema))
        return self

    def unit(self, name: str, factory: UnitFactory,
             output_schema: Optional[TupleSchema] = None) -> "GraphBuilder":
        self._graph.add_unit(FunctionUnitSpec(name, factory, role="compute",
                                              output_schema=output_schema))
        return self

    def sink(self, name: str, factory: UnitFactory) -> "GraphBuilder":
        self._graph.add_unit(FunctionUnitSpec(name, factory, role="sink"))
        return self

    def connect(self, upstream: str, downstream: str) -> "GraphBuilder":
        self._graph.connect(upstream, downstream)
        return self

    def chain(self, *names: str) -> "GraphBuilder":
        """Connect *names* in sequence: a -> b -> c -> ..."""
        for upstream, downstream in zip(names, names[1:]):
            self._graph.connect(upstream, downstream)
        return self

    def build(self) -> AppGraph:
        self._graph.validate()
        return self._graph
