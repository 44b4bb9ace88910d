"""Exception hierarchy for the Swing reproduction.

All library errors derive from :class:`SwingError` so callers can catch a
single base type at API boundaries.
"""


class SwingError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(SwingError):
    """Raised for malformed application dataflow graphs."""


class GraphValidationError(GraphError):
    """Raised when an :class:`~repro.core.graph.AppGraph` fails validation."""


class SchemaError(SwingError):
    """Raised when a tuple does not match its declared schema."""


class RoutingError(SwingError):
    """Raised when a routing decision cannot be made (e.g. no downstreams)."""


class PolicyError(SwingError):
    """Raised for invalid policy configuration or unknown policy names."""


class SerializationError(SwingError):
    """Raised when a tuple cannot be encoded or decoded."""


class RuntimeStateError(SwingError):
    """Raised when a runtime component is driven through an invalid state."""


class MigrationAborted(RuntimeStateError):
    """Raised when a key-range migration ends with the range not moved."""


class DiscoveryError(SwingError):
    """Raised when master/worker discovery fails."""


class DeploymentError(SwingError):
    """Raised when an application graph cannot be deployed on a swarm."""


class SimulationError(SwingError):
    """Raised for invalid simulation configuration or state."""
