"""Exception types shared across the package, and the one check of a time budget."""

import time


class GraphError(Exception):
    """Base class for all steffenlab errors."""


class LoopRejected(GraphError):
    """An edge with equal endpoints was supplied; loops are not allowed."""


class VertexOutOfRange(GraphError):
    """A vertex index fell outside 0..n-1."""


class NonPositiveMultiplicity(GraphError):
    """An edge multiplicity was zero or negative."""


class ParseError(GraphError):
    """Malformed MGR text or JSON graph.  MGR errors carry the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CoverageMismatch(GraphError):
    """A coloring does not cover exactly the edge copies of the graph."""


class InstanceTooLarge(GraphError):
    """Input exceeds an operation's size cap (vertices, cycles or colors)."""


class NotShortestCycle(GraphError):
    """The supplied cycle is not a shortest cycle of the given subgraph."""


class VertexNotInV0(GraphError):
    """Fan apex must lie in the acyclic remainder of the cycle partition."""


class BadParameter(GraphError):
    """Invalid generator parameter."""


class PreconditionFailed(GraphError):
    """A checked operation precondition does not hold.

    `clause` names the violated hypothesis, e.g. "n-odd" or "critical".
    """

    def __init__(self, clause: str, message: str = ""):
        super().__init__(f"{clause}: {message}" if message else clause)
        self.clause = clause


class SolverTimeout(GraphError):
    """Density, a coloring decision, cycle enumeration or a ring search outran its deadline."""


# a deadline is polled once every this many steps (search nodes, enumerated
# odd sets, walked paths, tried rings); a power of two, so the solver's hot
# loop tests it as a bit mask
DEADLINE_POLL_INTERVAL = 1024


def check_deadline(deadline: float | None, what: str) -> None:
    """SolverTimeout(f"{what} exceeded budget") once time.monotonic() is past `deadline`."""
    if deadline is not None and time.monotonic() > deadline:
        raise SolverTimeout(f"{what} exceeded budget")


class ConfigError(GraphError):
    """Invalid scan or suite configuration."""
