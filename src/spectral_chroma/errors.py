"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class PreconditionViolation(ValueError):
    """A named hypothesis of a bound fails for the given inputs."""

    def __init__(self, hypothesis: str, message: str = ""):
        self.hypothesis = hypothesis
        super().__init__(message or f"hypothesis violated: {hypothesis}")


class ToleranceNotReached(RuntimeError):
    """Subdivision budget exhausted before the quadrature target was met."""


class EdgeListError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class EdgelessGraphError(ValueError):
    """Graph has no edges, so the spectral bound is undefined (m = 0)."""
