"""Circle-averaging spectra and chromatic bounds for hyperbolic surfaces.

Evaluates the eigenvalues of the radius-r circle-averaging operator on the
hyperbolic plane, scans its numerical range, and turns the certified
envelope floor into independence-ratio and chromatic-number bounds, with a
finite-graph eigenvalue bound alongside for cross-checking.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    GraphSpectrumResult,
    HoffmanInputs,
    NevoComparison,
    OperatorBound,
    compare,
    hoffman_finite,
    hoffman_operator,
    main_bounds,
    nevo_beta,
    parse_edge_list,
    read_edge_list,
)
from .errors import (
    DomainError,
    EdgeListError,
    EdgelessGraphError,
    PreconditionViolation,
    ToleranceNotReached,
)
from .geometry import MAX_CIRCLE_RADIUS, ORIGIN, Point, circle_point, distance
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec
from .spectrum import (
    SpectrumSummary,
    default_s_max,
    scan_principal,
    verify_eigenfunction,
)
from .spherical import (
    SpectralParameter,
    eigenvalue,
    envelope,
    log_envelope,
    principal_grid,
)

__all__ = [
    "BoundReport",
    "DEFAULT_QUADRATURE",
    "DomainError",
    "EdgeListError",
    "EdgelessGraphError",
    "GraphSpectrumResult",
    "HoffmanInputs",
    "MAX_CIRCLE_RADIUS",
    "NevoComparison",
    "ORIGIN",
    "OperatorBound",
    "Point",
    "PreconditionViolation",
    "QuadratureSpec",
    "SpectralParameter",
    "SpectrumSummary",
    "ToleranceNotReached",
    "circle_point",
    "compare",
    "default_s_max",
    "distance",
    "eigenvalue",
    "envelope",
    "hoffman_finite",
    "hoffman_operator",
    "log_envelope",
    "main_bounds",
    "nevo_beta",
    "parse_edge_list",
    "principal_grid",
    "read_edge_list",
    "scan_principal",
    "verify_eigenfunction",
]
