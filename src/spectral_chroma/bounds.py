"""Spectral bounds on independence ratio and chromatic number.

Four layers: the classic finite-graph eigenvalue bound of Hoffman, its
generalization to bounded self-adjoint operators (Bachoc, DeCorte,
de Oliveira, Vallentin), the circle-averaging bounds for hyperbolic
surfaces built on the envelope floor, and the spectral-gap comparison
bound derived from equidistribution rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import (
    DomainError,
    EdgeListError,
    EdgelessGraphError,
    PreconditionViolation,
)
from .spectrum import SpectrumSummary
from .spherical import envelope

#: dense eigensolves beyond this are rejected rather than left to crawl
MAX_EIGENSOLVE_N = 2000

_LN4 = math.log(4.0)

CERTIFIED = "certified-analytic"
SCANNED = "numerical-scan"

WINNER_MAIN = "main_theorem"
WINNER_NEVO = "nevo"
WINNER_TIE = "tie"
_WINNER_TIE_TOL = 1e-12


@dataclass(frozen=True)
class GraphSpectrumResult:
    """Extreme adjacency eigenvalues of a finite graph and the bounds they give."""

    n: int
    M: float
    m: float
    alpha_bound: float
    chi_bound: float


@dataclass(frozen=True)
class HoffmanInputs:
    """Data feeding the operator bound: extreme numerical-range values M >= m,
    a reference eigenvalue R for the all-one function, and the defect
    epsilon = ||A 1 - R 1||."""

    M: float
    m: float
    R: float
    epsilon: float = 0.0

    def __post_init__(self):
        for name, v in (("M", self.M), ("m", self.m), ("R", self.R), ("epsilon", self.epsilon)):
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v}")
        if self.m > self.M:
            raise DomainError(f"m = {self.m} exceeds M = {self.M}")
        if self.epsilon < 0.0:
            raise DomainError(f"epsilon must be non-negative, got {self.epsilon}")


@dataclass(frozen=True)
class OperatorBound:
    alpha_bound: float
    chi_bound: float
    alpha_vacuous: bool  # bound above 1 carries no information; never clamped


@dataclass(frozen=True)
class NevoComparison:
    lam: float
    c_exponent: float | None
    beta: float
    alpha_bound: float
    winner: str


@dataclass(frozen=True)
class BoundReport:
    """All bound values at one radius, with provenance of the floor used."""

    r: float
    ind_ratio_exact: float
    ind_ratio_relaxed: float
    chi_lower: float
    pp_chi_upper: int | None
    m_used: float
    m_provenance: str
    ind_ratio_vacuous: bool
    chi_lower_vacuous: bool
    nevo: NevoComparison | None = None


def hoffman_finite(adjacency, regular: bool = False) -> GraphSpectrumResult:
    """Eigenvalue bound for a finite graph from its dense adjacency matrix.

    alpha_bound = -m/(M-m) and chi_bound = (M-m)/(-m), with M, m the
    extreme adjacency eigenvalues.  The matrix must be symmetric 0/1 with
    zero diagonal and at least one edge; with ``regular`` set, equal row
    sums are also required.  The ratio is normalized by the full vertex
    count, so isolated vertices dilute it without moving M or m.
    """
    A = np.asarray(adjacency, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"adjacency must be a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n > MAX_EIGENSOLVE_N:
        raise DomainError(f"matrix size {n} exceeds the supported n <= {MAX_EIGENSOLVE_N}")
    if n and np.any(np.diagonal(A) != 0.0):
        raise DomainError("adjacency has a self-loop (nonzero diagonal)")
    if not np.array_equal(A, A.T):
        raise DomainError("adjacency must be symmetric")
    if not np.isin(A, (0.0, 1.0)).all():
        raise DomainError("adjacency entries must be 0 or 1")
    if n == 0 or not A.any():
        raise EdgelessGraphError("graph has no edges; the eigenvalue bound is undefined")
    if regular:
        degrees = A.sum(axis=1)
        if not np.all(degrees == degrees[0]):
            raise DomainError("regular flag set but row sums differ")

    eigs = np.linalg.eigvalsh(A)
    M, m = float(eigs[-1]), float(eigs[0])
    alpha = -m / (M - m)
    chi = (M - m) / (-m)
    return GraphSpectrumResult(n=n, M=M, m=m, alpha_bound=alpha, chi_bound=chi)


def hoffman_operator(inputs: HoffmanInputs) -> OperatorBound:
    """Operator form of the bound.

    alpha_bound = (-m + 2 eps)/(R - m - eps), valid under the hypothesis
    R - m - eps > 0; chi_bound = (M - m)/(-m), needing m < 0.  Violated
    hypotheses raise, naming themselves; they are never silently absorbed.
    """
    if not inputs.m < 0.0:
        raise PreconditionViolation("m < 0", f"m = {inputs.m} is not negative")
    gap = inputs.R - inputs.m - inputs.epsilon
    if not gap > 0.0:
        raise PreconditionViolation(
            "R - m - epsilon > 0",
            f"R - m - epsilon = {gap} is not positive",
        )
    alpha = (-inputs.m + 2.0 * inputs.epsilon) / gap
    chi = (inputs.M - inputs.m) / (-inputs.m)
    return OperatorBound(alpha_bound=alpha, chi_bound=chi, alpha_vacuous=alpha > 1.0)


def _pp_chi_upper(r: float) -> int | None:
    # explicit coloring bound of Parlier and Petit, 5*(ceil(r/ln 4) + 1),
    # proved for r > 5 only
    if r > 5.0:
        return 5 * (math.ceil(r / _LN4) + 1)
    return None


def main_bounds(r: float, summary: SpectrumSummary | None = None) -> BoundReport:
    """Bound report for radius r.

    The default floor is the certified -(r+1)exp(-r/2); given a scan
    ``summary`` at r, its scanned minimum is used instead and the report is
    labeled as numerical and uncertified.  Values are reported as the
    formulas give them; an independence-ratio bound above 1 or a chromatic
    bound below 1 is flagged vacuous, not clamped.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"bounds need r > 0, got {r}")
    env = envelope(r)
    chi_lower = 1.0 / env if env > 0.0 else math.inf
    if not math.isfinite(chi_lower):
        raise DomainError(f"1/envelope overflows at r = {r}, beyond about r = 1434.1; use log_envelope")
    if summary is None:
        m_used, provenance = -env, CERTIFIED
    elif summary.r != r:
        raise DomainError(f"scan summary is for r = {summary.r}, not r = {r}")
    else:
        m_used, provenance = summary.m_numeric, SCANNED

    operator = hoffman_operator(HoffmanInputs(M=1.0, m=m_used, R=1.0, epsilon=0.0))
    return BoundReport(
        r=r,
        ind_ratio_exact=operator.alpha_bound,
        ind_ratio_relaxed=env,
        chi_lower=chi_lower,
        pp_chi_upper=_pp_chi_upper(r),
        m_used=m_used,
        m_provenance=provenance,
        ind_ratio_vacuous=env > 1.0,
        chi_lower_vacuous=chi_lower < 1.0,
    )


def nevo_beta(r: float, lam: float, c_exponent: float | None = None) -> tuple[float, float]:
    """Comparison bound from the equidistribution rate of circle averages.

    beta bounds the operator norm on the complement of constants; the
    resulting independence-ratio bound is beta/(1+beta).  For spectral gap
    lam >= 1/4 the decay carries the full exp(-r/2); for lam < 1/4 only
    exp(-C r/2) with a caller-supplied C in [0, 1) -- no default, since the
    right C depends on the surface.  Returns (beta, alpha_bound).
    """
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"nevo_beta needs r > 0, got {r}")
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"spectral gap lambda must be positive, got {lam}")
    if c_exponent is not None and not (0.0 <= c_exponent < 1.0):
        raise DomainError(f"c_exponent must lie in [0, 1), got {c_exponent}")

    spectral_factor = 1.0 + abs(1.0 + 4.0 * lam) ** -0.5
    if lam >= 0.25:
        scale = math.exp(-0.5 * r)
    else:
        if c_exponent is None:
            raise DomainError("c_exponent is required when lambda < 1/4")
        # the additive 1 in spectral_factor keeps this branch continuous
        # with the lam >= 1/4 one as C -> 1
        scale = math.exp(-0.5 * c_exponent * r)
    beta = min(0.5 * r, spectral_factor) * scale
    return beta, beta / (1.0 + beta)


def _pick_winner(main_alpha: float, nevo_alpha: float) -> str:
    if abs(main_alpha - nevo_alpha) <= _WINNER_TIE_TOL:
        return WINNER_TIE
    return WINNER_NEVO if nevo_alpha < main_alpha else WINNER_MAIN


def compare(r: float, lam: float | None = None, c_exponent: float | None = None) -> BoundReport:
    """Full report; the comparison block is attached when lam is given.

    The winner is whichever independence-ratio bound is smaller, with ties
    called at 1e-12.
    """
    report = main_bounds(r)
    if lam is None:
        if c_exponent is not None:
            raise DomainError("c_exponent is only meaningful together with lambda")
        return report
    beta, alpha = nevo_beta(r, lam, c_exponent)
    block = NevoComparison(
        lam=lam,
        c_exponent=c_exponent if lam < 0.25 else None,
        beta=beta,
        alpha_bound=alpha,
        winner=_pick_winner(report.ind_ratio_exact, alpha),
    )
    return replace(report, nevo=block)


def parse_edge_list(lines: Iterable[str]) -> np.ndarray:
    """Adjacency matrix from edge-list text.

    One "u v" pair of 0-based vertex ids per line; '#' starts a comment;
    an optional first content line "n <count>" pins the vertex count,
    otherwise it is 1 + the largest id.  Duplicate edges collapse;
    self-loops, malformed lines and lines that are not UTF-8 (holding
    lone surrogates) are rejected with their line number.
    """
    declared: int | None = None
    edges: list[tuple[int, int]] = []
    seen_content = False
    for line_no, raw in enumerate(lines, start=1):
        try:
            raw.encode("utf-8")
        except UnicodeEncodeError:
            raise EdgeListError(line_no, "not UTF-8") from None
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        if not seen_content and tokens[0] == "n":
            seen_content = True
            if len(tokens) != 2:
                raise EdgeListError(line_no, "header must be 'n <count>'")
            try:
                declared = int(tokens[1])
            except ValueError:
                raise EdgeListError(line_no, f"vertex count {tokens[1]!r} is not an integer") from None
            if declared < 0:
                raise EdgeListError(line_no, f"vertex count must be non-negative, got {declared}")
            if declared > MAX_EIGENSOLVE_N:
                raise EdgeListError(line_no, f"vertex count {declared} exceeds the supported n <= {MAX_EIGENSOLVE_N}")
            continue
        seen_content = True
        if len(tokens) != 2:
            raise EdgeListError(line_no, f"expected 'u v', got {text!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(line_no, f"vertex ids must be integers, got {text!r}") from None
        if u < 0 or v < 0:
            raise EdgeListError(line_no, f"vertex ids must be non-negative, got {u} {v}")
        if u == v:
            raise EdgeListError(line_no, f"self-loop at vertex {u}")
        top = max(u, v)
        if declared is not None and top >= declared:
            raise EdgeListError(line_no, f"vertex id {top} outside declared count {declared}")
        if top >= MAX_EIGENSOLVE_N:
            raise EdgeListError(line_no, f"vertex id {top} exceeds the supported n <= {MAX_EIGENSOLVE_N}")
        edges.append((u, v))

    n = declared if declared is not None else (max((max(e) for e in edges), default=-1) + 1)
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] = A[v, u] = 1.0
    return A


def read_edge_list(path) -> np.ndarray:
    """Adjacency matrix from an edge-list file (UTF-8, LF, an optional leading byte-order mark)."""
    # bytes that are not UTF-8 read as lone surrogates, which parse_edge_list rejects
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        return parse_edge_list(fh)
