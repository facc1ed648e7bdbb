"""Batched Gauss-Kronrod panel quadrature for smooth vectorized integrands.

The 7/15 pair gives an error estimate at no extra cost: the 7-point Gauss
nodes are embedded in the 15-point Kronrod rule, so one batch of function
values yields both the panel integrals and the difference that decides
which items ``_refine``, the one panel-doubling loop here, evaluates again
on twice as many panels.  A pass evaluates its items either from integrand
values at the nodes (``integrate``) or, for cosines whose frequencies form
an arithmetic progression, as matrix products of shared trigonometric
tables (``_cosine_progression``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ToleranceNotReached

# Gauss-Kronrod 7/15 on [-1, 1].  Gauss weights carry zeros at the
# Kronrod-only nodes so both rules are plain dot products.
_NODES = np.array([
    -0.9914553711208126,
    -0.9491079123427585,
    -0.8648644233597691,
    -0.7415311855993944,
    -0.5860872354676911,
    -0.4058451513773972,
    -0.2077849550078985,
    0.0,
    0.2077849550078985,
    0.4058451513773972,
    0.5860872354676911,
    0.7415311855993944,
    0.8648644233597691,
    0.9491079123427585,
    0.9914553711208126,
])
_WEIGHTS_KRONROD = np.array([
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
    0.2044329400752989,
    0.1903505780647854,
    0.1690047266392679,
    0.1406532597155259,
    0.1047900103222502,
    0.0630920926299786,
    0.0229353220105292,
])
_WEIGHTS_GAUSS = np.array([
    0.0,
    0.1294849661688697,
    0.0,
    0.2797053914892767,
    0.0,
    0.3818300505051189,
    0.0,
    0.4179591836734694,
    0.0,
    0.3818300505051189,
    0.0,
    0.2797053914892767,
    0.0,
    0.1294849661688697,
    0.0,
])


@dataclass(frozen=True)
class QuadratureSpec:
    """Error budget for the integrator."""

    abs_tol: float = 1e-10
    max_subdivisions: int = 65536

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


DEFAULT_QUADRATURE = QuadratureSpec()


_EPS = float(np.finfo(float).eps)

# values held at once by one block of work: integrand values (items x
# panels x 15 nodes), or trigonometric tables and their products
_BLOCK_ELEMENTS = 65_536


def _panel_nodes(lefts: np.ndarray, rights: np.ndarray):
    """The (panels, 15) Kronrod nodes of a batch of panels, and their half-widths."""
    mids = 0.5 * (lefts + rights)
    halves = 0.5 * (rights - lefts)
    return mids[:, None] + halves[:, None] * _NODES[None, :], halves


def _estimate(kron: np.ndarray, gauss: np.ndarray, kron_abs: np.ndarray) -> np.ndarray:
    """Per-panel error estimate from the Kronrod, Gauss and Kronrod-|f| sums.

    The classic sharpened difference min(|K15-G7|, (200*|K15-G7|)^1.5),
    floored at the round-off level 50*eps*kron_abs so an estimate of zero
    can never fake convergence to an unattainable tolerance.
    """
    raw = np.abs(kron - gauss)
    return np.maximum(np.minimum(raw, (200.0 * raw) ** 1.5), 50.0 * _EPS * kron_abs)


def panel_rule(f: Callable[[np.ndarray], np.ndarray], lefts: np.ndarray, rights: np.ndarray):
    """Kronrod values and error estimates for a batch of panels.

    f maps the (panels, 15) nodes to values of shape (..., panels, 15) whose
    leading axes are items sharing the panels; results are per item and panel.
    The estimate is _estimate's, floored with kron_abs = int|f| by the
    Kronrod rule.
    """
    nodes, halves = _panel_nodes(lefts, rights)
    fv = f(nodes)
    kron = halves * (fv @ _WEIGHTS_KRONROD)
    gauss = halves * (fv @ _WEIGHTS_GAUSS)
    kron_abs = halves * (np.abs(fv) @ _WEIGHTS_KRONROD)
    return kron, _estimate(kron, gauss, kron_abs)


def _cosine_progression(s0: float, step: float, n_items: int,
                        phase: Callable[[np.ndarray], np.ndarray],
                        weight: Callable[[np.ndarray], np.ndarray],
                        n_panels: int, abs_tol: float,
                        max_subdivisions: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Integrate f_k(t) = cos((s0 + k step) phase(t)) weight(t), k < n_items, over [0, 1].

    With k = a B + b and B = ceil(sqrt(n_items)), cos(s_k phase) is the real
    part of exp(i (s0 + a B step) phase) exp(i b step phase).  So on each
    panel the Kronrod and Gauss sums of all items are one real matrix
    product: the coarse rows a, as a (2 rows x 30) table of cosines and
    sines weighted by h w K_j and h w G_j, times the (30 x B) table of the
    fine columns b.  That costs about 60 sqrt(n_items) cosines and sines
    per panel instead of 15 n_items, and the (items, panels, 15) array of
    integrand values is never built.  Rows and panels are taken in chunks
    whose tables and products hold at most _BLOCK_ELEMENTS values.  The
    round-off floor uses kron_abs = h sum K_j |w|, which bounds int |f_k|
    for every k since |cos| <= 1.  Panels, refinement, the budget and the
    result are _refine's, as in integrate.
    """
    width = math.isqrt(n_items - 1) + 1
    fine = np.arange(width) * step
    rules = np.stack((_WEIGHTS_KRONROD, _WEIGHTS_GAUSS))

    def panel_sums(coarse: np.ndarray, t: np.ndarray, h: np.ndarray):
        # (K, G) x (cos, -sin) weighted rows, times (cos, sin) of the columns
        ph, w = phase(t), h[:, None] * weight(t)
        a = coarse[None, :, None] * ph[:, None, :]
        b = ph[:, :, None] * fine[None, None, :]
        rows_trig = np.concatenate((np.cos(a), -np.sin(a)), axis=2)
        left = np.tile(w[:, None, :] * rules, 2)[:, :, None, :] * rows_trig[:, None, :, :]
        prod = left.reshape(len(t), 2 * coarse.size, 30) @ np.concatenate((np.cos(b), np.sin(b)), axis=1)
        return prod[:, :coarse.size], prod[:, coarse.size:], (np.abs(w) @ _WEIGHTS_KRONROD)[:, None, None]

    def evaluate(todo: np.ndarray, panels: int):
        edges = np.linspace(0.0, 1.0, panels + 1)
        nodes, halves = _panel_nodes(edges[:-1], edges[1:])
        coarse_of, fine_of = np.divmod(todo, width)
        rows = np.unique(coarse_of)
        rows_per_chunk = max(1, _BLOCK_ELEMENTS // (2 * width))
        for first in range(0, rows.size, rows_per_chunk):
            chunk = rows[first:first + rows_per_chunk]
            coarse = s0 + (chunk * width) * step
            sums = np.zeros((3, chunk.size, width))
            per_chunk = max(1, _BLOCK_ELEMENTS // max(2 * chunk.size * width, 30 * width, 60 * chunk.size))
            for start in range(0, panels, per_chunk):
                panel = slice(start, start + per_chunk)
                kron, gauss, kron_abs = panel_sums(coarse, nodes[panel], halves[panel])
                sums[0] += kron.sum(axis=0)
                sums[1] += _estimate(kron, gauss, kron_abs).sum(axis=0)
                sums[2] += np.abs(kron).sum(axis=0)
            lo = np.searchsorted(coarse_of, chunk[0], side="left")
            hi = np.searchsorted(coarse_of, chunk[-1], side="right")
            at = (np.searchsorted(chunk, coarse_of[lo:hi]), fine_of[lo:hi])
            yield todo[lo:hi], sums[0][at], sums[1][at], sums[2][at]

    return _refine(evaluate, n_items, n_panels, abs_tol, max_subdivisions)


def initial_panels(width: float, max_panel_width: float, max_subdivisions: int) -> int:
    """Uniform panel count ceil(width / max_panel_width), at least 1.

    The count is checked against the subdivision budget before anything is
    allocated, so a panel cap far below the interval raises
    ToleranceNotReached instead of building an array sized by the input.
    """
    ratio = width / max_panel_width if max_panel_width > 0.0 else math.inf
    if not ratio <= max_subdivisions:
        raise ToleranceNotReached(
            f"{ratio:.3e} initial panels exceed the subdivision budget {max_subdivisions}"
        )
    return max(1, math.ceil(ratio))


def integrate(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_items: int,
    n_panels: int,
    abs_tol: float,
    max_subdivisions: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Integrate a batch of n_items integrands over t in [0, 1].

    f(items, t) maps an index array of items and the (panels, 15) nodes to
    values of shape (len(items), panels, 15), evaluated by panel_rule in
    blocks of _BLOCK_ELEMENTS integrand values.  Panels, refinement, the
    budget and the result (values, error_estimates, panels of the finest
    pass) are _refine's; ToleranceNotReached when the budget is exhausted.
    """
    def node_pass(todo: np.ndarray, panels: int):
        edges = np.linspace(0.0, 1.0, panels + 1)
        per_block = max(1, _BLOCK_ELEMENTS // (15 * panels))
        for start in range(0, todo.size, per_block):
            items = todo[start:start + per_block]
            kron, err = panel_rule(lambda t: f(items, t), edges[:-1], edges[1:])
            yield items, kron.sum(axis=-1), err.sum(axis=-1), np.abs(kron).sum(axis=-1)

    return _refine(node_pass, n_items, n_panels, abs_tol, max_subdivisions)


def _refine(evaluate, n_items: int, n_panels: int, abs_tol: float,
            max_subdivisions: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The panel-doubling loop shared by every integrand.

    evaluate(todo, panels) yields, block by block, (items, value, error,
    sum |K15|) per item of todo on the given number of uniform panels of
    [0, 1].  All items start on n_panels panels; an item whose summed
    estimate misses abs_tol is evaluated again on twice as many, until
    every item fits.  Refinement may add at most max_subdivisions panels
    beyond n_panels, and an item whose round-off floor 50*eps*sum|K15|
    already exceeds abs_tol fails at once.

    Returns (values, error_estimates, panels of the finest pass).
    Raises ToleranceNotReached when the budget is exhausted.
    """
    values, errors = np.empty(n_items), np.empty(n_items)
    todo = np.arange(n_items)
    panels = n_panels
    while True:
        for items, value, error, magnitude in evaluate(todo, panels):
            values[items], errors[items] = value, error
            floor = 50.0 * _EPS * magnitude.max()
            if floor > abs_tol:
                raise ToleranceNotReached(
                    f"round-off floor {floor:.3e} exceeds abs_tol {abs_tol:.3e}; "
                    "no subdivision budget reaches it"
                )
        todo = todo[errors[todo] > abs_tol]
        if todo.size == 0:
            return values, errors, panels
        if 2 * panels - n_panels > max_subdivisions:
            raise ToleranceNotReached(
                f"subdivision budget {max_subdivisions} exhausted with error "
                f"{errors[todo].max():.3e} > abs_tol {abs_tol:.3e}"
            )
        panels *= 2
