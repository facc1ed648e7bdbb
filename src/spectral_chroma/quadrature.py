"""Batched Gauss-Kronrod panel quadrature for smooth vectorized integrands.

The 15/31 pair gives an error estimate at no extra cost: the 15-point
Gauss nodes are embedded in the 31-point Kronrod rule, so one batch of
function values yields both the panel integrals and the difference that
decides which items ``_refine``, the one panel-doubling loop here,
evaluates again on twice as many panels.  Every pass lays its panels by
``_panel_edges``, narrowing towards t = 1, where the integrands oscillate
fastest.  A pass evaluates its items either from integrand values at the
nodes (``integrate``) or, for cosines whose frequencies form an arithmetic
progression, as matrix products of shared trigonometric tables
(``_cosine_progression``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ToleranceNotReached

# Gauss-Kronrod 15/31 on [-1, 1], QUADPACK's dqk31 (Piessens et al., 1983)
# rounded to double.  Gauss weights carry zeros at the Kronrod-only nodes so
# both rules are plain dot products.
_NODES = np.array([
    -0.9980022986933971,
    -0.9879925180204854,
    -0.9677390756791391,
    -0.937273392400706,
    -0.8972645323440819,
    -0.8482065834104272,
    -0.790418501442466,
    -0.7244177313601701,
    -0.650996741297417,
    -0.5709721726085388,
    -0.4850818636402397,
    -0.3941513470775634,
    -0.29918000715316884,
    -0.20119409399743451,
    -0.1011420669187175,
    0.0,
    0.1011420669187175,
    0.20119409399743451,
    0.29918000715316884,
    0.3941513470775634,
    0.4850818636402397,
    0.5709721726085388,
    0.650996741297417,
    0.7244177313601701,
    0.790418501442466,
    0.8482065834104272,
    0.8972645323440819,
    0.937273392400706,
    0.9677390756791391,
    0.9879925180204854,
    0.9980022986933971,
])
_WEIGHTS_KRONROD = np.array([
    0.005377479872923349,
    0.015007947329316122,
    0.02546084732671532,
    0.03534636079137585,
    0.04458975132476488,
    0.05348152469092809,
    0.06200956780067064,
    0.06985412131872826,
    0.07684968075772038,
    0.08308050282313302,
    0.08856444305621176,
    0.09312659817082532,
    0.09664272698362368,
    0.09917359872179196,
    0.10076984552387559,
    0.10133000701479154,
    0.10076984552387559,
    0.09917359872179196,
    0.09664272698362368,
    0.09312659817082532,
    0.08856444305621176,
    0.08308050282313302,
    0.07684968075772038,
    0.06985412131872826,
    0.06200956780067064,
    0.05348152469092809,
    0.04458975132476488,
    0.03534636079137585,
    0.02546084732671532,
    0.015007947329316122,
    0.005377479872923349,
])
_WEIGHTS_GAUSS = np.array([
    0.0,
    0.03075324199611727,
    0.0,
    0.07036604748810812,
    0.0,
    0.10715922046717194,
    0.0,
    0.13957067792615432,
    0.0,
    0.16626920581699392,
    0.0,
    0.1861610000155622,
    0.0,
    0.19843148532711158,
    0.0,
    0.2025782419255613,
    0.0,
    0.19843148532711158,
    0.0,
    0.1861610000155622,
    0.0,
    0.16626920581699392,
    0.0,
    0.13957067792615432,
    0.0,
    0.10715922046717194,
    0.0,
    0.07036604748810812,
    0.0,
    0.03075324199611727,
    0.0,
])


@dataclass(frozen=True)
class QuadratureSpec:
    """Error budget for the integrator."""

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")


DEFAULT_QUADRATURE = QuadratureSpec()


_EPS = float(np.finfo(float).eps)

# panels of one pass at most, so an item's integrand values and every
# temporary of the node path hold at most _MAX_PANELS x 31 doubles
_MAX_PANELS = 2**17

# values held at once by one block of work: trigonometric tables and their
# products on the matrix path, and integrand values (items x panels x
# _NODES.size nodes) on the node path, whose 64 KiB temporaries stay in cache
_BLOCK_ELEMENTS = 65_536
_NODE_BLOCK_ELEMENTS = 8_192


# du/dt at t = 0 of the edge map u = A t + (1 - A) t^2, see _panel_edges
_EDGE_GRADE = 0.25


def _panel_edges(panels: int) -> np.ndarray:
    """The panels + 1 edges of every pass's panels of [0, 1], graded towards t = 1.

    Edge m is the root t in [0, 1] of A t + (1 - A) t^2 = m / panels with
    A = _EDGE_GRADE, so panels narrow from 1/(A panels) at t = 0 to
    1/((2 - A) panels) at t = 1.  The integrands here oscillate with phase
    rate proportional to t (cos(s r (1 - t^2)) has rate 2 s r t), so the
    panels are narrowest where the oscillation is fastest; A = 1 would be
    uniform and A = 0 equal phase per panel.  With A = 1/4 the map is exact
    at both ends, so one panel is exactly [0, 1].
    """
    u = np.arange(panels + 1) / panels
    return 2.0 * u / (_EDGE_GRADE + np.sqrt(_EDGE_GRADE * _EDGE_GRADE + 4.0 * (1.0 - _EDGE_GRADE) * u))


def _panel_nodes(lefts: np.ndarray, rights: np.ndarray):
    """The (panels, 31) Kronrod nodes of a batch of panels, and their half-widths."""
    mids = 0.5 * (lefts + rights)
    halves = 0.5 * (rights - lefts)
    return mids[:, None] + halves[:, None] * _NODES[None, :], halves


def _estimate(kron: np.ndarray, gauss: np.ndarray, kron_abs: np.ndarray) -> np.ndarray:
    """Per-panel error estimate from the Kronrod, Gauss and Kronrod-|f| sums.

    QUADPACK's sharpened difference min(|K31-G15|, (200*|K31-G15|)^1.5),
    floored at the round-off level 50*eps*kron_abs so an estimate of zero
    can never fake convergence to an unattainable tolerance.  The power is
    taken as x*sqrt(x), which costs half as much as x**1.5.
    """
    raw = np.abs(kron - gauss)
    sharp = 200.0 * raw
    sharp *= np.sqrt(sharp)
    np.minimum(raw, sharp, out=raw)
    return np.maximum(raw, 50.0 * _EPS * kron_abs, out=raw)


def panel_rule(f: Callable[[np.ndarray], np.ndarray], lefts: np.ndarray, rights: np.ndarray):
    """Kronrod values and error estimates for a batch of panels.

    f maps the (panels, 31) nodes to values of shape (..., panels, 31) whose
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


def _expi(values: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """exp(i v phase) for each v of values, shape (panels, values.size, 31).

    cos and sin are written into one complex array, about a fifth cheaper
    than np.exp of an imaginary argument.
    """
    x = values[None, :, None] * phase[:, None, :]
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _exp_progression(start: float, step: float, index: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """exp(i (start + j step) phase) for each j of index, shape (panels, index.size, 31).

    index is sorted and non-negative, and phase has shape (panels, 31).
    With j = c D + e and D = ceil(sqrt(index[-1] + 1)), each entry is the
    product of exp(i (start + c D step) phase) and exp(i e step phase): two
    tables of about sqrt(index[-1]) complex exponentials per node, joined
    by one complex product per entry, in place of one exponential per entry.
    """
    split = math.isqrt(int(index[-1])) + 1
    coarse_of, fine_of = np.divmod(index, split)
    coarse = _expi(start + (np.arange(coarse_of[-1] + 1) * split) * step, phase)
    fine = _expi(np.arange(split) * step, phase)
    return coarse[:, coarse_of] * fine[:, fine_of]


# (Kronrod, Gauss) x (+1, -1): weights each node's (cos, sin) pair, so that
# a row's float view against a column's gives the real part of their product
_SIGNED_RULES = np.stack((_WEIGHTS_KRONROD, _WEIGHTS_GAUSS))[:, :, None] * np.array([1.0, -1.0])


def _progression_pass(s0: float, step: float, phase: Callable[[np.ndarray], np.ndarray],
                      weight: Callable[[np.ndarray], np.ndarray], todo: np.ndarray, panels: int):
    """One pass of _cosine_progression over the sorted items todo, on `panels` graded panels.

    The pass lays its own progression over the span of todo: item
    k = todo[0] + a B + b with B = ceil(sqrt(span)), so s_k = s' + a B step
    + b step with s' = s0 + todo[0] step.  Only the rows a that hold an item
    of todo are evaluated, each against all B columns b.  Yields, per chunk
    of rows, (items, value, error, sum |K31|) as _refine expects.
    """
    edges = _panel_edges(panels)
    nodes, halves = _panel_nodes(edges[:-1], edges[1:])
    first = todo[0]
    start = s0 + first * step
    width = math.isqrt(int(todo[-1] - first)) + 1
    coarse_of, fine_of = np.divmod(todo - first, width)
    rows = np.unique(coarse_of)
    columns = np.arange(width)
    floats = 2 * _NODES.size  # a node's exponential as its (cos, sin) pair

    def panel_sums(chunk: np.ndarray, t: np.ndarray, h: np.ndarray):
        # weighted (K, G) rows times columns, as one real GEMM per panel
        ph, w = phase(t), h[:, None] * weight(t)
        row_table = _exp_progression(start, width * step, chunk, ph).view(float)
        left = (w[:, None, :, None] * _SIGNED_RULES).reshape(len(t), 2, 1, floats) * row_table[:, None]
        columns_table = _exp_progression(0.0, step, columns, ph).view(float)
        prod = left.reshape(len(t), 2 * chunk.size, floats) @ columns_table.transpose(0, 2, 1)
        return prod[:, :chunk.size], prod[:, chunk.size:], (np.abs(w) @ _WEIGHTS_KRONROD)[:, None, None]

    rows_per_chunk = max(1, _BLOCK_ELEMENTS // (2 * width))
    for first_row in range(0, rows.size, rows_per_chunk):
        chunk = rows[first_row:first_row + rows_per_chunk]
        sums = np.zeros((3, chunk.size, width))
        # values held per panel: the products, the column table, and the row
        # table with its weighted (K, G) copy
        per_chunk = max(1, _BLOCK_ELEMENTS // max(2 * chunk.size * width, floats * width, 2 * floats * chunk.size))
        for start_panel in range(0, panels, per_chunk):
            panel = slice(start_panel, start_panel + per_chunk)
            kron, gauss, kron_abs = panel_sums(chunk, nodes[panel], halves[panel])
            sums[0] += kron.sum(axis=0)
            sums[1] += _estimate(kron, gauss, kron_abs).sum(axis=0)
            sums[2] += np.abs(kron).sum(axis=0)
        lo = np.searchsorted(coarse_of, chunk[0], side="left")
        hi = np.searchsorted(coarse_of, chunk[-1], side="right")
        at = (np.searchsorted(chunk, coarse_of[lo:hi]), fine_of[lo:hi])
        yield todo[lo:hi], sums[0][at], sums[1][at], sums[2][at]


def _cosine_progression(s0: float, step: float, n_items: int,
                        phase: Callable[[np.ndarray], np.ndarray],
                        weight: Callable[[np.ndarray], np.ndarray],
                        panels: float, abs_tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Integrate f_k(t) = cos((s0 + k step) phase(t)) weight(t), k < n_items, over [0, 1].

    Each pass (_progression_pass) splits its items k = a B + b, so that
    cos(s_k phase) is the real part of exp(i s_a phase) exp(i b step phase)
    with s_a the value of row a.  On each panel the Kronrod and Gauss sums
    of all items are then one real matrix product: the rows, as a
    (2 rows x 62) table of exponentials weighted by h w K_j and h w G_j,
    times the (62 x B) table of the columns.  Both tables are built by
    _exp_progression from about sqrt(count) exponentials per node, about
    4 n_items^(1/4) per node in all (28 for the default scan grid,
    n = 2001).  A panel thus costs about 124 n_items^(1/4) exponentials
    instead of 31 n_items cosines, and the (items, panels, 31) array of
    integrand values is never built.  A refinement pass lays its own
    progression over the span of its items, so it pays for that span, not
    for the whole grid.
    Rows and panels are taken in chunks whose tables and products hold at
    most _BLOCK_ELEMENTS values, a complex entry counting as two.  The
    round-off floor uses kron_abs = h sum K_j |w|, which bounds int |f_k|
    for every k since |cos| <= 1.  The first-pass count panels, refinement,
    the panel budget and the result are _refine's, as in integrate.
    """
    return _refine(lambda todo, count: _progression_pass(s0, step, phase, weight, todo, count),
                   n_items, panels, abs_tol)


def integrate(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_items: int,
    panels: float,
    abs_tol: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Integrate a batch of n_items integrands over t in [0, 1].

    f(items, t) maps an index array of items and the (panels, 31) nodes to
    values of shape (len(items), panels, 31), evaluated by panel_rule on
    the graded panels of _panel_edges, in blocks of _NODE_BLOCK_ELEMENTS
    integrand values.  The first-pass count panels (a real number, rounded
    up), refinement, the panel budget and the result (values,
    error_estimates, panels of the finest pass) are _refine's;
    ToleranceNotReached when a pass would exceed the budget.
    """
    def node_pass(todo: np.ndarray, count: int):
        edges = _panel_edges(count)
        per_block = max(1, _NODE_BLOCK_ELEMENTS // (_NODES.size * count))
        for start in range(0, todo.size, per_block):
            items = todo[start:start + per_block]
            kron, err = panel_rule(lambda t: f(items, t), edges[:-1], edges[1:])
            yield items, kron.sum(axis=-1), err.sum(axis=-1), np.abs(kron).sum(axis=-1)

    return _refine(node_pass, n_items, panels, abs_tol)


def _refine(evaluate, n_items: int, panels: float, abs_tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The panel-doubling loop shared by every integrand.

    evaluate(todo, count) yields, block by block, (items, value, error,
    sum |K31|) per item of todo on count panels of [0, 1], laid by
    _panel_edges.  All items start on ceil(panels) panels, at least one;
    an item whose summed estimate misses abs_tol is evaluated again on
    twice as many, until every item fits.  No pass may have more than
    _MAX_PANELS panels: the count is checked before each pass, the first
    included, so a count of inf or 1e300 is refused before any array is
    built.  An item whose round-off floor 50*eps*sum|K31| already exceeds
    abs_tol fails at once.

    Returns (values, error_estimates, panels of the finest pass).
    Raises ToleranceNotReached when a pass would exceed the panel budget.
    """
    values, errors = np.empty(n_items), np.empty(n_items)
    todo = np.arange(n_items)
    while True:
        if not panels <= _MAX_PANELS:
            raise ToleranceNotReached(
                f"a pass of {panels:.3e} panels exceeds the panel budget {_MAX_PANELS} "
                f"before abs_tol {abs_tol:.3e} is reached"
            )
        panels = max(1, math.ceil(panels))
        for items, value, error, magnitude in evaluate(todo, panels):
            values[items], errors[items] = value, error
            floor = 50.0 * _EPS * magnitude.max()
            if floor > abs_tol:
                raise ToleranceNotReached(
                    f"round-off floor {floor:.3e} exceeds abs_tol {abs_tol:.3e}; "
                    "no panel budget reaches it"
                )
        todo = todo[errors[todo] > abs_tol]
        if todo.size == 0:
            return values, errors, panels
        panels *= 2
