"""(Pseudo)metric structures on the split bundle and compatible connections.

The metric is a symmetric horizontal block g[alpha][beta](x, y0) plus one
vertical coefficient g00(x, y0); both must be nondegenerate on the sampling
box.  ``metric_dconnection`` builds, from any baseline coefficient set, a
connection whose covariant derivatives annihilate the metric; with the
fiber-derivative (Berwald-type) baseline this is the canonical connection.

Matrix inversion is a plain Gauss-Jordan written to run on Jet entries, so
the constructed coefficients can be differentiated again (curvature needs
first derivatives of the inverse metric, the cyclic identity suites need
second).
"""

from __future__ import annotations

import math

from .algebroid import AlgebroidData
from .calculus import (
    EPoint,
    EvaluationDomainError,
    at_point,
    constant,
    jdy,
    jval,
    primal,
    seeded_point,
)
from .dconnection import DConnectionCoeffs, h_cov_values, v_cov_values
from .nlconnection import NonlinearConnection, adapted_derivatives
from .report import ResidualTracker

__all__ = [
    "MetricStructure",
    "SingularMetricError",
    "matrix_inverse",
    "inverse_h",
    "metric_dconnection",
    "CompatibilityCheck",
    "riemannian_flags",
]


# Past this condition estimate of a horizontal block, fewer than about 4
# of the 16 significant digits of its inverse are right, so the inverse and
# everything built on it is refused.
MAX_CONDITION = 1e12
# The largest entry of g . g^-1 - I allowed, relative to max(1, condition).
RESIDUAL_TOL = 1e-12


class SingularMetricError(EvaluationDomainError):
    """Metric block not invertible at a point; carries a condition estimate."""

    def __init__(self, message, point=None, condition=None):
        super().__init__(message, point=point)
        self.condition = condition


class MetricStructure:
    """Horizontal block g (p x p fields, symmetric) and vertical g00."""

    __slots__ = ("p", "g", "g00")

    def __init__(self, p: int, g: tuple, g00):
        if len(g) != p or any(len(row) != p for row in g):
            raise ValueError(f"g table must be {p}x{p}")
        self.p = p
        self.g = g         # g[alpha][beta] fields
        self.g00 = g00

    def g_at(self, xs, y):
        return [[self.g[a][b](xs, y) for b in range(self.p)]
                for a in range(self.p)]

    def g00_at(self, xs, y):
        return self.g00(xs, y)

    @staticmethod
    def flat(p: int) -> "MetricStructure":
        one, zero = constant(1.0), constant(0.0)
        g = tuple(tuple(one if a == b else zero for b in range(p))
                  for a in range(p))
        return MetricStructure(p, g, one)


def _norm1(mat):
    return max(sum(abs(mat[a][b]) for a in range(len(mat)))
               for b in range(len(mat)))


def matrix_inverse(mat, point=None):
    """Gauss-Jordan with partial pivoting; entries may be floats or Jets.
    Pivot selection uses the underlying float values."""
    n = len(mat)
    aug = [list(row) + [1.0 if i == j else 0.0 for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(primal(aug[r][col])))
        pivot = aug[pivot_row][col]
        if abs(primal(pivot)) < 1e-300:
            raise SingularMetricError(
                f"singular matrix (pivot {primal(pivot):.3e} in column {col})",
                point=point,
            )
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(n):
            if r != col:
                factor = aug[r][col]
                if primal(factor) != 0.0:
                    aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def inverse_h(G: MetricStructure, pt: EPoint):
    """Pointwise inverse of the horizontal block, self-checked by
    multiplying back; raises EvaluationDomainError when an entry of the
    block is not finite, and SingularMetricError with a condition estimate
    when that is above MAX_CONDITION (or NaN) or the check fails."""
    g = G.g_at(pt.x, pt.y)
    if not all(math.isfinite(v) for row in g for v in row):
        raise EvaluationDomainError("non-finite value in metric block g",
                                    point=pt)
    try:
        ginv = matrix_inverse(g, point=pt)
    except SingularMetricError as exc:
        exc.condition = float("inf")
        raise
    p = G.p
    worst = 0.0
    for a in range(p):
        for b in range(p):
            acc = sum(g[a][c] * ginv[c][b] for c in range(p))
            worst = max(worst, abs(acc - (1.0 if a == b else 0.0)))
    cond = _norm1(g) * _norm1(ginv)
    # Written as ``not x <= bound`` so that a NaN is refused too.  A NaN or
    # infinite entry of ginv makes cond NaN or infinite, so past this test
    # every product above was finite and ``worst`` cannot have lost a NaN.
    if not cond <= MAX_CONDITION:
        raise SingularMetricError(
            f"ill-conditioned metric block (condition above "
            f"{MAX_CONDITION:g})", point=pt, condition=cond)
    if not worst <= RESIDUAL_TOL * max(1.0, cond):
        raise SingularMetricError(
            f"ill-conditioned metric block (residual {worst:.3e})",
            point=pt, condition=cond,
        )
    return ginv


def metric_dconnection(G: MetricStructure, baseline: DConnectionCoeffs,
                       A: AlgebroidData, N: NonlinearConnection) -> DConnectionCoeffs:
    """Metric-compatible coefficients built over a baseline (ring) set.

    hh is the Koszul-type combination of adapted derivatives of g and the
    bracket table; hv and vh correct the baseline by half the baseline
    covariant derivative of the metric blocks; vv is half the logarithmic
    fiber derivative of g00.
    """
    p = G.p

    def hh_at(xs, y):
        g_vals, g_delta, _ = adapted_derivatives(
            lambda jxs, jy: G.g_at(jxs, jy), xs, y, A, N)
        ginv = matrix_inverse(g_vals)
        Lv = A.L_at(xs)
        rp = range(p)
        out = [[[None] * p for _ in rp] for _ in rp]
        for b in rp:
            for c in rp:
                # The Koszul terms of (b, c) do not depend on the upper
                # index a: build them once, contract with every row of ginv.
                terms = [g_delta[c][e][b] + g_delta[b][e][c] - g_delta[e][b][c]
                         + sum(g_vals[th][e] * Lv[th][c][b]
                               - g_vals[b][th] * Lv[th][c][e]
                               - g_vals[th][c] * Lv[th][b][e]
                               for th in rp)
                         for e in rp]
                for a in rp:
                    acc = 0.0
                    for gi, term in zip(ginv[a], terms):
                        acc = acc + gi * term
                    out[a][b][c] = 0.5 * acc
        return out

    def hv_at(xs, y):
        vals, delta, _ = adapted_derivatives(
            lambda jxs, jy: [G.g00_at(jxs, jy)], xs, y, A, N)
        g00 = vals[0]
        if primal(g00) == 0.0:
            raise SingularMetricError("g00 vanishes", point=EPoint(tuple(map(primal, xs)), primal(y)))
        hv0 = baseline.hv_at(xs, y)
        return [
            hv0[c] + 0.5 * (delta[c][0] - 2.0 * hv0[c] * g00) / g00
            for c in range(p)
        ]

    def vh_at(xs, y):
        jxs, jy = seeded_point(xs, y)
        gj = G.g_at(jxs, jy)
        g_vals = [[jval(v) for v in row] for row in gj]
        g_dy = [[jdy(v) for v in row] for row in gj]
        ginv = matrix_inverse(g_vals)
        vh0 = baseline.vh_at(xs, y)
        # The ring terms do not depend on the upper index a.
        rings = [[g_dy[b][e] - sum(
                      vh0[th][b] * g_vals[th][e] + vh0[th][e] * g_vals[b][th]
                      for th in range(p))
                  for e in range(p)] for b in range(p)]
        out = [[None] * p for _ in range(p)]
        for a in range(p):
            for b in range(p):
                acc = 0.0
                for gi, ring in zip(ginv[a], rings[b]):
                    acc = acc + gi * ring
                out[a][b] = vh0[a][b] + 0.5 * acc
        return out

    def vv_at(xs, y):
        jxs, jy = seeded_point(xs, y)
        g00j = G.g00_at(jxs, jy)
        g00 = jval(g00j)
        if primal(g00) == 0.0:
            raise SingularMetricError("g00 vanishes", point=EPoint(tuple(map(primal, xs)), primal(y)))
        return 0.5 * jdy(g00j) / g00

    return DConnectionCoeffs(p, hh_at, hv_at, vh_at, vv_at)


def _compatibility_values(G: MetricStructure, D: DConnectionCoeffs,
                          A: AlgebroidData, N: NonlinearConnection, pt):
    """The horizontal and vertical covariant derivatives of g (valence
    (0, 2)) and of g00 (vertical valence (0, 2)) at pt, from one derivative
    pass over both blocks."""
    (g, g00), delta, (g_dy, g00_dy) = adapted_derivatives(
        lambda jxs, jy: [G.g_at(jxs, jy), G.g00_at(jxs, jy)],
        pt.x, pt.y, A, N)
    Hh, Hv, Vh, Vv = D.all_at(pt.x, pt.y)
    return (h_cov_values(g, [d[0] for d in delta], 0, 2, 0, Hh, Hv),
            v_cov_values(g, g_dy, 0, 2, 0, Vh, Vv),
            h_cov_values(g00, [d[1] for d in delta], 0, 0, -2, Hh, Hv),
            v_cov_values(g00, g00_dy, 0, 0, -2, Vh, Vv))


class CompatibilityCheck:
    """The four covariant-constancy residual families: horizontal and
    vertical derivatives of both metric blocks (:func:`_compatibility_values`).
    ``step(pt, tables)`` checks one point (it reads only the point's
    coefficients ``tables.D``); ``finish()`` returns the one CheckResult,
    as a list."""

    def __init__(self, G: MetricStructure, A: AlgebroidData,
                 N: NonlinearConnection, tol: float = 1e-9):
        self._args = (G, A, N)
        self._tracker = ResidualTracker("compatibility", tol)

    def finish(self):
        return [self._tracker.result()]

    def step(self, pt: EPoint, tables):
        G, A, N = self._args
        tracker, p = self._tracker, G.p
        vh, vv, v0h, v0v = _compatibility_values(G, tables.D, A, N, pt)
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    tracker.update(vh[a][b][c], pt)
                tracker.update(vv[a][b], pt)
        for c in range(p):
            tracker.update(v0h[c], pt)
        tracker.update(v0v, pt)


def riemannian_flags(G: MetricStructure, samples, tol: float = 1e-12):
    """(h-block independent of y0, vertical coefficient independent of y0)."""
    max_h = 0.0
    max_v = 0.0
    for pt in samples:
        with at_point(pt):
            jxs, jy = seeded_point(pt.x, pt.y)
            gj = G.g_at(jxs, jy)
            g00j = G.g00_at(jxs, jy)
        for row in gj:
            for v in row:
                max_h = max(max_h, abs(jdy(v)))
        max_v = max(max_v, abs(jdy(g00j)))
    return max_h <= tol, max_v <= tol
